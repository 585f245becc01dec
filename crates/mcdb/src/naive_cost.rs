//! The cost model behind the paper's motivating numbers (§1).
//!
//! The introduction quantifies why naive Monte Carlo cannot explore tails:
//! with a `Normal(10 M, (1 M)²)` total-loss distribution and interest in
//! losses of 15 M or more,
//!
//! * "roughly 3.5 million Monte Carlo repetitions are required before such an
//!   extremely high loss is observed even once",
//! * "130 billion repetitions are required to estimate the desired
//!   probability to within ±1 % with a confidence of 95 %", and
//! * "standard quantile-estimation techniques require roughly ten million
//!   Monte Carlo repetitions to estimate [the 0.999 quantile] to within ±1 %".
//!
//! [`NaiveCostModel`] reproduces all three numbers from first principles so
//! experiment E4 can print them next to the paper's figures.  The first two
//! use the exact binomial-sampling argument with a 95 % normal critical value;
//! the third follows the paper's (looser) convention of a 1 % relative
//! *standard error* on the tail probability induced by the quantile estimate,
//! which is what recovers the "ten million" figure.

use mcdbr_vg::math::{erfc, std_normal_quantile};

/// Closed-form repetition counts for naive Monte Carlo tail exploration.
#[derive(Debug, Clone, Copy)]
pub struct NaiveCostModel {
    /// Mean of the (normal) query-result distribution.
    pub mean: f64,
    /// Standard deviation of the query-result distribution.
    pub sd: f64,
}

impl NaiveCostModel {
    /// Model for a `Normal(mean, sd²)` query-result distribution.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd > 0.0, "standard deviation must be positive");
        NaiveCostModel { mean, sd }
    }

    /// The paper's running example: total loss ~ Normal(10 M, (1 M)²).
    pub fn paper_example() -> Self {
        NaiveCostModel::new(10.0e6, 1.0e6)
    }

    /// Upper-tail probability `P(X >= threshold)`, as `erfc(z/√2) / 2`:
    /// `1 − Φ(z)` would cancel to zero from `z ≈ 8.3` on.
    pub fn tail_probability(&self, threshold: f64) -> f64 {
        let z = (threshold - self.mean) / self.sd;
        0.5 * erfc(z / std::f64::consts::SQRT_2)
    }

    /// Expected number of repetitions before one sample lands at or above
    /// `threshold` (geometric waiting time, `1/p`).
    pub fn expected_reps_per_tail_hit(&self, threshold: f64) -> f64 {
        1.0 / self.tail_probability(threshold)
    }

    /// Repetitions needed to estimate the tail probability `p` of
    /// `threshold` to within relative error `rel_err` at the given
    /// confidence, using the binomial CLT bound
    /// `n ≥ z² (1 − p) / (p · rel_err²)`.
    pub fn reps_for_tail_probability(&self, threshold: f64, rel_err: f64, confidence: f64) -> f64 {
        let p = self.tail_probability(threshold);
        let z = std_normal_quantile(0.5 + confidence / 2.0);
        z * z * (1.0 - p) / (p * rel_err * rel_err)
    }

    /// Repetitions needed to estimate the `(1 − p)`-quantile so that the tail
    /// probability it induces has relative standard error `rel_err`
    /// (`n ≥ (1 − p) / (p · rel_err²)`); the convention that reproduces the
    /// paper's "roughly ten million repetitions" for `p = 0.001`,
    /// `rel_err = 1 %`.
    pub fn reps_for_quantile(&self, p: f64, rel_err: f64) -> f64 {
        (1.0 - p) / (p * rel_err * rel_err)
    }

    /// The `(1 − p)`-quantile of the result distribution.
    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sd * std_normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tail_hit_count_is_about_three_and_a_half_million() {
        let m = NaiveCostModel::paper_example();
        let reps = m.expected_reps_per_tail_hit(15.0e6);
        // P(Z >= 5) ≈ 2.87e-7, so 1/p ≈ 3.49 million.
        assert!((2.8e6..4.2e6).contains(&reps), "reps = {reps}");
    }

    #[test]
    fn paper_tail_area_estimate_is_about_130_billion_reps() {
        let m = NaiveCostModel::paper_example();
        let reps = m.reps_for_tail_probability(15.0e6, 0.01, 0.95);
        assert!((1.0e11..1.7e11).contains(&reps), "reps = {reps}");
    }

    #[test]
    fn paper_quantile_estimate_is_about_ten_million_reps() {
        let m = NaiveCostModel::paper_example();
        let reps = m.reps_for_quantile(0.001, 0.01);
        assert!((0.8e7..1.2e7).contains(&reps), "reps = {reps}");
    }

    #[test]
    fn quantile_and_tail_probability_are_consistent() {
        let m = NaiveCostModel::paper_example();
        let q = m.quantile(0.001);
        let p = m.tail_probability(q);
        assert!((p - 0.001).abs() < 1e-6, "p = {p}");
        assert!((q - 13.09e6).abs() < 0.02e6, "q = {q}");
    }

    #[test]
    fn tail_probability_is_monotone_in_threshold() {
        let m = NaiveCostModel::new(0.0, 1.0);
        assert!(m.tail_probability(1.0) > m.tail_probability(2.0));
        assert!(m.expected_reps_per_tail_hit(2.0) > m.expected_reps_per_tail_hit(1.0));
    }

    #[test]
    fn far_tail_probability_does_not_cancel() {
        // `0.5 * math.erfc(z / math.sqrt(2))` in Python.
        let m = NaiveCostModel::new(0.0, 1.0);
        for (z, want) in [
            (6.0, 9.865876450377012e-10),
            (8.0, 6.220960574271819e-16),
            (9.0, 1.1285884059538422e-19),
        ] {
            let got = m.tail_probability(z);
            assert!((got - want).abs() <= 1e-15 * want, "P(Z >= {z}) = {got:e}");
            assert!(m.expected_reps_per_tail_hit(z).is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "standard deviation must be positive")]
    fn zero_sd_panics() {
        NaiveCostModel::new(1.0, 0.0);
    }
}
