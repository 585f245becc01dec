//! The systematic Gibbs sampler of paper §3.1 (Algorithms 1 and 2).
//!
//! The setting is the one the paper uses to explain the method: a random
//! vector `X = (X₁, …, X_r)` with *independent* components, an aggregation
//! function `Q(x) = x₁ + … + x_r`, and the conditional target distribution
//! `h(x; c) = P(X = x | Q(X) ≥ c)`.  One systematic Gibbs updating step
//! resamples each component in turn from its conditional distribution given
//! the others, which — by independence — is just the marginal `h_i`
//! restricted to `{u : u + Σ_{j≠i} x_j ≥ c}`; Algorithm 2 samples it by
//! rejection.
//!
//! The database-level Gibbs Looper performs exactly these updates, with the
//! marginals replaced by VG-function streams and `Q` replaced by the query.
//! This module keeps the statistical core separate so it can be validated
//! against closed forms and used by the Appendix B applicability experiments
//! (heavy-tailed marginals make the rejection step collapse).

use mcdbr_prng::Pcg64;
use mcdbr_vg::Distribution;

/// Acceptance/rejection accounting for a Gibbs run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GibbsStats {
    /// Number of accepted component updates.
    pub accepted: u64,
    /// Number of rejected candidate draws.
    pub rejected: u64,
    /// Number of component updates abandoned because the rejection loop hit
    /// its candidate budget (the state is left unchanged for that component).
    pub exhausted: u64,
}

impl GibbsStats {
    /// Total candidate draws.
    pub fn candidates(&self) -> u64 {
        self.accepted + self.rejected
    }

    /// Fraction of candidate draws that were accepted (1.0 if none drawn).
    pub fn acceptance_rate(&self) -> f64 {
        if self.candidates() == 0 {
            1.0
        } else {
            self.accepted as f64 / self.candidates() as f64
        }
    }

    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: GibbsStats) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.exhausted += other.exhausted;
    }
}

/// A sum query over independent scalar components — the §3.1 example model.
#[derive(Debug, Clone)]
pub struct IndependentSumModel {
    /// Marginal distribution of each component (`h_i`).
    pub components: Vec<Distribution>,
}

impl IndependentSumModel {
    /// Build a model from per-component marginals.
    pub fn new(components: Vec<Distribution>) -> Self {
        assert!(!components.is_empty(), "need at least one component");
        IndependentSumModel { components }
    }

    /// A model with `r` i.i.d. components.
    pub fn iid(marginal: Distribution, r: usize) -> Self {
        Self::new(vec![marginal; r])
    }

    /// Number of components `r`.
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// Draw an unconditional sample of the full vector (used to initialize
    /// Algorithm 3's particle set).
    pub fn sample(&self, gen: &mut Pcg64) -> Vec<f64> {
        self.components.iter().map(|d| d.sample(gen)).collect()
    }

    /// `Q(x)`: the sum aggregate.
    pub fn q(&self, x: &[f64]) -> f64 {
        x.iter().sum()
    }

    /// One invocation of GENCOND (Algorithm 2): sample component `i`'s
    /// conditional distribution given the rest of `x` and the constraint
    /// `Q ≥ cutoff`, by rejection from the marginal.
    ///
    /// Returns `Some(u)` and the number of rejected candidates on success, or
    /// `None` if `max_candidates` draws were all rejected (the caller keeps
    /// the old value; the paper's looper would keep scanning the stream, and
    /// its analysis in Appendix B is precisely about when this loop becomes
    /// hopeless).
    pub fn gencond(
        &self,
        x: &[f64],
        i: usize,
        cutoff: f64,
        gen: &mut Pcg64,
        max_candidates: u64,
    ) -> (Option<f64>, u64) {
        let rest: f64 = self.q(x) - x[i];
        let mut rejected = 0;
        while rejected < max_candidates {
            let u = self.components[i].sample(gen);
            if u + rest >= cutoff {
                return (Some(u), rejected);
            }
            rejected += 1;
        }
        (None, rejected)
    }

    /// GIBBS(X, k, c) — Algorithm 1 with the rejection-based GENCOND: perform
    /// `k` systematic updating steps in place, never letting `Q` drop below
    /// `cutoff`.  Returns acceptance statistics.
    pub fn gibbs_update(
        &self,
        x: &mut [f64],
        cutoff: f64,
        k: usize,
        gen: &mut Pcg64,
        max_candidates: u64,
    ) -> GibbsStats {
        assert_eq!(x.len(), self.dim(), "state dimension mismatch");
        debug_assert!(
            self.q(x) >= cutoff - 1e-9,
            "initial state must already satisfy Q(x) >= cutoff"
        );
        let mut stats = GibbsStats::default();
        for _ in 0..k {
            for i in 0..self.dim() {
                let (candidate, rejected) = self.gencond(x, i, cutoff, gen, max_candidates);
                stats.rejected += rejected;
                match candidate {
                    Some(u) => {
                        x[i] = u;
                        stats.accepted += 1;
                    }
                    None => stats.exhausted += 1,
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_vg::math::std_normal_cdf;

    fn normal_model(r: usize) -> IndependentSumModel {
        IndependentSumModel::iid(Distribution::Normal { mean: 0.0, sd: 1.0 }, r)
    }

    #[test]
    fn model_moments() {
        let m = IndependentSumModel::new(vec![
            Distribution::Normal { mean: 3.0, sd: 1.0 },
            Distribution::Normal { mean: 4.0, sd: 1.0 },
            Distribution::Normal { mean: 5.0, sd: 1.0 },
        ]);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.q(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn gibbs_updates_never_violate_the_cutoff() {
        let model = normal_model(8);
        let mut gen = Pcg64::new(1);
        // Start from an unconditional sample that happens to be large.
        let cutoff = 2.0;
        let mut x = loop {
            let x = model.sample(&mut gen);
            if model.q(&x) >= cutoff {
                break x;
            }
        };
        for _ in 0..200 {
            model.gibbs_update(&mut x, cutoff, 1, &mut gen, 10_000);
            assert!(model.q(&x) >= cutoff - 1e-9, "Q = {}", model.q(&x));
        }
    }

    #[test]
    fn stationarity_preserves_the_conditional_distribution() {
        // Start particles exactly from h(.; c) by rejection, apply k = 1 Gibbs
        // steps, and verify the distribution of Q is unchanged: it should
        // match the truncated-normal conditional P(S | S >= c) for
        // S ~ Normal(0, r).
        let r = 4;
        let model = normal_model(r);
        let sd = (r as f64).sqrt();
        let cutoff = 1.5 * sd; // a mild tail so rejection initialization is feasible
        let mut gen = Pcg64::new(7);
        let mut after: Vec<f64> = Vec::new();
        let n_particles = 4_000;
        for _ in 0..n_particles {
            let mut x = loop {
                let x = model.sample(&mut gen);
                if model.q(&x) >= cutoff {
                    break x;
                }
            };
            model.gibbs_update(&mut x, cutoff, 1, &mut gen, 100_000);
            after.push(model.q(&x));
        }
        // Compare the empirical mean of Q after updating with the analytic
        // mean of a truncated normal: mean = sd * φ(a)/(1-Φ(a)) with a = c/sd.
        let a = cutoff / sd;
        let phi = (-(a * a) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let truncated_mean = sd * phi / (1.0 - std_normal_cdf(a));
        let emp_mean: f64 = after.iter().sum::<f64>() / after.len() as f64;
        assert!(
            (emp_mean - truncated_mean).abs() < 0.05 * truncated_mean,
            "empirical {emp_mean} vs analytic {truncated_mean}"
        );
        // And nothing fell below the cutoff.
        assert!(after.iter().all(|&q| q >= cutoff - 1e-9));
    }

    #[test]
    fn chains_from_the_same_state_decorrelate() {
        // §3.1: two chains started from the same state but updated
        // independently become approximately independent.  We check that the
        // correlation between the two chains' Q values after a few steps is
        // small compared to the (perfect) correlation at step zero.
        let model = normal_model(6);
        let cutoff = 2.0;
        let mut gen = Pcg64::new(3);
        let n = 1_500;
        let mut q_a = Vec::with_capacity(n);
        let mut q_b = Vec::with_capacity(n);
        for _ in 0..n {
            let start = loop {
                let x = model.sample(&mut gen);
                if model.q(&x) >= cutoff {
                    break x;
                }
            };
            let mut a = start.clone();
            let mut b = start;
            model.gibbs_update(&mut a, cutoff, 3, &mut gen, 100_000);
            model.gibbs_update(&mut b, cutoff, 3, &mut gen, 100_000);
            q_a.push(model.q(&a));
            q_b.push(model.q(&b));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (ma, mb) = (mean(&q_a), mean(&q_b));
        let cov: f64 = q_a
            .iter()
            .zip(&q_b)
            .map(|(a, b)| (a - ma) * (b - mb))
            .sum::<f64>()
            / n as f64;
        let var_a: f64 = q_a.iter().map(|a| (a - ma) * (a - ma)).sum::<f64>() / n as f64;
        let var_b: f64 = q_b.iter().map(|b| (b - mb) * (b - mb)).sum::<f64>() / n as f64;
        let corr = cov / (var_a * var_b).sqrt();
        assert!(
            corr.abs() < 0.25,
            "chains should decorrelate, corr = {corr}"
        );
    }

    #[test]
    fn light_tails_accept_quickly_heavy_tails_do_not() {
        // Appendix B: for a SUM of heavy-tailed components, extreme databases
        // are extreme because of one huge component, and replacing that
        // component makes Q drop below the cutoff — so rejection rates blow
        // up.  Light-tailed (normal) components spread the exceedance across
        // components and accept quickly.
        let r = 20;
        let mut gen = Pcg64::new(11);

        let run = |marginal: Distribution, tail_prob: f64, gen: &mut Pcg64| -> f64 {
            let model = IndependentSumModel::iid(marginal, r);
            // Locate an empirical (1 - tail_prob) quantile of Q by simulation.
            let mut qs: Vec<f64> = (0..4_000).map(|_| model.q(&model.sample(gen))).collect();
            qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let cutoff = qs[((1.0 - tail_prob) * qs.len() as f64) as usize];
            // Find a starting state in the tail, then measure acceptance.
            let mut x = loop {
                let x = model.sample(gen);
                if model.q(&x) >= cutoff {
                    break x;
                }
            };
            let mut stats = GibbsStats::default();
            for _ in 0..30 {
                stats.merge(model.gibbs_update(&mut x, cutoff, 1, gen, 2_000));
            }
            stats.acceptance_rate()
        };

        let normal_rate = run(Distribution::Normal { mean: 1.0, sd: 1.0 }, 0.02, &mut gen);
        let pareto_rate = run(
            Distribution::Pareto {
                scale: 1.0,
                shape: 1.3,
            },
            0.02,
            &mut gen,
        );
        assert!(normal_rate > 0.25, "normal acceptance rate = {normal_rate}");
        assert!(
            pareto_rate < normal_rate,
            "heavy tails must be harder: pareto {pareto_rate} vs normal {normal_rate}"
        );
    }

    #[test]
    fn gencond_reports_rejections_and_exhaustion() {
        let model = normal_model(2);
        let mut gen = Pcg64::new(5);
        // Impossible cutoff with a tiny candidate budget: must exhaust.
        let x = [0.0, 0.0];
        let (candidate, rejected) = model.gencond(&x, 0, 1_000.0, &mut gen, 50);
        assert!(candidate.is_none());
        assert_eq!(rejected, 50);
        // Trivial cutoff: accepted immediately.
        let (candidate, rejected) = model.gencond(&x, 0, -1_000.0, &mut gen, 50);
        assert!(candidate.is_some());
        assert_eq!(rejected, 0);
    }

    #[test]
    fn stats_merge_and_rates() {
        let mut a = GibbsStats {
            accepted: 3,
            rejected: 1,
            exhausted: 0,
        };
        a.merge(GibbsStats {
            accepted: 1,
            rejected: 3,
            exhausted: 2,
        });
        assert_eq!(a.accepted, 4);
        assert_eq!(a.rejected, 4);
        assert_eq!(a.exhausted, 2);
        assert_eq!(a.candidates(), 8);
        assert!((a.acceptance_rate() - 0.5).abs() < 1e-12);
        assert_eq!(GibbsStats::default().acceptance_rate(), 1.0);
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn dimension_mismatch_panics() {
        let model = normal_model(3);
        let mut gen = Pcg64::new(1);
        let mut x = vec![10.0, 10.0];
        model.gibbs_update(&mut x, 0.0, 1, &mut gen, 10);
    }
}
