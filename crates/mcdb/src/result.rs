//! Result-distribution statistics over Monte Carlo samples.
//!
//! MCDB "uses Monte Carlo techniques to estimate interesting features of the
//! query-result distribution — the expected value, variance, and quantiles of
//! the query answer — along with probabilistic error bounds on the estimates"
//! (paper §1).  [`ResultDistribution`] packages those estimators, and also
//! implements the `DOMAIN` conditioning and `FREQUENCYTABLE` output of the
//! MCDB-R query surface (paper §2).

use mcdbr_storage::{Error, Result};

/// Summary of a set of Monte Carlo query-result samples.
#[derive(Debug, Clone)]
pub struct ResultDistribution {
    /// The samples, sorted ascending.  NaN samples (e.g. AVG over an empty
    /// instance) are excluded and counted separately.
    sorted: Vec<f64>,
    /// Number of NaN samples dropped.
    dropped_nan: usize,
}

impl ResultDistribution {
    /// Build from raw per-repetition samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        let dropped_nan = samples.len() - sorted.len();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ResultDistribution {
            sorted,
            dropped_nan,
        }
    }

    /// Number of (finite) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Number of NaN samples that were dropped.
    pub fn dropped_nan(&self) -> usize {
        self.dropped_nan
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Sample mean (the MCDB estimator of the expected query result).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        let n = self.sorted.len();
        if n < 2 {
            return f64::NAN;
        }
        let mean = self.mean();
        self.sorted
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n - 1) as f64
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// Empirical `q`-quantile (0 < q < 1), using the inverse-CDF convention
    /// `x_(⌈qn⌉)`: the same order-statistic convention Algorithm 3 uses when
    /// it keeps the "(p·|S|)-largest element".
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if self.sorted.is_empty() {
            return Err(Error::InvalidOperation(
                "quantile of an empty sample set".into(),
            ));
        }
        if !(0.0..=1.0).contains(&q) {
            return Err(Error::InvalidOperation(format!(
                "quantile level {q} outside [0,1]"
            )));
        }
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Ok(self.sorted[rank - 1])
    }

    /// A CLT confidence interval for the mean at the given confidence level
    /// (e.g. 0.95), returned as `(lo, hi)`.
    pub fn mean_confidence_interval(&self, confidence: f64) -> Result<(f64, f64)> {
        if self.sorted.len() < 2 {
            return Err(Error::InvalidOperation(
                "need at least two samples for a confidence interval".into(),
            ));
        }
        if !(0.0..1.0).contains(&confidence) {
            return Err(Error::InvalidOperation(format!(
                "confidence {confidence} outside (0,1)"
            )));
        }
        let z = mcdbr_vg::math::std_normal_quantile(0.5 + confidence / 2.0);
        let half = z * self.std_dev() / (self.sorted.len() as f64).sqrt();
        let mean = self.mean();
        Ok((mean - half, mean + half))
    }

    /// Empirical CDF evaluated at `x`: fraction of samples `<= x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Condition on a `DOMAIN` restriction (paper §2): keep only samples for
    /// which `domain` holds and renormalize.  Returns the conditional
    /// distribution and the fraction of samples retained.
    pub fn condition(&self, domain: impl Fn(f64) -> bool) -> (ResultDistribution, f64) {
        let kept: Vec<f64> = self.sorted.iter().copied().filter(|&x| domain(x)).collect();
        let frac = if self.sorted.is_empty() {
            0.0
        } else {
            kept.len() as f64 / self.sorted.len() as f64
        };
        (ResultDistribution::from_samples(&kept), frac)
    }

    /// The `FREQUENCYTABLE` of paper §2: distinct observed values and the
    /// fraction of samples taking each value, in increasing value order.
    /// Values within `tolerance` of each other are merged (the paper's C++
    /// prototype compares exact doubles; a tolerance of 0.0 reproduces that).
    pub fn frequency_table(&self, tolerance: f64) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() {
            return Vec::new();
        }
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, usize)> = Vec::new();
        for &x in &self.sorted {
            match out.last_mut() {
                Some((v, count)) if (x - *v).abs() <= tolerance => *count += 1,
                _ => out.push((x, 1)),
            }
        }
        out.into_iter().map(|(v, c)| (v, c as f64 / n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(samples: &[f64]) -> ResultDistribution {
        ResultDistribution::from_samples(samples)
    }

    #[test]
    fn moments() {
        let d = dist(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(d.len(), 5);
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.variance(), 2.5);
        assert!((d.std_dev() - 2.5f64.sqrt()).abs() < 1e-12);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 5.0);
    }

    #[test]
    fn nan_samples_are_dropped_and_counted() {
        let d = dist(&[1.0, f64::NAN, 3.0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.dropped_nan(), 1);
        assert_eq!(d.mean(), 2.0);
        let empty = dist(&[]);
        assert!(empty.is_empty());
        assert!(empty.mean().is_nan());
        assert!(empty.cdf(0.0).is_nan());
    }

    #[test]
    fn quantiles_use_ceil_rank_convention() {
        let d = dist(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(d.quantile(0.25).unwrap(), 10.0);
        assert_eq!(d.quantile(0.26).unwrap(), 20.0);
        assert_eq!(d.quantile(0.5).unwrap(), 20.0);
        assert_eq!(d.quantile(0.75).unwrap(), 30.0);
        assert_eq!(d.quantile(1.0).unwrap(), 40.0);
        assert_eq!(d.quantile(0.0).unwrap(), 10.0);
        assert!(d.quantile(1.5).is_err());
        assert!(dist(&[]).quantile(0.5).is_err());
    }

    #[test]
    fn empirical_cdf() {
        let d = dist(&[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(1.0), 0.25);
        assert_eq!(d.cdf(2.0), 0.75);
        assert_eq!(d.cdf(10.0), 1.0);
    }

    #[test]
    fn mean_confidence_interval_covers_truth() {
        // Samples from a known normal; the CI should cover the mean for this
        // fixed seed and have the right width scale.
        let mut gen = mcdbr_prng::Pcg64::new(5);
        let d = mcdbr_vg::Distribution::Normal {
            mean: 10.0,
            sd: 2.0,
        };
        let samples: Vec<f64> = (0..10_000).map(|_| d.sample(&mut gen)).collect();
        let rd = dist(&samples);
        let (lo, hi) = rd.mean_confidence_interval(0.95).unwrap();
        assert!(lo < 10.0 && 10.0 < hi, "CI ({lo}, {hi}) should cover 10");
        let width = hi - lo;
        let expected_width = 2.0 * 1.96 * 2.0 / (10_000f64).sqrt();
        assert!((width - expected_width).abs() < 0.02 * expected_width + 1e-3);
        assert!(dist(&[1.0]).mean_confidence_interval(0.95).is_err());
        assert!(rd.mean_confidence_interval(1.5).is_err());
    }

    #[test]
    fn conditioning_matches_domain_clause() {
        // §2: DOMAIN totalLoss >= QUANTILE(0.99) — conditioning keeps the top 1%.
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let rd = dist(&samples);
        let cutoff = rd.quantile(0.99).unwrap();
        let (tail, frac) = rd.condition(|x| x >= cutoff);
        assert!((frac - 0.01).abs() < 0.002);
        assert!(tail.min() >= cutoff);
        // With the ceil-rank convention the 0.99 cutoff of 0..999 is 989, so
        // eleven samples (989..=999) lie in the conditioned domain.
        assert_eq!(tail.len(), 11);
        // Expected shortfall of the tail = mean of retained samples.
        assert_eq!(tail.mean(), 994.0);
    }

    #[test]
    fn frequency_table_sums_to_one() {
        let d = dist(&[5.0, 5.0, 7.0, 9.0, 9.0, 9.0]);
        let ft = d.frequency_table(0.0);
        assert_eq!(ft.len(), 3);
        assert_eq!(ft[0], (5.0, 2.0 / 6.0));
        assert_eq!(ft[1], (7.0, 1.0 / 6.0));
        assert_eq!(ft[2], (9.0, 0.5));
        let total: f64 = ft.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(dist(&[]).frequency_table(0.0).is_empty());
        // With a tolerance, nearby values merge.
        let d = dist(&[1.0, 1.0000001, 2.0]);
        assert_eq!(d.frequency_table(1e-3).len(), 2);
    }
}
