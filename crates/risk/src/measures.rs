//! Risk measures over Monte Carlo samples.

use mcdbr_storage::{Error, Result};

/// Value at risk: the `(1-p)`-quantile of the loss samples (the probabilistic
/// worst-case scenario of paper §1).  Uses the same ceil-rank order-statistic
/// convention as the rest of the system.  NaN samples are rejected, as by
/// [`EmpiricalCdf::new`].
pub fn value_at_risk(samples: &[f64], p: f64) -> Result<f64> {
    if samples.is_empty() {
        return Err(Error::InvalidOperation("VaR of an empty sample set".into()));
    }
    if !(0.0 < p && p < 1.0) {
        return Err(Error::InvalidOperation(format!(
            "tail probability {p} outside (0,1)"
        )));
    }
    let sorted = EmpiricalCdf::new(samples)?.sorted;
    let n = sorted.len();
    let rank = (((1.0 - p) * n as f64).ceil() as usize).clamp(1, n);
    Ok(sorted[rank - 1])
}

/// Expected shortfall: the mean loss, given that the loss is at least
/// `threshold` (paper §1-§2: "the expected total loss, given that this loss
/// exceeds θ", computed in §2 as `SUM(totalLoss * FRAC)` over the tail
/// frequency table).
pub fn expected_shortfall(samples: &[f64], threshold: f64) -> Result<f64> {
    let tail: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|&x| x >= threshold)
        .collect();
    if tail.is_empty() {
        return Err(Error::InvalidOperation(format!(
            "no samples at or above the threshold {threshold}"
        )));
    }
    Ok(tail.iter().sum::<f64>() / tail.len() as f64)
}

/// An empirical CDF over a fixed sample set.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Build from samples (NaNs are rejected).
    pub fn new(samples: &[f64]) -> Result<Self> {
        if samples.iter().any(|x| x.is_nan()) {
            return Err(Error::InvalidOperation(
                "empirical CDF over NaN samples".into(),
            ));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ok(EmpiricalCdf { sorted })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F̂(x)`: fraction of samples ≤ x.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// The sorted samples with their plotting positions `(x_(i), i/n)` —
    /// the series plotted in Figure 5.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// Kolmogorov–Smirnov distance to a reference CDF.
    pub fn ks_distance(&self, reference: impl Fn(f64) -> f64) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = reference(x);
            let hi = (i + 1) as f64 / n;
            let lo = i as f64 / n;
            d = d.max((f - lo).abs()).max((hi - f).abs());
        }
        d
    }
}

/// Summary of a set of tail samples: the statistics MCDB-R reports for a
/// `DOMAIN totalLoss >= QUANTILE(1-p)` query.
#[derive(Debug, Clone)]
pub struct TailSummary {
    /// The estimated VaR (lower boundary of the tail).
    pub value_at_risk: f64,
    /// The expected shortfall over the tail samples.
    pub expected_shortfall: f64,
    /// Number of tail samples.
    pub samples: usize,
    /// Smallest and largest tail sample.
    pub range: (f64, f64),
}

impl TailSummary {
    /// Summarize a set of samples that are already conditioned on the tail
    /// (the output of MCDB-R's tail sampler): the VaR estimate is the
    /// smallest sample, matching the paper's `SELECT MIN(totalLoss) FROM
    /// FTABLE` recipe.
    pub fn from_tail_samples(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(Error::InvalidOperation("empty tail sample set".into()));
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok(TailSummary {
            value_at_risk: min,
            expected_shortfall: samples.iter().sum::<f64>() / samples.len() as f64,
            samples: samples.len(),
            range: (min, max),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_is_the_order_statistic() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(value_at_risk(&samples, 0.05).unwrap(), 95.0);
        assert_eq!(value_at_risk(&samples, 0.5).unwrap(), 50.0);
        assert!(value_at_risk(&[], 0.1).is_err());
        assert!(value_at_risk(&samples, 0.0).is_err());
        assert!(value_at_risk(&samples, 1.0).is_err());
    }

    #[test]
    fn var_of_a_nan_sample_is_a_typed_error() {
        let err = value_at_risk(&[1.0, f64::NAN, 2.0], 0.5).unwrap_err();
        assert!(matches!(err, Error::InvalidOperation(_)), "{err}");
    }

    #[test]
    fn expected_shortfall_is_the_tail_mean() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let var = value_at_risk(&samples, 0.05).unwrap();
        let es = expected_shortfall(&samples, var).unwrap();
        // Mean of 95..=100 is 97.5.
        assert_eq!(es, 97.5);
        assert!(es >= var);
        assert!(expected_shortfall(&samples, 1e9).is_err());
    }

    #[test]
    fn empirical_cdf_evaluation_and_points() {
        let cdf = EmpiricalCdf::new(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(2.0), 0.5);
        assert_eq!(cdf.eval(10.0), 1.0);
        let pts = cdf.points();
        assert_eq!(pts[0], (1.0, 0.25));
        assert_eq!(pts[3], (4.0, 1.0));
        assert!(EmpiricalCdf::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn ks_distance_against_the_generating_distribution_is_small() {
        let mut gen = mcdbr_prng::Pcg64::new(3);
        let d = mcdbr_vg::Distribution::Normal { mean: 0.0, sd: 1.0 };
        let samples: Vec<f64> = (0..5000).map(|_| d.sample(&mut gen)).collect();
        let cdf = EmpiricalCdf::new(&samples).unwrap();
        let ks = cdf.ks_distance(mcdbr_vg::math::std_normal_cdf);
        // The 1% critical value for n = 5000 is about 1.63/sqrt(n) ≈ 0.023.
        assert!(ks < 0.023, "KS distance {ks} too large");
        // Against a shifted reference the distance must be much larger.
        let ks_wrong = cdf.ks_distance(|x| mcdbr_vg::math::std_normal_cdf(x - 1.0));
        assert!(ks_wrong > 0.3);
    }

    #[test]
    fn tail_summary_matches_the_paper_recipes() {
        // §2: VaR = MIN(totalLoss) over the tail samples; expected shortfall
        // = the FRAC-weighted mean.
        let tail = vec![15.2e6, 15.9e6, 15.4e6, 16.4e6];
        let summary = TailSummary::from_tail_samples(&tail).unwrap();
        assert_eq!(summary.value_at_risk, 15.2e6);
        assert_eq!(summary.samples, 4);
        assert_eq!(summary.range, (15.2e6, 16.4e6));
        assert!((summary.expected_shortfall - 15.725e6).abs() < 1.0);
        assert!(TailSummary::from_tail_samples(&[]).is_err());
    }
}
