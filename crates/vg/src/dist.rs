//! Scalar probability distributions: sampling, moments, and CDFs.
//!
//! [`Distribution`] is the palette the VG functions draw from, and it is also
//! used directly by the Gibbs rejection sampler in `mcdbr-core` (paper
//! Algorithm 2 repeatedly draws candidates "according to h_i" until one is
//! accepted) and by the applicability experiments of Appendix B, which
//! contrast light-tailed (Normal) with heavy-tailed (Lognormal, Pareto)
//! marginals.

use mcdbr_prng::Pcg64;

use crate::math::{gamma_cdf, inverse_gamma_cdf, normal_cdf, std_normal_quantile};

/// A scalar distribution.
///
/// Sampling is *inverse-CDF based wherever possible* so that a single stream
/// uniform maps monotonically to a sample.  Distributions that need more than
/// one uniform (Gamma, Poisson) simply consume more from the supplied
/// generator; MCDB-R's stream abstraction hands each stream position its own
/// sub-generator precisely so this is safe.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Degenerate distribution: always `value`.  Used to model deterministic
    /// attributes uniformly ("we treat each deterministic data value c as a
    /// random variable that is equal to c with probability 1", paper §3.3).
    Constant { value: f64 },
    /// Normal with the given mean and standard deviation.
    Normal { mean: f64, sd: f64 },
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given rate (mean `1/rate`).
    Exponential { rate: f64 },
    /// Lognormal: `exp(N(mu, sigma))`. Heavy-tailed (subexponential).
    Lognormal { mu: f64, sigma: f64 },
    /// Pareto with minimum `scale` and tail index `shape`.  Heavy-tailed.
    Pareto { scale: f64, shape: f64 },
    /// Gamma with the given shape and scale (mean `shape * scale`).
    Gamma { shape: f64, scale: f64 },
    /// Inverse gamma with the given shape and scale, as used for the
    /// Appendix D hyper-priors on per-order means and variances.
    InverseGamma { shape: f64, scale: f64 },
    /// Poisson with the given mean.
    Poisson { lambda: f64 },
    /// Bernoulli with success probability `p` (samples are 0.0 or 1.0).
    Bernoulli { p: f64 },
}

impl Distribution {
    /// Draw one sample using (and advancing) the supplied generator.
    pub fn sample(&self, gen: &mut Pcg64) -> f64 {
        match *self {
            Distribution::Constant { value } => value,
            Distribution::Normal { mean, sd } => {
                mean + sd * std_normal_quantile(gen.next_f64_open())
            }
            Distribution::Uniform { lo, hi } => lo + (hi - lo) * gen.next_f64(),
            Distribution::Exponential { rate } => -gen.next_f64_open().ln() / rate,
            Distribution::Lognormal { mu, sigma } => {
                (mu + sigma * std_normal_quantile(gen.next_f64_open())).exp()
            }
            Distribution::Pareto { scale, shape } => scale * gen.next_f64_open().powf(-1.0 / shape),
            Distribution::Gamma { shape, scale } => sample_gamma(gen, shape) * scale,
            Distribution::InverseGamma { shape, scale } => scale / sample_gamma(gen, shape),
            Distribution::Poisson { lambda } => sample_poisson(gen, lambda) as f64,
            Distribution::Bernoulli { p } => {
                if gen.next_f64() < p {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The distribution's mean, where it exists (`None` otherwise, e.g. a
    /// Pareto with shape ≤ 1).
    pub fn mean(&self) -> Option<f64> {
        match *self {
            Distribution::Constant { value } => Some(value),
            Distribution::Normal { mean, .. } => Some(mean),
            Distribution::Uniform { lo, hi } => Some(0.5 * (lo + hi)),
            Distribution::Exponential { rate } => Some(1.0 / rate),
            Distribution::Lognormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
            Distribution::Pareto { scale, shape } => {
                (shape > 1.0).then(|| shape * scale / (shape - 1.0))
            }
            Distribution::Gamma { shape, scale } => Some(shape * scale),
            Distribution::InverseGamma { shape, scale } => {
                (shape > 1.0).then(|| scale / (shape - 1.0))
            }
            Distribution::Poisson { lambda } => Some(lambda),
            Distribution::Bernoulli { p } => Some(p),
        }
    }

    /// The distribution's variance, where it exists.
    pub fn variance(&self) -> Option<f64> {
        match *self {
            Distribution::Constant { .. } => Some(0.0),
            Distribution::Normal { sd, .. } => Some(sd * sd),
            Distribution::Uniform { lo, hi } => Some((hi - lo) * (hi - lo) / 12.0),
            Distribution::Exponential { rate } => Some(1.0 / (rate * rate)),
            Distribution::Lognormal { mu, sigma } => {
                let s2 = sigma * sigma;
                Some((s2.exp() - 1.0) * (2.0 * mu + s2).exp())
            }
            Distribution::Pareto { scale, shape } => (shape > 2.0)
                .then(|| scale * scale * shape / ((shape - 1.0) * (shape - 1.0) * (shape - 2.0))),
            Distribution::Gamma { shape, scale } => Some(shape * scale * scale),
            Distribution::InverseGamma { shape, scale } => (shape > 2.0)
                .then(|| scale * scale / ((shape - 1.0) * (shape - 1.0) * (shape - 2.0))),
            Distribution::Poisson { lambda } => Some(lambda),
            Distribution::Bernoulli { p } => Some(p * (1.0 - p)),
        }
    }

    /// The CDF at `x`, where a closed(-ish) form is available.
    pub fn cdf(&self, x: f64) -> Option<f64> {
        match *self {
            Distribution::Constant { value } => Some(if x >= value { 1.0 } else { 0.0 }),
            Distribution::Normal { mean, sd } => Some(normal_cdf(x, mean, sd)),
            Distribution::Uniform { lo, hi } => Some(((x - lo) / (hi - lo)).clamp(0.0, 1.0)),
            Distribution::Exponential { rate } => Some(if x <= 0.0 {
                0.0
            } else {
                1.0 - (-rate * x).exp()
            }),
            Distribution::Lognormal { mu, sigma } => Some(if x <= 0.0 {
                0.0
            } else {
                normal_cdf(x.ln(), mu, sigma)
            }),
            Distribution::Pareto { scale, shape } => Some(if x < scale {
                0.0
            } else {
                1.0 - (scale / x).powf(shape)
            }),
            Distribution::Gamma { shape, scale } => Some(gamma_cdf(x, shape, scale)),
            Distribution::InverseGamma { shape, scale } => Some(inverse_gamma_cdf(x, shape, scale)),
            Distribution::Poisson { .. } | Distribution::Bernoulli { .. } => None,
        }
    }
}

/// Marsaglia–Tsang squeeze method for Gamma(shape, 1).
///
/// For `shape < 1` the standard boost `Gamma(shape) = Gamma(shape + 1) * U^{1/shape}`
/// is applied.
fn sample_gamma(gen: &mut Pcg64, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive, got {shape}");
    if shape < 1.0 {
        let u = gen.next_f64_open();
        return sample_gamma(gen, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = std_normal_quantile(gen.next_f64_open());
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u = gen.next_f64_open();
        if u < 1.0 - 0.0331 * x * x * x * x {
            return d * v3;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// Poisson sampling: Knuth's product-of-uniforms method for small `lambda`,
/// and a Gamma–Poisson decomposition for large `lambda` that reduces the
/// problem to a small residual mean (exact, unlike a normal approximation).
fn sample_poisson(gen: &mut Pcg64, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0,
        "poisson mean must be non-negative, got {lambda}"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Decompose: if X ~ Gamma(k, 1) for integer k <= lambda, then either
        // X > lambda (all remaining arrivals fall past the horizon, so the
        // count is < k and we recurse on a Binomial-style thinning), or the
        // count is k plus a Poisson(lambda - X).  This is the classic
        // Ahrens–Dieter reduction and stays exact for arbitrary lambda.
        let k = (lambda * 7.0 / 8.0).floor().max(1.0);
        let x = sample_gamma(gen, k);
        return if x > lambda {
            // Fewer than k arrivals by "time" lambda: binomial thinning.
            sample_binomial(gen, k as u64 - 1, lambda / x)
        } else {
            k as u64 + sample_poisson(gen, lambda - x)
        };
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= gen.next_f64_open();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Direct Binomial(n, p) sampling by counting Bernoulli successes (only used
/// by the Poisson reduction above, where n is small).
fn sample_binomial(gen: &mut Pcg64, n: u64, p: f64) -> u64 {
    (0..n).filter(|_| gen.next_f64() < p).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(dist: &Distribution, n: usize, seed: u64) -> (f64, f64) {
        let mut gen = Pcg64::new(seed);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = dist.sample(&mut gen);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        (mean, sumsq / n as f64 - mean * mean)
    }

    #[test]
    fn normal_moments() {
        let d = Distribution::Normal { mean: 3.0, sd: 2.0 };
        let (mean, var) = sample_stats(&d, 100_000, 1);
        assert!((mean - 3.0).abs() < 0.03, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.1, "var = {var}");
        assert_eq!(d.mean(), Some(3.0));
        assert_eq!(d.variance(), Some(4.0));
    }

    #[test]
    fn uniform_and_exponential_moments() {
        let u = Distribution::Uniform { lo: 2.0, hi: 6.0 };
        let (mean, var) = sample_stats(&u, 100_000, 2);
        assert!((mean - 4.0).abs() < 0.02);
        assert!((var - 16.0 / 12.0).abs() < 0.05);

        let e = Distribution::Exponential { rate: 0.5 };
        let (mean, var) = sample_stats(&e, 100_000, 3);
        assert!((mean - 2.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.3);
    }

    #[test]
    fn gamma_moments() {
        for &(shape, scale) in &[(0.5, 2.0), (3.0, 1.0), (3.0, 0.5), (9.0, 0.25)] {
            let d = Distribution::Gamma { shape, scale };
            let (mean, var) = sample_stats(&d, 120_000, 4);
            assert!(
                (mean - shape * scale).abs() < 0.05 * (1.0 + shape * scale),
                "gamma({shape},{scale}) mean = {mean}"
            );
            assert!(
                (var - shape * scale * scale).abs() < 0.12 * (1.0 + shape * scale * scale),
                "gamma({shape},{scale}) var = {var}"
            );
        }
    }

    #[test]
    fn inverse_gamma_matches_appendix_d_hyper_prior() {
        // Appendix D: means are InverseGamma(shape 3, scale 1) => mean 0.5,
        // variance 0.25; variances use InverseGamma(3, 0.5) => mean 0.25.
        let d = Distribution::InverseGamma {
            shape: 3.0,
            scale: 1.0,
        };
        let (mean, _) = sample_stats(&d, 200_000, 5);
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
        assert_eq!(d.mean(), Some(0.5));
        let d2 = Distribution::InverseGamma {
            shape: 3.0,
            scale: 0.5,
        };
        assert_eq!(d2.mean(), Some(0.25));
    }

    #[test]
    fn poisson_moments_small_and_large_lambda() {
        for &lambda in &[0.5, 4.0, 30.0, 120.0] {
            let d = Distribution::Poisson { lambda };
            let (mean, var) = sample_stats(&d, 60_000, 6);
            assert!(
                (mean - lambda).abs() < 0.05 * lambda + 0.05,
                "λ={lambda}, mean={mean}"
            );
            assert!(
                (var - lambda).abs() < 0.12 * lambda + 0.2,
                "λ={lambda}, var={var}"
            );
        }
        let mut gen = Pcg64::new(1);
        assert_eq!(Distribution::Poisson { lambda: 0.0 }.sample(&mut gen), 0.0);
    }

    #[test]
    fn bernoulli_and_constant() {
        let d = Distribution::Bernoulli { p: 0.3 };
        let (mean, _) = sample_stats(&d, 100_000, 7);
        assert!((mean - 0.3).abs() < 0.01);
        let c = Distribution::Constant { value: 42.0 };
        let mut gen = Pcg64::new(1);
        assert_eq!(c.sample(&mut gen), 42.0);
        assert_eq!(c.variance(), Some(0.0));
    }

    #[test]
    fn lognormal_and_pareto_are_heavy_tailed() {
        let ln = Distribution::Lognormal {
            mu: 0.0,
            sigma: 1.0,
        };
        let pa = Distribution::Pareto {
            scale: 1.0,
            shape: 2.5,
        };
        let (mean, _) = sample_stats(&ln, 200_000, 8);
        assert!(
            (mean - (0.5f64).exp()).abs() < 0.05,
            "lognormal mean = {mean}"
        );
        let (mean, _) = sample_stats(&pa, 200_000, 9);
        assert!((mean - 2.5 / 1.5).abs() < 0.05, "pareto mean = {mean}");
        // Undefined moments are None.
        assert_eq!(
            Distribution::Pareto {
                scale: 1.0,
                shape: 0.5
            }
            .mean(),
            None
        );
        assert_eq!(
            Distribution::Pareto {
                scale: 1.0,
                shape: 1.5
            }
            .variance(),
            None
        );
    }

    #[test]
    fn cdf_agrees_with_empirical_fraction() {
        let cases = vec![
            (Distribution::Normal { mean: 1.0, sd: 2.0 }, 2.0),
            (Distribution::Exponential { rate: 1.5 }, 0.7),
            (
                Distribution::Gamma {
                    shape: 3.0,
                    scale: 0.5,
                },
                1.2,
            ),
            (
                Distribution::InverseGamma {
                    shape: 3.0,
                    scale: 1.0,
                },
                0.6,
            ),
            (
                Distribution::Lognormal {
                    mu: 0.0,
                    sigma: 0.5,
                },
                1.3,
            ),
            (
                Distribution::Pareto {
                    scale: 1.0,
                    shape: 3.0,
                },
                1.8,
            ),
            (Distribution::Uniform { lo: 0.0, hi: 4.0 }, 2.5),
        ];
        for (dist, x) in cases {
            let mut gen = Pcg64::new(10);
            let n = 60_000;
            let frac = (0..n).filter(|_| dist.sample(&mut gen) <= x).count() as f64 / n as f64;
            let cdf = dist.cdf(x).unwrap();
            assert!(
                (frac - cdf).abs() < 0.02,
                "{dist:?} at {x}: empirical {frac}, cdf {cdf}"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Distribution::Gamma {
            shape: 2.0,
            scale: 1.0,
        };
        let mut a = Pcg64::new(99);
        let mut b = Pcg64::new(99);
        for _ in 0..50 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    fn normal_sampling_is_monotone_in_the_uniform() {
        // Because Normal uses inverse-CDF sampling, a larger stream uniform
        // must give a larger sample.  This property is what makes the §4.2
        // worked example's "try the next stream value" stepping predictable.
        use crate::math::std_normal_quantile;
        let lo = 3.0 + 1.0 * std_normal_quantile(0.2);
        let hi = 3.0 + 1.0 * std_normal_quantile(0.8);
        assert!(lo < hi);
    }
}
