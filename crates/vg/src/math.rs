//! Special functions needed by the samplers and the analytic oracles.
//!
//! Everything here is implemented from scratch from published algorithms, so
//! the repository has no external numerics dependency and the MCDB-R analytic
//! validation (paper Appendix D, Fig. 5) controls its own precision:
//!
//! * [`std_normal_quantile`] is Wichura's AS241 (PPND16), good to full double
//!   precision; it is the transform behind every Normal variate.
//! * [`erf`] and [`erfc`] are Cody's rational Chebyshev approximations
//!   (SPECFUN `CALERF`), good to a few ulp, so `Φ(Φ⁻¹(p))` round-trips and
//!   the oracles agree with the sampler to ~1e-16.
//! * [`ln_gamma`] (Lanczos) and [`regularized_gamma_p`] (Numerical Recipes)
//!   serve the Gamma / Inverse-Gamma oracles.
//!
//! `crates/vg/tests/normal_reference.rs` checks the first two against
//! tables computed by Python's `statistics.NormalDist().inv_cdf` and
//! `math.erfc`.

// Tabulated coefficients (Wichura, Cody, Lanczos) are kept at published
// precision.
#![allow(clippy::excessive_precision)]

/// Evaluates the polynomial with coefficients `c` (highest degree first) at
/// `x` by Horner's rule.
#[inline(always)]
fn poly<const N: usize>(x: f64, c: &[f64; N]) -> f64 {
    let mut acc = c[0];
    for &k in &c[1..] {
        acc = acc * x + k;
    }
    acc
}

/// `|x|` up to which [`erf`] is one rational in `x²`; past it, [`erfc`] is
/// computed directly.
const ERF_SPLIT: f64 = 0.46875;

/// `|x|` from which `erfc(x)` underflows to zero.
const ERFC_UNDERFLOW: f64 = 26.543;

/// `1 / √π`.
const FRAC_1_SQRT_PI: f64 = 0.56418958354775628695;

/// The error function `erf(x)` (Cody 1969): within 2.3e-16 absolute of
/// Python's `math.erf` over 20 000 points in [−6, 6].
pub fn erf(x: f64) -> f64 {
    // erf(x) = x · A(x²) / B(x²) on |x| <= 0.46875.
    const A: [f64; 5] = [
        1.85777706184603153e-1,
        3.16112374387056560e00,
        1.13864154151050156e02,
        3.77485237685302021e02,
        3.20937758913846947e03,
    ];
    const B: [f64; 5] = [
        1.0,
        2.36012909523441209e01,
        2.44024637934444173e02,
        1.28261652607737228e03,
        2.84423683343917062e03,
    ];
    if x.abs() <= ERF_SPLIT {
        let x2 = x * x;
        x * poly(x2, &A) / poly(x2, &B)
    } else {
        ((0.5 - erfc(x.abs())) + 0.5).copysign(x)
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`, computed
/// without cancellation (Cody 1969): within 7 ulp relative of Python's
/// `math.erfc` (0.8 on average) over 100 000 points in [0.4, 26.5], deep
/// tail included (`erfc(26) ≈ 5.7e-296`); zero from `x ≈ 26.54` on.
pub fn erfc(x: f64) -> f64 {
    // erfc(y) = exp(-y²) · C(y) / D(y) on 0.46875 < y <= 4.
    const C: [f64; 9] = [
        2.15311535474403846e-8,
        5.64188496988670089e-1,
        8.88314979438837594e00,
        6.61191906371416295e01,
        2.98635138197400131e02,
        8.81952221241769090e02,
        1.71204761263407058e03,
        2.05107837782607147e03,
        1.23033935479799725e03,
    ];
    const D: [f64; 9] = [
        1.0,
        1.57449261107098347e01,
        1.17693950891312499e02,
        5.37181101862009858e02,
        1.62138957456669019e03,
        3.29079923573345963e03,
        4.36261909014324716e03,
        3.43936767414372164e03,
        1.23033935480374942e03,
    ];
    // erfc(y) = exp(-y²) / y · (1/√π − z · P(z) / Q(z)), z = 1/y², on y > 4.
    const P: [f64; 6] = [
        1.63153871373020978e-2,
        3.05326634961232344e-1,
        3.60344899949804439e-1,
        1.25781726111229246e-1,
        1.60837851487422766e-2,
        6.58749161529837803e-4,
    ];
    const Q: [f64; 6] = [
        1.0,
        2.56852019228982242e00,
        1.87295284992346725e00,
        5.27905102951428412e-1,
        6.05183413124413191e-2,
        2.33520497626869185e-3,
    ];
    let y = x.abs();
    if y <= ERF_SPLIT {
        return 1.0 - erf(x);
    }
    let upper = if y <= 4.0 {
        poly(y, &C) / poly(y, &D) * exp_neg_square(y)
    } else if y >= ERFC_UNDERFLOW {
        0.0
    } else {
        let z = 1.0 / (y * y);
        (FRAC_1_SQRT_PI - z * poly(z, &P) / poly(z, &Q)) / y * exp_neg_square(y)
    };
    if x < 0.0 {
        2.0 - upper
    } else {
        upper
    }
}

/// `exp(-y²)` without the error of rounding `y²`: `y` is split at a
/// multiple of 1/16, whose square is exact (Cody).
fn exp_neg_square(y: f64) -> f64 {
    let head = (y * 16.0).trunc() / 16.0;
    let tail = (y - head) * (y + head);
    (-head * head).exp() * (-tail).exp()
}

/// CDF of the standard normal distribution, `Φ(x) = erfc(−x/√2) / 2`:
/// within a few ulp relative in the body and the upper tail, and within
/// ~`x²` ulp relative in the lower tail (the rounding of `x/√2`).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// CDF of a `Normal(mean, sd)` distribution.
pub fn normal_cdf(x: f64, mean: f64, sd: f64) -> f64 {
    std_normal_cdf((x - mean) / sd)
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Wichura's AS241 (PPND16, *Appl. Statist.* 37, 1988), evaluated term for
/// term as Python's `statistics.NormalDist().inv_cdf` does (bit-equal to it
/// on 28 000 random `p` down to 1e-300): relative error about 1e-16 over
/// the whole open unit interval, `Φ⁻¹(0.5) = 0` and
/// `Φ⁻¹(1 − p) = −Φ⁻¹(p)` whenever `1 − p` is exact.  For `|p − ½| <= 0.425`
/// (85 % of uniform draws) it is one rational in `(p − ½)²`, with no `exp`
/// or `log`; in the tails it is a rational in `√(−ln min(p, 1 − p))`.
///
/// This is the workhorse of the `Normal` VG function — every normal variate
/// in the system is `mean + sd * std_normal_quantile(u)` for a stream uniform
/// `u`, which makes values monotone in `u` and therefore easy to reason about
/// in tests.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");

    // |q| <= 0.425: q · A(r) / B(r), r = 0.425² − q².
    const A: [f64; 8] = [
        2.5090809287301226727e+3,
        3.3430575583588128105e+4,
        6.7265770927008700853e+4,
        4.5921953931549871457e+4,
        1.3731693765509461125e+4,
        1.9715909503065514427e+3,
        1.3314166789178437745e+2,
        3.3871328727963666080e+0,
    ];
    const B: [f64; 8] = [
        5.2264952788528545610e+3,
        2.8729085735721942674e+4,
        3.9307895800092710610e+4,
        2.1213794301586595867e+4,
        5.3941960214247511077e+3,
        6.8718700749205790830e+2,
        4.2313330701600911252e+1,
        1.0,
    ];
    // r = √(−ln min(p, 1 − p)) <= 5: C(r − 1.6) / D(r − 1.6).
    const C: [f64; 8] = [
        7.74545014278341407640e-4,
        2.27238449892691845833e-2,
        2.41780725177450611770e-1,
        1.27045825245236838258e+0,
        3.64784832476320460504e+0,
        5.76949722146069140550e+0,
        4.63033784615654529590e+0,
        1.42343711074968357734e+0,
    ];
    const D: [f64; 8] = [
        1.05075007164441684324e-9,
        5.47593808499534494600e-4,
        1.51986665636164571966e-2,
        1.48103976427480074590e-1,
        6.89767334985100004550e-1,
        1.67638483018380384940e+0,
        2.05319162663775882187e+0,
        1.0,
    ];
    // r > 5: E(r − 5) / F(r − 5).
    const E: [f64; 8] = [
        2.01033439929228813265e-7,
        2.71155556874348757815e-5,
        1.24266094738807843860e-3,
        2.65321895265761230930e-2,
        2.96560571828504891230e-1,
        1.78482653991729133580e+0,
        5.46378491116411436990e+0,
        6.65790464350110377720e+0,
    ];
    const F: [f64; 8] = [
        2.04426310338993978564e-15,
        1.42151175831644588870e-7,
        1.84631831751005468180e-5,
        7.86869131145613259100e-4,
        1.48753612908506148525e-2,
        1.36929880922735805310e-1,
        5.99832206555887937690e-1,
        1.0,
    ];

    let q = p - 0.5;
    if q.abs() <= 0.425 {
        let r = 0.180625 - q * q;
        return poly(r, &A) * q / poly(r, &B);
    }
    let r = (-(if q <= 0.0 { p } else { 1.0 - p }).ln()).sqrt();
    let x = if r <= 5.0 {
        let r = r - 1.6;
        poly(r, &C) / poly(r, &D)
    } else {
        let r = r - 5.0;
        poly(r, &E) / poly(r, &F)
    };
    if q < 0.0 {
        -x
    } else {
        x
    }
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

    /// `a` is within `ulps` units in the last place of `b`, relatively.
    fn assert_ulps(a: f64, b: f64, ulps: f64) {
        let tol = ulps * f64::EPSILON * b.abs();
        assert!((a - b).abs() <= tol, "{a:e} vs {b:e} (tol {ulps} ulp)");
    }

    // Reference values are Python's `math.erf` and `0.5 * math.erfc(-x / √2)`
    // printed to 17 digits; the bounds are the module docs' "a few ulp".
    // The 1.2e-7 `erf` these functions replaced fails every one of them.

    #[test]
    fn erf_known_values() {
        assert_eq!(erf(0.0), 0.0);
        assert_ulps(erf(1.0), 0.8427007929497149, 4.0);
        assert_ulps(erf(-1.0), -0.8427007929497149, 4.0);
        assert_ulps(erf(2.0), 0.9953222650189527, 4.0);
        assert_ulps(erf(3.0), 0.9999779095030014, 4.0);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert_eq!(std_normal_cdf(0.0), 0.5);
        assert_ulps(std_normal_cdf(1.0), 0.8413447460685429, 8.0);
        assert_ulps(std_normal_cdf(-1.96), 0.024997895148220435, 8.0);
        assert_ulps(std_normal_cdf(3.09), 0.9989992175233859, 8.0);
        assert_eq!(normal_cdf(15.0e6, 10.0e6, 1.0e6), std_normal_cdf(5.0));
    }

    /// `Φ(Φ⁻¹(p))` returns `p` to ~1e-16 in the body; in the lower tail the
    /// quantile's ~1e-16 relative error is amplified by `φ(x)|x| / p`
    /// (about 10 at `p = 0.001`), so the bound is 1e-14 relative.
    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.99902] {
            let x = std_normal_quantile(p);
            assert_close(std_normal_cdf(x), p, 1e-14 * p);
        }
        // The paper's running value: the 0.999 quantile of a standard normal
        // is about 3.090 (Appendix C); Python's `inv_cdf(0.999)` exactly.
        assert_eq!(std_normal_quantile(0.999), 3.090232306167813);
        assert_eq!(normal_quantile(0.5, 7.0, 2.0), 7.0);
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
                // As `normal_quantile_inverts_cdf`, plus the rounding of
                // `mean + sd·z` and `(x − mean) / sd` (~2e-15 in `z` at a
                // mean of 1e7).
                assert_close(normal_cdf(x, mean, sd), p, 1e-14 * p);
            }
        }
    }
}
