//! The Normal sampler and the oracles against committed reference tables.
//!
//! `data/normal_quantile.txt` holds 64 probabilities with their standard
//! normal quantiles from Python's `statistics.NormalDist().inv_cdf` (AS241),
//! and `data/erfc.txt` holds `math.erfc` at 27 points out to the deep tail.
//! Both are printed with 17 significant digits, so each parses back to the
//! exact `f64` Python computed.

use mcdbr_vg::math::{erf, erfc, std_normal_cdf, std_normal_quantile};

fn table(text: &str) -> Vec<(f64, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let mut cols = l.split_whitespace().map(|c| c.parse::<f64>().unwrap());
            (cols.next().unwrap(), cols.next().unwrap())
        })
        .collect()
}

/// Distance in units in the last place between two finite doubles of the
/// same sign.
fn ulps(a: f64, b: f64) -> u64 {
    assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
    a.to_bits().abs_diff(b.to_bits())
}

#[test]
fn quantile_is_within_one_ulp_of_the_reference() {
    let rows = table(include_str!("data/normal_quantile.txt"));
    assert_eq!(rows.len(), 64);
    for (p, want) in rows {
        let got = std_normal_quantile(p);
        assert!(
            ulps(got, want) <= 1,
            "Φ⁻¹({p:e}) = {got:e}, reference {want:e}"
        );
    }
}

#[test]
fn quantile_is_zero_at_one_half_and_odd_at_dyadic_p() {
    assert_eq!(std_normal_quantile(0.5).to_bits(), 0.0f64.to_bits());
    for k in 2..=53 {
        let p = 2f64.powi(-k);
        assert_eq!(
            std_normal_quantile(1.0 - p),
            -std_normal_quantile(p),
            "p = 2^-{k}"
        );
    }
    for j in 1..1024 {
        let p = j as f64 / 1024.0;
        assert_eq!(
            std_normal_quantile(1.0 - p),
            -std_normal_quantile(p),
            "p = {j}/1024"
        );
    }
}

#[test]
fn erfc_is_within_a_few_ulp_of_the_reference() {
    let rows = table(include_str!("data/erfc.txt"));
    assert!(rows.iter().any(|&(x, _)| x >= 26.0));
    for (x, want) in rows {
        let got = erfc(x);
        // Cody's erfc is within 7 ulp of `math.erfc` over 100 000 uniform
        // x in [0.4, 26.5], 0.8 on average; a wrong coefficient digit costs
        // far more.
        assert!(
            ulps(got, want) <= 8,
            "erfc({x:e}) = {got:e}, reference {want:e}"
        );
        // erf is 1 − erfc and shares its branches.
        assert!(
            (erf(x) - (1.0 - want)).abs() <= 4.0 * f64::EPSILON,
            "erf({x:e})"
        );
    }
    assert_eq!(erfc(27.0), 0.0);
    assert_eq!(erfc(-27.0), 2.0);
}

#[test]
fn the_cdf_inverts_the_quantile() {
    let rows = table(include_str!("data/normal_quantile.txt"));
    for (p, x) in rows.into_iter().filter(|&(p, _)| p >= f64::MIN_POSITIVE) {
        let back = std_normal_cdf(x);
        // Relative below ½, where an ulp of x (and of x/√2) moves Φ by ~x²
        // ulp; absolute above it, where Φ is within an ulp of 1.
        let tol = if p < 0.5 {
            f64::EPSILON * (4.0 + 2.0 * x * x) * p
        } else {
            2.0 * f64::EPSILON
        };
        assert!((back - p).abs() <= tol, "Φ(Φ⁻¹({p:e})) = {back:e}");
    }
}
