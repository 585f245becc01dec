//! Order statistics the ledger reports: medians, quartiles, the percentile
//! rule, and the round-based throughput estimate.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), which is the
/// rule the acceptance check of this benchmark is stated in.  Needs at
/// least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two values");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile spread as a share of the median; 0 for fewer than two
/// values (nothing to spread).
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Nearest-rank percentile (`pct` in percent) over an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The percentile rule: the highest of the usual percentiles that still has
/// at least ten samples beyond it (220 samples → p95; 99 → p75), or the
/// median when even p75 has fewer.
pub fn tail_percentile(samples: usize) -> f64 {
    // (percentile, share of samples beyond it in 1/1000)
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|&(_, beyond)| samples * beyond >= 10_000)
        .map_or(50.0, |(pct, _)| pct)
}

/// Closed-loop throughput that one stall cannot move: completions (ns since
/// the timed section began, any order) are cut into rounds of `round`
/// consecutive completions and the median round rate is returned, in
/// operations per second.  With fewer completions than two rounds it falls
/// back to the plain count over wall clock.
pub fn round_rate(completions_ns: &[u64], round: usize) -> f64 {
    assert!(!completions_ns.is_empty() && round > 0);
    let mut stamps = completions_ns.to_vec();
    stamps.sort_unstable();
    let mut rates = Vec::new();
    let mut start = 0u64;
    for chunk in stamps.chunks_exact(round) {
        let end = chunk[round - 1];
        rates.push(round as f64 / ((end - start).max(1) as f64 / 1e9));
        start = end;
    }
    if rates.len() < 2 {
        return stamps.len() as f64 / (stamps[stamps.len() - 1].max(1) as f64 / 1e9);
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(220), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=220).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 110.0);
        assert_eq!(percentile(&xs, 95.0), 209.0);
        assert_eq!(
            xs.iter().filter(|&&x| x > percentile(&xs, 95.0)).count(),
            11
        );
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(spread(&[4.0]), 0.0);
    }

    #[test]
    fn round_rate_ignores_one_stall() {
        // 40 completions 10 ms apart, with one 2 s stall in the middle.
        let mut t = 0u64;
        let stamps: Vec<u64> = (0..40)
            .map(|i| {
                t += if i == 20 { 2_000_000_000 } else { 10_000_000 };
                t
            })
            .collect();
        assert!((round_rate(&stamps, 5) - 100.0).abs() < 1e-9);
        // Too few completions for two rounds: count over wall clock.
        assert!((round_rate(&[500_000_000], 5) - 2.0).abs() < 1e-9);
    }
}
