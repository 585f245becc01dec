//! Experiment E2: quantile-estimation accuracy (Appendix D).
//!
//! 20 runs of MCDB-R on the Appendix D workload; reports the mean quantile
//! estimate, the empirical standard error, and the true quantile — the
//! numbers the paper reports as 5.0728e5 / 265 / 5.0738e5 at full scale.

use mcdbr_bench::{appendix_d_config, row, run_tail_sampling};
use mcdbr_workloads::{TpchConfig, TpchWorkload};

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "test".into());
    let (config, runs, budget) = match scale.as_str() {
        "paper" => (TpchConfig::paper_scale(), 20, 1000),
        "laptop" => (TpchConfig::laptop_scale(), 20, 1000),
        _ => (TpchConfig::test_scale(), 8, 400),
    };
    let w = TpchWorkload::generate(config).expect("workload");
    let p = 0.25f64.powi(5);
    let true_q = w.oracle.quantile(1.0 - p);
    let mut estimates = Vec::new();
    for run in 0..runs {
        let cfg = appendix_d_config(budget, 5_000 + run as u64);
        let result = run_tail_sampling(&w.total_loss_query(), &w.catalog, cfg).expect("run");
        estimates.push(result.quantile_estimate);
    }
    let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
    let std_err = (estimates
        .iter()
        .map(|e| (e - mean) * (e - mean))
        .sum::<f64>()
        / estimates.len() as f64)
        .sqrt();
    println!("E2: quantile accuracy over {runs} runs (N = {budget}, p = {p:.6})");
    println!(
        "{}",
        row(&[
            "quantity".into(),
            "paper (full scale)".into(),
            "measured".into()
        ])
    );
    println!(
        "{}",
        row(&[
            "mean estimate".into(),
            "5.0728e5".into(),
            format!("{mean:.5e}")
        ])
    );
    println!(
        "{}",
        row(&[
            "true quantile".into(),
            "5.0738e5".into(),
            format!("{true_q:.5e}")
        ])
    );
    println!(
        "{}",
        row(&[
            "empirical std err".into(),
            "265".into(),
            format!("{std_err:.3e}")
        ])
    );
    println!(
        "{}",
        row(&[
            "middle-99% width".into(),
            "-".into(),
            format!("{:.3e}", w.oracle.central_interval_width(0.01)),
        ])
    );
    println!(
        "{}",
        row(&[
            "std err / width".into(),
            "-".into(),
            format!(
                "{:.1}%",
                100.0 * std_err / w.oracle.central_interval_width(0.01)
            ),
        ])
    );
}
