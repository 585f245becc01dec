//! The Appendix D TPC-H-like benchmark query at laptop scale, with the
//! analytic oracle the paper uses to validate accuracy.
//!
//! Run with: `cargo run --release --example tpch_tail [test|laptop]`

use mcdbr::core::{GibbsLooper, TailSamplingConfig};
use mcdbr::risk::TailCdfComparison;
use mcdbr::workloads::{TpchConfig, TpchWorkload};

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "test".into());
    let config = match scale.as_str() {
        "laptop" => TpchConfig::laptop_scale(),
        "paper" => TpchConfig::paper_scale(),
        _ => TpchConfig::test_scale(),
    };
    let w = TpchWorkload::generate(config).expect("workload");
    let p = 0.25f64.powi(5);
    println!(
        "Workload: {} orders, {} joining lineitems; analytic result ~ Normal({:.4e}, {:.4e}^2)",
        w.config.num_orders,
        w.config.num_lineitems,
        w.oracle.mean,
        w.oracle.sd()
    );

    let cfg = TailSamplingConfig::new(p, 100, 500)
        .with_m(5)
        .with_block_size(1000)
        .with_master_seed(17);
    let result = GibbsLooper::new(w.total_loss_query(), cfg)
        .run(&w.catalog)
        .expect("tail");
    let cmp = TailCdfComparison::new(&w.oracle, p, &result.tail_samples).expect("compare");
    println!("MCDB-R (m = 5, p^(1/m) = 0.25, N = 500, l = 100):");
    println!("  estimated 0.999-quantile: {:.6e}", cmp.estimated_quantile);
    println!("  analytic  0.999-quantile: {:.6e}", cmp.true_quantile);
    println!(
        "  relative error:           {:.4}%",
        100.0 * cmp.quantile_relative_error()
    );
    println!("  KS distance to the true tail CDF: {:.4}", cmp.ks_distance);
    println!(
        "  per-iteration cutoffs: {:?}",
        result.cutoffs.iter().map(|c| c.round()).collect::<Vec<_>>()
    );
    println!(
        "  plan executions: {} ({} one-stream chunks drawn past the initial block; {} values materialized, {} consumed)",
        result.plan_executions,
        result.replenishments,
        result.values_materialized,
        result.stream_positions_consumed
    );
}
