//! Experiment E8: plan executions — tuple-bundle looper vs naive Gibbs loop.
//!
//! §4.3's cost argument: a naive Gibbs-loop implementation re-runs the whole
//! query once per candidate value per seed per DB version per iteration
//! (the paper's example: 100 versions x 1e6 seeds x 10 iterations x 10
//! rejections = 1e10 plan executions), whereas the tuple-bundle GibbsLooper
//! runs the plan once and draws stream values past its initial block one
//! stream chunk at a time, never re-running the plan.  This experiment counts
//! both on a measured instance and also prints the paper's own arithmetic.

use std::sync::Arc;

use mcdbr_bench::row;
use mcdbr_core::{GibbsLooper, TailSamplingConfig};
use mcdbr_exec::SessionCache;
use mcdbr_workloads::{TpchConfig, TpchWorkload};

fn main() {
    let w = TpchWorkload::generate(TpchConfig::test_scale()).expect("workload");
    let cfg = TailSamplingConfig::new(0.01, 50, 400)
        .with_m(3)
        .with_block_size(600)
        .with_master_seed(13);
    let cache = Arc::new(SessionCache::new());
    let looper = GibbsLooper::new(w.total_loss_query(), cfg.clone()).with_cache(Arc::clone(&cache));
    let result = looper.run(&w.catalog).expect("tail run");

    // A repeated run under a fresh master seed: the plan-keyed session cache
    // hands back the deterministic skeleton, so phase 1 never re-runs.
    let repeat = GibbsLooper::new(w.total_loss_query(), cfg.with_master_seed(14))
        .with_cache(Arc::clone(&cache))
        .run(&w.catalog)
        .expect("repeat tail run");

    let n_versions = result.parameters.n_per_step as f64;
    let n_seeds = w.config.num_orders as f64;
    let iterations = result.parameters.m as f64;
    let candidates_per_update =
        (result.gibbs.candidates() as f64 / result.gibbs.accepted.max(1) as f64).max(1.0);
    let naive_plan_runs = n_versions * n_seeds * iterations * candidates_per_update;

    println!(
        "E8: query-plan executions (measured instance: {} seeds, n = {}, m = {})",
        n_seeds, n_versions, iterations
    );
    println!("{}", row(&["strategy".into(), "plan executions".into()]));
    println!(
        "{}",
        row(&[
            "GibbsLooper (tuple bundles)".into(),
            result.plan_executions.to_string()
        ])
    );
    println!(
        "{}",
        row(&[
            "  (blocks: 1 + chunks past the block)".into(),
            result.blocks_materialized.to_string(),
        ])
    );
    println!(
        "{}",
        row(&[
            "repeat run, fresh seed (cache hit)".into(),
            repeat.plan_executions.to_string()
        ])
    );
    println!(
        "{}",
        row(&[
            "  (skeleton hits / misses)".into(),
            format!("{} / {}", cache.skeleton_hits(), cache.skeleton_misses()),
        ])
    );
    println!(
        "{}",
        row(&[
            "  (columnar bytes materialized)".into(),
            format!(
                "{:.3} MiB",
                (result.bytes_materialized + repeat.bytes_materialized) as f64 / (1 << 20) as f64
            ),
        ])
    );
    println!(
        "{}",
        row(&[
            "  (pooled buffer reuses)".into(),
            (result.buffer_reuses + repeat.buffer_reuses).to_string(),
        ])
    );
    println!(
        "{}",
        row(&[
            "naive Gibbs loop (computed)".into(),
            format!("{naive_plan_runs:.3e}")
        ])
    );
    println!(
        "{}",
        row(&[
            "ratio".into(),
            format!("{:.3e}x", naive_plan_runs / result.plan_executions as f64)
        ])
    );
    println!("\nPaper's own arithmetic (§4.3): 100 versions x 1e6 seeds x 10 iterations x 10 rejections = 1e10 plan executions vs 1 for the tuple-bundle looper.");
}
