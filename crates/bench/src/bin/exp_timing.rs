//! Experiment E3: MCDB-R vs naive MCDB wall-clock (Appendix D headline).
//!
//! Measures (a) per-iteration wall-clock of the GibbsLooper including the
//! stream chunks it draws past its initial block, (b) the per-repetition cost of naive MCDB on the
//! same workload, and (c) the extrapolated cost of collecting l = 100 tail
//! samples beyond the 0.999-quantile naively (repetitions needed = l / p).
//! The paper reports ~11 minutes vs ~18 hours at full scale; the shape to
//! reproduce is the orders-of-magnitude ratio.

use std::time::Instant;

use mcdbr_bench::{appendix_d_config, row, run_tail_sampling};
use mcdbr_mcdb::McdbEngine;
use mcdbr_workloads::{TpchConfig, TpchWorkload};

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "test".into());
    let (config, budget) = match scale.as_str() {
        "paper" => (TpchConfig::paper_scale(), 500),
        "laptop" => (TpchConfig::laptop_scale(), 500),
        _ => (TpchConfig::test_scale(), 300),
    };
    let w = TpchWorkload::generate(config).expect("workload");
    let p = 0.25f64.powi(5);
    let l = 100.0;

    // MCDB-R tail sampling.
    let start = Instant::now();
    let cfg = appendix_d_config(budget, 77);
    let result = run_tail_sampling(&w.total_loss_query(), &w.catalog, cfg).expect("tail run");
    let mcdbr_secs = start.elapsed().as_secs_f64();

    // Naive MCDB: measure the per-repetition cost with a modest batch.
    let mut engine = McdbEngine::new();
    let calib_reps = 200;
    let start = Instant::now();
    engine
        .run_samples(&w.total_loss_query(), &w.catalog, calib_reps, 7)
        .expect("naive batch");
    let per_rep = start.elapsed().as_secs_f64() / calib_reps as f64;
    let naive_plan_execs = engine.plans_executed();
    let naive_blocks = engine.blocks_materialized();
    // Repetitions needed to see l tail samples at probability p.
    let reps_needed = l / p;
    let naive_secs = per_rep * reps_needed;

    println!(
        "E3: MCDB-R vs naive MCDB ({} orders, {} lineitems, p = {p:.6}, l = 100)",
        w.config.num_orders, w.config.num_lineitems
    );
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
            "MCDB-R total".into(),
            "~11 minutes".into(),
            format!("{mcdbr_secs:.2} s")
        ])
    );
    println!(
        "{}",
        row(&[
            "MCDB-R plan executions".into(),
            "1 (skeleton once)".into(),
            result.plan_executions.to_string()
        ])
    );
    println!(
        "{}",
        row(&[
            "MCDB-R blocks materialized".into(),
            "1 + chunks past the block".into(),
            result.blocks_materialized.to_string()
        ])
    );
    println!(
        "{}",
        row(&[
            "MCDB-R values materialized".into(),
            "streams x block + chunks drawn".into(),
            format!(
                "{} ({} consumed)",
                result.values_materialized, result.stream_positions_consumed
            )
        ])
    );
    println!(
        "{}",
        row(&[
            "MCDB-R chunks past the block".into(),
            "one stream, <= 4096 positions each".into(),
            result.replenishments.to_string()
        ])
    );
    println!(
        "{}",
        row(&[
            "MCDB-R skeleton hits/misses".into(),
            "0 / 1 (cold cache)".into(),
            format!("{} / {}", result.skeleton_hits, result.skeleton_misses)
        ])
    );
    println!(
        "{}",
        row(&[
            "MCDB-R columnar bytes".into(),
            "-".into(),
            format!(
                "{:.3} MiB",
                result.bytes_materialized as f64 / (1 << 20) as f64
            )
        ])
    );
    println!(
        "{}",
        row(&[
            "MCDB-R buffer reuses".into(),
            "1 per chunk past the block".into(),
            result.buffer_reuses.to_string()
        ])
    );
    println!(
        "{}",
        row(&[
            "naive plan executions".into(),
            "1".into(),
            naive_plan_execs.to_string()
        ])
    );
    println!(
        "{}",
        row(&[
            "naive skeleton hits/misses".into(),
            "0 / 1 (cold cache)".into(),
            format!("{} / {}", engine.skeleton_hits(), engine.skeleton_misses())
        ])
    );
    println!(
        "{}",
        row(&[
            "naive blocks materialized".into(),
            "1".into(),
            naive_blocks.to_string()
        ])
    );
    println!(
        "{}",
        row(&[
            "naive columnar bytes".into(),
            "-".into(),
            format!(
                "{:.3} MiB",
                engine.bytes_materialized() as f64 / (1 << 20) as f64
            )
        ])
    );
    println!(
        "{}",
        row(&[
            "naive cost / repetition".into(),
            "-".into(),
            format!("{:.4} s", per_rep)
        ])
    );
    println!(
        "{}",
        row(&[
            "naive repetitions needed".into(),
            "102 400 (l/p = 100/0.25^5)".into(),
            format!("{reps_needed:.3e}")
        ])
    );
    println!(
        "{}",
        row(&[
            "naive extrapolated total".into(),
            "~18 hours".into(),
            format!("{:.1} s (= {:.1} h)", naive_secs, naive_secs / 3600.0)
        ])
    );
    println!(
        "{}",
        row(&[
            "speedup (naive / MCDB-R)".into(),
            "~98x".into(),
            format!("{:.0}x", naive_secs / mcdbr_secs)
        ])
    );
    println!(
        "{}",
        row(&[
            "Gibbs acceptance".into(),
            "-".into(),
            format!("{:.3}", result.gibbs.acceptance_rate()),
        ])
    );
}
