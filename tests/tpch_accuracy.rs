//! Integration test for experiments E1/E2 at test scale: MCDB-R tail samples
//! on the Appendix D workload cluster around the analytic tail CDF, and the
//! quantile estimates are unbiased within a few standard errors.

use mcdbr::core::{GibbsLooper, TailSamplingConfig};
use mcdbr::exec::{AggregateSpec, ExecSession, Expr};
use mcdbr::risk::TailCdfComparison;
use mcdbr::workloads::{TpchConfig, TpchWorkload};

#[test]
fn tail_samples_cluster_around_the_analytic_tail() {
    let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let p = 0.01;
    let mut ks_distances = Vec::new();
    let mut rel_errors = Vec::new();
    for run in 0..5u64 {
        let cfg = TailSamplingConfig::new(p, 60, 400)
            .with_m(3)
            .with_block_size(800)
            .with_master_seed(40 + run);
        let result = GibbsLooper::new(w.total_loss_query(), cfg)
            .run(&w.catalog)
            .unwrap();
        let cmp = TailCdfComparison::new(&w.oracle, p, &result.tail_samples).unwrap();
        ks_distances.push(cmp.ks_distance);
        rel_errors.push(cmp.quantile_relative_error());
    }
    // Empirical tail CDFs stay close to the analytic one (Figure 5's visual
    // claim, quantified by the KS distance) ...
    let mean_ks = ks_distances.iter().sum::<f64>() / ks_distances.len() as f64;
    assert!(
        mean_ks < 0.35,
        "mean KS distance {mean_ks}, distances {ks_distances:?}"
    );
    // ... and the quantile estimates are accurate to a few percent of the
    // quantile value (the paper reports ~0.02% at 50x our budget and scale).
    let mean_rel = rel_errors.iter().sum::<f64>() / rel_errors.len() as f64;
    assert!(mean_rel < 0.05, "mean relative error {mean_rel}");
}

#[test]
fn replenishment_happens_and_does_not_change_correctness() {
    let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    // A deliberately small block forces replenishment mid-run (§9).
    let cfg = TailSamplingConfig::new(0.02, 30, 300)
        .with_m(3)
        .with_block_size(110)
        .with_master_seed(8);
    let result = GibbsLooper::new(w.total_loss_query(), cfg.clone())
        .run(&w.catalog)
        .unwrap();
    assert!(result.replenishments > 0);
    // The execution session runs deterministic plan work exactly once;
    // replenishments only materialize further stream blocks.
    assert_eq!(result.plan_executions, 1);
    assert_eq!(result.blocks_materialized, 1 + result.replenishments);
    assert!(result
        .tail_samples
        .iter()
        .all(|&s| s >= result.quantile_estimate - 1e-9));
    assert!(result.quantile_estimate > w.oracle.mean);

    // Fan-out transparency: every order's stream feeds many lineitem
    // bundles, and extending one stream at a time must give exactly the run
    // that one block long enough for every stream gives.
    let long = GibbsLooper::new(w.total_loss_query(), cfg.with_block_size(20_000))
        .run(&w.catalog)
        .unwrap();
    assert_eq!(long.replenishments, 0);
    assert_eq!(result.tail_samples, long.tail_samples);
    assert_eq!(result.cutoffs, long.cutoffs);
    assert_eq!(result.gibbs, long.gibbs);
    assert_eq!(
        result.stream_positions_consumed,
        long.stream_positions_consumed
    );
}

#[test]
fn one_hungry_stream_does_not_drag_the_others_along() {
    // The adversarial shape `perf_ledger`'s `tail.join_small` found by
    // accident: one of the 94 streams consumes 61 705 positions, the median
    // stream 536.  Past the initial block a stream is drawn one chunk at a
    // time, when the sweep reaches the chunk's first position, and the
    // looper holds the block and the last chunk only, so the hungry stream
    // costs what it consumes and nothing more.  Full-width replenishment
    // materialized 5 828 000 values here, and per-stream doubling windows
    // 202 000.
    let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let query = w.total_loss_query();
    let block = 1000u64;
    let cfg = TailSamplingConfig::new(0.25f64.powi(5), 100, 300)
        .with_m(5)
        .with_block_size(block as usize)
        .with_master_seed(79);
    let streams = ExecSession::prepare(&query.plan, &w.catalog, 79)
        .unwrap()
        .prefix()
        .unwrap()
        .num_active_streams() as u64;
    let result = GibbsLooper::new(query, cfg).run(&w.catalog).unwrap();
    assert!(result.stream_positions_consumed > 61_705, "{result:?}");
    assert_eq!(result.blocks_materialized, 1 + result.replenishments);
    // Each draw past the block is one chunk of at most 4 096 positions.
    let drawn = result.values_materialized - streams * block;
    assert!(drawn <= 4096 * result.replenishments as u64, "{result:?}");
    // Pinned, so that a change in chunk sizing shows here.
    assert_eq!(result.values_materialized, 178_896, "{result:?}");
}

#[test]
fn single_load_gibbs_path_equals_the_general_register_program() {
    // `SUM(val)` runs the row driver's one-`Load` path; `SUM(val * 1.0)`
    // over an always-true predicate on the lineitem key runs the same
    // samples through the general register program (a filter, an `Int64`
    // comparison, `f64` arithmetic).  Bit-identical at both master seeds.
    // (The looper's unit tests hold this join against the `Expr::eval`
    // referee loop.)
    let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut general = w
        .total_loss_query()
        .with_final_predicate(Expr::col("l_orderkey").gt_eq(Expr::lit(0i64)));
    general.aggregate = AggregateSpec::sum(Expr::col("val").mul(Expr::lit(1.0)), "totalLoss");
    for master in [77, 79] {
        let cfg = TailSamplingConfig::new(0.25f64.powi(5), 100, 300)
            .with_m(5)
            .with_master_seed(master);
        let single = GibbsLooper::new(w.total_loss_query(), cfg.clone())
            .run(&w.catalog)
            .unwrap();
        let full = GibbsLooper::new(general.clone(), cfg)
            .run(&w.catalog)
            .unwrap();
        assert_eq!(bits(&single.tail_samples), bits(&full.tail_samples));
        assert_eq!(bits(&single.cutoffs), bits(&full.cutoffs));
        assert_eq!(single.gibbs, full.gibbs);
        assert_eq!(single.replenishments, full.replenishments);
        assert_eq!(
            single.stream_positions_consumed,
            full.stream_positions_consumed
        );
        assert_eq!(single.values_materialized, full.values_materialized);
    }
}
