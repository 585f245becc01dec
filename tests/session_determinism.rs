//! The determinism suite for two-phase execution sessions.
//!
//! `ExecSession::instantiate_block(catalog, base_pos, num_values)` must
//! produce a `BundleSet` *bit-identical* to a from-scratch
//! `Executor::execute` at the same `(master_seed, base_pos, num_values)` —
//! for simple and multi-operator plans, across replenishment boundaries, and
//! for every worker-thread count (passed to the backend and `shard` calls
//! that take a width; a session always runs at the machine's default).
//! This is the property that lets the GibbsLooper and the MCDB engine
//! replace per-block plan re-execution with cached-prefix block
//! materialization without changing a single result.

use mcdbr::core::{GibbsLooper, TailSamplingConfig};
use mcdbr::dispatch::ProcessBackend;
use mcdbr::exec::aggregate::evaluate_aggregate;
use mcdbr::exec::{
    assemble_block, BlockBufferPool, BundleSet, BundleValue, DeterministicPrefix, ExecBackend,
    ExecOptions, ExecSession, Executor, Expr, InProcessBackend, PlanNode, SessionCache, ShardTask,
};
use mcdbr::mcdb::McdbEngine;
use mcdbr::storage::{Catalog, Field, Schema, TableBuilder, Value};
use mcdbr::vg::NormalVg;
use mcdbr::workloads::{customer_losses_catalog, customer_losses_query, TpchConfig, TpchWorkload};
use std::sync::Arc;

fn exec_from_scratch(
    plan: &PlanNode,
    catalog: &Catalog,
    seed: u64,
    base: u64,
    n: usize,
) -> mcdbr::exec::BundleSet {
    Executor::new()
        .execute(
            plan,
            catalog,
            &ExecOptions {
                master_seed: seed,
                num_values: n,
                base_pos: base,
            },
        )
        .unwrap()
}

fn assert_bit_identical(a: &mcdbr::exec::BundleSet, b: &mcdbr::exec::BundleSet) {
    assert_eq!(a.schema, b.schema, "schemas differ");
    assert_eq!(a.num_reps, b.num_reps, "repetition counts differ");
    assert_eq!(a.bundles.len(), b.bundles.len(), "bundle counts differ");
    for (i, (x, y)) in a.bundles.iter().zip(&b.bundles).enumerate() {
        assert_eq!(x.is_pres, y.is_pres, "presence differs at bundle {i}");
        assert_eq!(
            x.values.len(),
            y.values.len(),
            "arity differs at bundle {i}"
        );
        for (c, (vx, vy)) in x.values.iter().zip(&y.values).enumerate() {
            match (vx, vy) {
                // Float comparison must be by bits, not by PartialEq alone.
                (
                    BundleValue::Const(Value::Float64(fx)),
                    BundleValue::Const(Value::Float64(fy)),
                ) => {
                    assert_eq!(fx.to_bits(), fy.to_bits(), "bundle {i} col {c}");
                }
                _ => assert_eq!(vx, vy, "bundle {i} col {c}"),
            }
        }
    }
}

/// A catalog + multi-operator plan exercising scan, random table, both filter
/// kinds, a join, and projections (computed and lineage-preserving).
fn complex_case() -> (Catalog, PlanNode) {
    let means = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
        .row([Value::Int64(1), Value::Float64(3.0)])
        .row([Value::Int64(2), Value::Float64(4.0)])
        .row([Value::Int64(3), Value::Float64(5.0)])
        .row([Value::Int64(4), Value::Float64(6.0)])
        .build()
        .unwrap();
    let regions = TableBuilder::new(Schema::new(vec![
        Field::int64("rcid"),
        Field::utf8("region"),
    ]))
    .row([Value::Int64(1), Value::str("EU")])
    .row([Value::Int64(2), Value::str("US")])
    .row([Value::Int64(3), Value::str("US")])
    .row([Value::Int64(3), Value::str("APAC")])
    .build()
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.register("means", means).unwrap();
    catalog.register("regions", regions).unwrap();
    let plan = PlanNode::random_table(mcdbr::exec::plan::scalar_random_table(
        "Losses",
        "means",
        Arc::new(NormalVg),
        vec![Expr::col("m"), Expr::lit(1.0)],
        &["cid"],
        "val",
        1,
    ))
    .filter(Expr::col("cid").lt(Expr::lit(4i64)))
    .join(PlanNode::scan("regions"), vec![("cid", "rcid")])
    .filter(Expr::col("val").gt(Expr::lit(3.0)))
    .project(vec![
        ("region", Expr::col("region")),
        ("loss", Expr::col("val")),
        (
            "scaled",
            Expr::col("val").mul(Expr::lit(1.5)).add(Expr::lit(0.25)),
        ),
    ]);
    (catalog, plan)
}

#[test]
fn blocks_match_from_scratch_execution_for_simple_and_complex_plans() {
    let (catalog, complex) = complex_case();
    let losses = customer_losses_query(None);
    let losses_catalog = customer_losses_catalog(25, (1.0, 5.0), 9).unwrap();
    for (plan, cat, seed) in [
        (&complex, &catalog, 17u64),
        (&losses.plan, &losses_catalog, 23u64),
    ] {
        let mut session = ExecSession::prepare(plan, cat, seed).unwrap();
        assert!(session.is_cached());
        for (base, n) in [(0u64, 32usize), (32, 16), (48, 1), (10_000, 8)] {
            let block = session.instantiate_block(cat, base, n).unwrap();
            let scratch = exec_from_scratch(plan, cat, seed, base, n);
            assert_bit_identical(&block, &scratch);
        }
        assert_eq!(
            session.plan_executions(),
            1,
            "deterministic work ran more than once"
        );
        assert_eq!(session.blocks_materialized(), 4);
    }
}

#[test]
fn blocks_are_identical_across_replenishment_boundaries() {
    // The §9 replenishment pattern: consecutive blocks [0,B), [B,2B), [2B,3B)
    // concatenated must equal one long materialization [0,3B) — so a looper
    // that replenishes twice sees exactly the values a single big block would
    // have carried.
    let (catalog, plan) = complex_case();
    let seed = 5;
    let block = 24usize;
    let mut session = ExecSession::prepare(&plan, &catalog, seed).unwrap();
    let long = exec_from_scratch(&plan, &catalog, seed, 0, 3 * block);
    for step in 0..3u64 {
        let b = session
            .instantiate_block(&catalog, step * block as u64, block)
            .unwrap();
        // Compare each bundle's random values to the matching slice of the
        // long run.  (Presence-filtered bundles can differ in survivorship
        // between a sub-block and the long block, so restrict the check to
        // the replenishment-legal plans below for full-set equality.)
        for (sb, lb) in b.bundles.iter().zip(&long.bundles) {
            for (sv, lv) in sb.values.iter().zip(&lb.values) {
                if let (
                    BundleValue::Random {
                        values: svals,
                        seed: ss,
                        base_pos,
                        ..
                    },
                    BundleValue::Random {
                        values: lvals,
                        seed: ls,
                        ..
                    },
                ) = (sv, lv)
                {
                    assert_eq!(ss, ls);
                    assert_eq!(*base_pos, step * block as u64);
                    let lo = (step as usize) * block;
                    assert_eq!(&lvals.values_out()[lo..lo + block], &svals.values_out()[..]);
                }
            }
        }
    }

    // For a replenishment-legal plan (no random-attribute filters below the
    // looper, paper App. A) every sub-block equals the long run slice-for-
    // slice including bundle survivorship.
    let losses_catalog = customer_losses_catalog(10, (2.0, 6.0), 3).unwrap();
    let q = customer_losses_query(None);
    let mut session = ExecSession::prepare(&q.plan, &losses_catalog, 7).unwrap();
    let long = exec_from_scratch(&q.plan, &losses_catalog, 7, 0, 90);
    for step in 0..3u64 {
        let b = session
            .instantiate_block(&losses_catalog, step * 30, 30)
            .unwrap();
        let scratch = exec_from_scratch(&q.plan, &losses_catalog, 7, step * 30, 30);
        assert_bit_identical(&b, &scratch);
        assert_eq!(b.bundles.len(), long.bundles.len());
    }
}

/// Block `base .. base + n` of `session`'s prefix from its backend at
/// width `threads`, primed for dispatch as a session primes it.
fn block_at_width(
    session: &ExecSession,
    plan: &PlanNode,
    catalog: &Catalog,
    threads: usize,
    base: u64,
    n: usize,
) -> BundleSet {
    let (prefix, backend) = (session.prefix().unwrap(), session.backend());
    backend.prepare_dispatch(plan, catalog, prefix).unwrap();
    let pool = BlockBufferPool::new();
    backend
        .instantiate_block(prefix, &pool, threads, base, n)
        .unwrap()
}

#[test]
fn thread_counts_never_change_a_block() {
    let (catalog, plan) = complex_case();
    let mut session = ExecSession::prepare(&plan, &catalog, 31).unwrap();
    let reference = session.instantiate_block(&catalog, 0, 128).unwrap();
    for threads in [1, 2, 3, 4, 16] {
        let parallel = block_at_width(&session, &plan, &catalog, threads, 0, 128);
        assert_bit_identical(&reference, &parallel);
    }
}

/// One block of `prefix` as the `shards` units `ShardTask::plan` draws,
/// each run on `threads` threads, their cells assembled by
/// `assemble_block` — what the process backend does with its workers'
/// replies.  Every active stream comes from exactly one unit.
fn sharded_block(
    prefix: &DeterministicPrefix,
    pool: &BlockBufferPool,
    shards: usize,
    threads: usize,
    base: u64,
    n: usize,
) -> BundleSet {
    let tasks = ShardTask::plan(prefix, shards, base, n);
    assert_eq!(tasks.len(), shards.min(prefix.num_active_streams()).max(1));
    let cells: Vec<_> = tasks
        .iter()
        .flat_map(|t| t.run(pool, threads).unwrap())
        .collect();
    assert!(cells
        .iter()
        .map(|(at, _)| *at)
        .eq(0..prefix.num_active_streams()));
    let cells = cells.into_iter().map(|(_, c)| c).collect();
    assemble_block(prefix, cells, base, n, threads).unwrap()
}

#[test]
fn shard_counts_never_change_a_block() {
    // The shard contract: for every shard count × thread count, every
    // block — including consecutive replenishment-style blocks — is
    // bit-identical to in-process execution and to the one-shot executor.
    let (catalog, plan) = complex_case();
    let seed = 77;
    let blocks = [(0u64, 24usize), (24, 24), (48, 24), (10_000, 8)];
    let mut reference = ExecSession::prepare(&plan, &catalog, seed)
        .unwrap()
        .with_backend(Arc::new(InProcessBackend::new()));
    let expected: Vec<_> = blocks
        .iter()
        .map(|&(base, n)| reference.instantiate_block(&catalog, base, n).unwrap())
        .collect();
    let prefix = reference.prefix().unwrap();
    let pool = BlockBufferPool::new();
    for shards in [1usize, 2, 3, 7] {
        for threads in [1usize, 2, 3, 7] {
            for (&(base, n), want) in blocks.iter().zip(&expected) {
                let got = sharded_block(prefix, &pool, shards, threads, base, n);
                assert_bit_identical(want, &got);
                assert_bit_identical(want, &exec_from_scratch(&plan, &catalog, seed, base, n));
            }
        }
    }
    assert_eq!(reference.plan_executions(), 1);
}

#[test]
fn sharded_cache_hits_stay_bit_identical() {
    // A cache-hit session re-bound to a fresh master seed and split into
    // shard units must equal an uncached, in-process session at that seed
    // — the composition of the two tentpole contracts.
    let (catalog, plan) = complex_case();
    let cache = SessionCache::new();
    let pool = BlockBufferPool::new();
    let _ = cache.session(&plan, &catalog, 1).unwrap(); // warm (seed 1)
    for (shards, seed) in [(2usize, 9u64), (3, 0xBEEF), (7, 1)] {
        let hit = cache.session(&plan, &catalog, seed).unwrap();
        assert!(hit.skeleton_hit());
        assert_eq!(hit.plan_executions(), 0, "cache hit skips phase 1");
        let mut fresh = ExecSession::prepare(&plan, &catalog, seed)
            .unwrap()
            .with_backend(Arc::new(InProcessBackend::new()));
        for (base, n) in [(0u64, 32usize), (32, 16), (5000, 8)] {
            let a = sharded_block(hit.prefix().unwrap(), &pool, shards, 2, base, n);
            let b = fresh.instantiate_block(&catalog, base, n).unwrap();
            assert_bit_identical(&a, &b);
        }
    }
}

#[test]
fn sharded_tpch_join_blocks_match_from_scratch() {
    // The Appendix D join workload through shard units: every bundle joins
    // a deterministic lineitem row to its order's one stream, each unit
    // generates a range of the order streams, and assembling their cells
    // must give the exact executor output.
    let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let q = w.total_loss_query();
    let session = ExecSession::prepare(&q.plan, &w.catalog, 99).unwrap();
    let prefix = session.prefix().unwrap();
    let pool = BlockBufferPool::new();
    for shards in [2usize, 5] {
        for (base, n) in [(0u64, 20usize), (20, 20)] {
            let block = sharded_block(prefix, &pool, shards, 2, base, n);
            assert_bit_identical(&block, &exec_from_scratch(&q.plan, &w.catalog, 99, base, n));
        }
    }
}

#[test]
fn columnar_blocks_match_the_row_reference_path_for_every_shard_and_thread_count() {
    // The referee is the row-at-a-time `Executor::execute`; the pooled
    // columnar generation and assembly — as the in-process backend runs
    // them and in every sharded configuration — must reproduce its output
    // bit for bit, on the multi-operator plan and the Appendix D join
    // workload alike.
    let (catalog, plan) = complex_case();
    let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let join = w.total_loss_query();
    for (plan, cat, seed) in [(&plan, &catalog, 55u64), (&join.plan, &w.catalog, 91u64)] {
        let session = ExecSession::prepare(plan, cat, seed).unwrap();
        let prefix = session.prefix().unwrap();
        for (base, n) in [(0u64, 32usize), (32, 16), (9000, 8)] {
            let reference = exec_from_scratch(plan, cat, seed, base, n);
            let pool = BlockBufferPool::new();
            for threads in [1usize, 2, 7] {
                let columnar = InProcessBackend::new()
                    .instantiate_block(prefix, &pool, threads, base, n)
                    .unwrap();
                assert_bit_identical(&reference, &columnar);
            }
            for shards in [1usize, 2, 3, 7] {
                for threads in [1usize, 2] {
                    let sharded = sharded_block(prefix, &pool, shards, threads, base, n);
                    assert_bit_identical(&reference, &sharded);
                }
            }
            assert!(
                pool.buffer_reuses() > 0,
                "repeated blocks over one pool must recycle buffers"
            );
        }
    }
}

#[test]
fn zero_value_blocks_are_well_formed_on_both_backends() {
    // num_values == 0 must be a first-class input, not incidental behavior:
    // a well-formed, empty-repetition BundleSet on the in-process and
    // process backends alike, agreeing with the one-shot executor.
    let losses_catalog = customer_losses_catalog(6, (1.0, 4.0), 3).unwrap();
    let q = customer_losses_query(None);
    let scratch = exec_from_scratch(&q.plan, &losses_catalog, 13, 0, 0);
    for backend in [
        Arc::new(InProcessBackend::new()) as Arc<dyn ExecBackend>,
        Arc::new(ProcessBackend::new(2)) as Arc<dyn ExecBackend>,
    ] {
        let mut session = ExecSession::prepare(&q.plan, &losses_catalog, 13)
            .unwrap()
            .with_backend(Arc::clone(&backend));
        let block = session.instantiate_block(&losses_catalog, 0, 0).unwrap();
        assert_eq!(block.num_reps, 0, "backend {}", backend.name());
        assert_eq!(block.schema, scratch.schema);
        assert_bit_identical(&block, &scratch);
        for bundle in &block.bundles {
            for value in &bundle.values {
                assert!(matches!(value.materialized_len(), None | Some(0)));
            }
        }
        // A zero block then a real one: the session stays fully usable.
        let real = session.instantiate_block(&losses_catalog, 0, 8).unwrap();
        assert_bit_identical(
            &real,
            &exec_from_scratch(&q.plan, &losses_catalog, 13, 0, 8),
        );
    }
}

#[test]
fn process_backend_blocks_are_bit_identical_for_every_worker_and_thread_count() {
    // The multi-process dispatch contract: for worker counts {1, 2, 3} ×
    // thread counts, every block — consecutive replenishment-style windows
    // included — merged from `mcdbr-worker` OS processes is bit-identical
    // to the in-process backend and the one-shot executor.
    let (catalog, plan) = complex_case();
    let seed = 77;
    let blocks = [(0u64, 24usize), (24, 24), (48, 24), (10_000, 8)];
    let mut reference = ExecSession::prepare(&plan, &catalog, seed)
        .unwrap()
        .with_backend(Arc::new(InProcessBackend::new()));
    let expected: Vec<_> = blocks
        .iter()
        .map(|&(base, n)| reference.instantiate_block(&catalog, base, n).unwrap())
        .collect();
    for workers in [1usize, 2, 3] {
        for threads in [1usize, 2, 7] {
            let backend = Arc::new(ProcessBackend::new(workers));
            let session = ExecSession::prepare(&plan, &catalog, seed)
                .unwrap()
                .with_backend(backend.clone());
            for (&(base, n), want) in blocks.iter().zip(&expected) {
                let got = block_at_width(&session, &plan, &catalog, threads, base, n);
                assert_bit_identical(want, &got);
                assert_bit_identical(want, &exec_from_scratch(&plan, &catalog, seed, base, n));
            }
            let stats = backend.shard_stats();
            assert!(
                stats.tasks_dispatched >= blocks.len(),
                "{workers}x{threads}: every block must cross the wire"
            );
            assert!(stats.wire_bytes_sent > 0 && stats.wire_bytes_received > 0);
            assert!(
                stats.worker_warm_hits > 0,
                "{workers}x{threads}: later blocks must hit warm workers"
            );
            assert_eq!(session.plan_executions(), 1);
        }
    }
}

#[test]
fn process_backend_cache_hits_skip_phase_one_on_both_sides_of_the_wire() {
    // Composition of the session-cache and dispatch contracts: a
    // coordinator-side cache hit (fresh master seed, phase 1 skipped) run
    // on a process backend must equal an uncached in-process session, and
    // the *workers'* own caches must serve the later blocks warm.
    let (catalog, plan) = complex_case();
    let cache = SessionCache::new();
    let backend = Arc::new(ProcessBackend::new(2));
    let _ = cache.session(&plan, &catalog, 1).unwrap(); // warm (seed 1)
    for seed in [9u64, 0xBEEF] {
        let mut hit = cache
            .session(&plan, &catalog, seed)
            .unwrap()
            .with_backend(backend.clone());
        assert!(hit.skeleton_hit());
        assert_eq!(hit.plan_executions(), 0, "cache hit skips phase 1");
        let mut fresh = ExecSession::prepare(&plan, &catalog, seed)
            .unwrap()
            .with_backend(Arc::new(InProcessBackend::new()));
        for (base, n) in [(0u64, 32usize), (32, 16), (5000, 8)] {
            let a = hit.instantiate_block(&catalog, base, n).unwrap();
            let b = fresh.instantiate_block(&catalog, base, n).unwrap();
            assert_bit_identical(&a, &b);
        }
    }
    let stats = backend.shard_stats();
    // Both loops share one plan key and one worker pool: after each
    // worker's first (cold) task, every later task skipped phase 1 on the
    // worker side too.
    assert!(
        stats.worker_warm_hits > 0,
        "warm workers must skip phase 1: {stats:?}"
    );
    assert!(stats.tasks_dispatched > stats.worker_warm_hits);
}

#[test]
fn process_backend_survives_forced_worker_kills_with_re_dispatch() {
    // Crash-recovery contract: killing worker processes between blocks
    // forces the broken-pipe path — the unit runs here, the worker is
    // replaced by a cold one that gets the plan with its next task — and
    // the merged output stays bit-identical throughout.
    let (catalog, plan) = complex_case();
    let seed = 31;
    let backend = Arc::new(ProcessBackend::new(2));
    let mut session = ExecSession::prepare(&plan, &catalog, seed)
        .unwrap()
        .with_backend(backend.clone());
    let mut reference = ExecSession::prepare(&plan, &catalog, seed)
        .unwrap()
        .with_backend(Arc::new(InProcessBackend::new()));
    for (round, (base, n)) in [(0u64, 20usize), (20, 20), (40, 20), (60, 12)]
        .into_iter()
        .enumerate()
    {
        if round > 0 {
            // Alternate killing one worker and the whole pool.
            backend.kill_worker(round % 2);
            if round == 2 {
                backend.kill_worker(0);
                backend.kill_worker(1);
            }
        }
        let got = session.instantiate_block(&catalog, base, n).unwrap();
        let want = reference.instantiate_block(&catalog, base, n).unwrap();
        assert_bit_identical(&want, &got);
        assert_bit_identical(&want, &exec_from_scratch(&plan, &catalog, seed, base, n));
    }
    let stats = backend.shard_stats();
    assert!(
        stats.worker_respawns >= 3,
        "every kill must surface as a replacement: {stats:?}"
    );
    assert_eq!(session.plan_executions(), 1);
}

#[test]
fn process_backend_engine_runs_match_in_process_engines() {
    // End to end through the MCDB engine: per-repetition samples computed
    // over process-dispatched blocks equal the in-process engine's exactly
    // (aggregation is local on both; the blocks are what crossed the wire).
    let catalog = customer_losses_catalog(12, (1.0, 4.0), 2).unwrap();
    let q = customer_losses_query(Some(9));
    let backend = Arc::new(ProcessBackend::new(2));
    let mut process_engine = McdbEngine::new().with_backend(backend.clone());
    let mut inproc_engine = McdbEngine::new().with_backend(Arc::new(InProcessBackend::new()));
    let a = process_engine.run_samples(&q, &catalog, 64, 42).unwrap();
    let b = inproc_engine.run_samples(&q, &catalog, 64, 42).unwrap();
    assert_eq!(a.group_columns, b.group_columns);
    for ((ka, va), (kb, vb)) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ka, kb);
        assert!(va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
    let stats = process_engine.backend_stats();
    assert!(stats.tasks_dispatched > 0);
    assert!(stats.workers_spawned >= 1);
    assert!(stats.wire_bytes_sent > 0 && stats.wire_bytes_received > 0);

    // And through the Gibbs looper on every backend: the losses query with
    // blocks small enough to force replenishment, and the test-scale TPC-H
    // join under the Appendix D configuration.
    let tpch = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let join = tpch.total_loss_query();
    let losses_config = TailSamplingConfig::new(0.05, 10, 200)
        .with_m(3)
        .with_block_size(40)
        .with_master_seed(11);
    let appendix_d = TailSamplingConfig::new(0.25f64.powi(5), 100, 300)
        .with_m(5)
        .with_block_size(1000)
        .with_master_seed(77);
    for (query, catalog, config) in [
        (&q, &catalog, losses_config),
        (&join, &tpch.catalog, appendix_d),
    ] {
        let run = |backend: Arc<dyn ExecBackend>| {
            GibbsLooper::new(query.clone(), config.clone())
                .with_backend(backend)
                .run(catalog)
                .unwrap()
        };
        let want = run(Arc::new(InProcessBackend::new()));
        assert!(want.replenishments > 0, "{want:?}");
        let got = run(Arc::new(ProcessBackend::new(2)));
        assert_eq!(got.tail_samples, want.tail_samples);
        assert_eq!(got.cutoffs, want.cutoffs);
        assert_eq!(got.gibbs, want.gibbs);
        assert_eq!(got.replenishments, want.replenishments);
        assert_eq!(
            got.stream_positions_consumed,
            want.stream_positions_consumed
        );
        assert_eq!(got.values_materialized, want.values_materialized);
        // The initial block crossed the wire; every unit spawned was a
        // dispatched task (replenishment windows run inline).
        assert!(got.backend.tasks_dispatched >= 1, "{got:?}");
        assert_eq!(got.backend.shards_spawned, got.backend.tasks_dispatched);
        assert_eq!(want.backend, mcdbr::exec::ShardStats::default());
    }

    // The naive tail hunt reports its own backend window, and its samples
    // do not depend on where the blocks ran.
    let hunt = |engine: &mut McdbEngine| {
        engine
            .naive_tail_sample(&q, &catalog, 0.05, 10, 200, 100, 2_000, 7)
            .unwrap()
    };
    let local = hunt(&mut inproc_engine);
    let remote = hunt(&mut process_engine);
    assert_eq!(local.backend, mcdbr::exec::ShardStats::default());
    assert!(remote.backend.tasks_dispatched > 0, "{:?}", remote.backend);
    assert_eq!(
        remote.backend.shards_spawned,
        remote.backend.tasks_dispatched
    );
    assert_eq!(remote.tail_samples, local.tail_samples);
    assert_eq!(remote.quantile_estimate, local.quantile_estimate);
    assert_eq!(remote.repetitions, local.repetitions);
}

/// Serialises the tests that shrink the process-wide page cache, so one test
/// restoring the budget cannot hide another's evictions.
static GLOBAL_POOL_BUDGET: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Instantiates `blocks` of `plan` over `catalog` on the in-process and
/// process backends and asserts each block bit-identical to `expected`.
/// The process backend is exercised cold (the first task ships the Plan frame
/// with every referenced table's pages), warm (repeat tasks ship only task
/// headers), and after a forced kill of every worker (respawned workers are
/// cold again and receive the Plan frame again).
fn assert_backends_match_across_a_pool_kill(
    input: &str,
    plan: &PlanNode,
    catalog: &Catalog,
    seed: u64,
    blocks: &[(u64, usize)],
    expected: &[mcdbr::exec::BundleSet],
) {
    let process = Arc::new(ProcessBackend::new(2));
    let mut in_process = ExecSession::prepare(plan, catalog, seed)
        .unwrap()
        .with_backend(Arc::new(InProcessBackend::new()));
    let mut process_session = ExecSession::prepare(plan, catalog, seed)
        .unwrap()
        .with_backend(process.clone());

    let mut cold_sent = 0u64;
    let mut warm_sent = 0u64;
    for (i, &(base, n)) in blocks.iter().enumerate() {
        if i == 2 {
            // Kill the whole pool: the respawned workers lost their plans
            // and tables and are sent everything again.
            process.kill_worker(0);
            process.kill_worker(1);
        }
        let before = process.shard_stats();
        let got = process_session.instantiate_block(catalog, base, n).unwrap();
        let sent = process.shard_stats().since(before).wire_bytes_sent;
        match i {
            0 => cold_sent = sent,
            1 => warm_sent = sent,
            _ => {}
        }
        assert_bit_identical(&expected[i], &got);
        assert_bit_identical(
            &expected[i],
            &in_process.instantiate_block(catalog, base, n).unwrap(),
        );
    }
    assert!(
        warm_sent < cold_sent,
        "{input}: warm dispatch ({warm_sent} bytes) must undercut the cold \
         table shipment ({cold_sent} bytes)"
    );
    // A plan version ships once per worker.
    assert!(
        cold_sent >= 10 * warm_sent,
        "{input}: repeated-plan dispatch must send >=10x fewer bytes (cold \
         {cold_sent} vs warm {warm_sent})"
    );
    let stats = process.shard_stats();
    assert!(
        stats.worker_respawns >= 2,
        "{input}: killing the pool must surface as respawns: {stats:?}"
    );
}

#[test]
fn tiny_page_cache_blocks_match_on_both_backends_across_a_pool_kill() {
    // The paged-storage contract composed with plan shipping:
    // with the global page cache forced far below the catalog's page count
    // (every scan misses, decodes, and evicts), the in-process and process
    // backends must still produce bit-identical blocks, cold, warm and
    // after a pool kill.
    use mcdbr::storage::BufferPool;
    let catalog = customer_losses_catalog(2_000, (1.0, 5.0), 11).unwrap();
    let plan = customer_losses_query(Some(120)).plan;
    let seed = 63;
    let blocks = [(0u64, 16usize), (16, 16), (32, 8)];
    assert!(
        catalog.get("means").unwrap().pages().len() > 2,
        "catalog must span more pages than the forced budget"
    );

    let _guard = GLOBAL_POOL_BUDGET
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let pool = BufferPool::global();
    let saved = pool.budget();
    pool.set_budget(2);
    let baseline = pool.stats();

    let mut reference = ExecSession::prepare(&plan, &catalog, seed)
        .unwrap()
        .with_backend(Arc::new(InProcessBackend::new()));
    let expected: Vec<_> = blocks
        .iter()
        .map(|&(base, n)| reference.instantiate_block(&catalog, base, n).unwrap())
        .collect();
    assert_backends_match_across_a_pool_kill("memory", &plan, &catalog, seed, &blocks, &expected);

    let delta = pool.stats().since(&baseline);
    assert!(
        delta.pool_evictions > 0,
        "a 2-frame budget under a multi-page catalog must evict: {delta:?}"
    );
    pool.set_budget(saved);
}

#[test]
fn spilled_catalogs_equal_memory_on_both_backends_engine_and_looper() {
    // The durable-pages contract end to end: the catalog's sealed pages are
    // spilled to heap files under a private pager (zero sealed bytes stay
    // resident, every pool miss is re-read and re-validated from disk), the
    // global page cache is forced to 2 frames, and the in-process and
    // process backends must produce blocks bit-identical to the plain
    // in-memory path.  Workers keep each plan with its tables across tasks,
    // so warm dispatch ships headers, not pages, until the pool is killed.
    // The engine and the Gibbs looper over the spilled catalog must equal
    // their in-memory runs.
    use mcdbr::storage::{BufferPool, Pager};
    let catalog_mem = customer_losses_catalog(2_000, (1.0, 5.0), 11).unwrap();
    let query = customer_losses_query(Some(150));
    let plan = &query.plan;
    let seed = 77;
    let blocks = [(0u64, 16usize), (16, 16), (32, 8)];

    // The disk-backed twin: same rows, same page bytes, every sealed
    // page in a heap file.  Scans are a function of the rows alone: every
    // frame budget, on either input, yields the unbounded in-memory scan
    // tuple for tuple.
    let spill_root =
        std::env::temp_dir().join(format!("mcdbr-determinism-spill-{}", std::process::id()));
    let pager = Pager::new(&spill_root).unwrap();
    let mut catalog_disk = Catalog::new();
    for name in catalog_mem.table_names() {
        let resident = catalog_mem.get(name).unwrap();
        let mut table = resident.clone();
        assert!(table.spill_with(&pager).unwrap() > 0, "{name}: must spill");
        assert_eq!(table.resident_sealed_bytes(), 0, "{name}: bytes resident");
        assert_eq!(table.pages(), resident.pages(), "{name}");
        let reference: Vec<_> = resident.iter_with(&BufferPool::new(usize::MAX)).collect();
        for budget in [2usize, 8, 64, usize::MAX] {
            for (input, t) in [("memory", resident), ("disk", &table)] {
                let scanned: Vec<_> = t.iter_with(&BufferPool::new(budget)).collect();
                assert_eq!(scanned, reference, "{name}: {input}, {budget} frames");
            }
        }
        catalog_disk.register(name, table).unwrap();
    }
    assert!(
        catalog_disk.get("means").unwrap().pages().len() > 2,
        "catalog must span more pages than the forced budget"
    );

    let _guard = GLOBAL_POOL_BUDGET
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let pool = BufferPool::global();
    let saved = pool.budget();
    pool.set_budget(2);
    let baseline = pool.stats();
    let disk_reads_before = pager.stats().disk_reads;

    // Reference: the fully in-memory catalog on the in-process backend.
    let mut reference = ExecSession::prepare(plan, &catalog_mem, seed)
        .unwrap()
        .with_backend(Arc::new(InProcessBackend::new()));
    let expected: Vec<_> = blocks
        .iter()
        .map(|&(base, n)| reference.instantiate_block(&catalog_mem, base, n).unwrap())
        .collect();
    assert_backends_match_across_a_pool_kill("disk", plan, &catalog_disk, seed, &blocks, &expected);

    // Whole queries over disk-backed pages: the engine's samples and one
    // Gibbs looper run are bit-identical to the in-memory catalog's.
    let run_engine = |catalog: &Catalog| {
        McdbEngine::new()
            .with_backend(Arc::new(InProcessBackend::new()))
            .run_samples(&query, catalog, 64, 42)
            .unwrap()
    };
    let (a, b) = (run_engine(&catalog_mem), run_engine(&catalog_disk));
    assert_eq!(a.group_columns, b.group_columns);
    assert_eq!(a.groups.len(), b.groups.len());
    for ((ka, va), (kb, vb)) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ka, kb);
        assert!(va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
    let run_looper = |catalog: &Catalog| {
        let config = TailSamplingConfig::new(0.05, 10, 200)
            .with_m(3)
            .with_block_size(40)
            .with_master_seed(11);
        GibbsLooper::new(query.clone(), config)
            .run(catalog)
            .unwrap()
    };
    let (want, got) = (run_looper(&catalog_mem), run_looper(&catalog_disk));
    assert_eq!(got.tail_samples, want.tail_samples);
    assert_eq!(got.cutoffs, want.cutoffs);
    assert_eq!(got.gibbs, want.gibbs);
    assert_eq!(got.values_materialized, want.values_materialized);

    let delta = pool.stats().since(&baseline);
    assert!(
        delta.pool_evictions > 0,
        "a 2-frame budget under a multi-page catalog must evict: {delta:?}"
    );
    assert!(
        pager.stats().disk_reads > disk_reads_before,
        "a 2-frame budget over disk-backed pages must read from disk"
    );
    pool.set_budget(saved);
    drop((reference, catalog_disk));
    let _ = std::fs::remove_dir_all(&spill_root);
}

#[test]
fn phase_one_reads_each_spilled_page_exactly_once() {
    // Phase 1 scans every input table once, whatever the frame budget: the
    // Appendix D join over a catalog spilled in small pages, under a
    // 2-frame pool, reads each page from disk exactly once.
    use mcdbr::storage::{BufferPool, Pager, Table};
    let workload = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let spill_root =
        std::env::temp_dir().join(format!("mcdbr-phase-one-pages-{}", std::process::id()));
    let pager = Pager::new(&spill_root).unwrap();
    let mut catalog = Catalog::new();
    let mut pages = 0u64;
    for name in workload.catalog.table_names() {
        let table = workload.catalog.get(name).unwrap();
        let rows = table.iter().collect();
        let mut paged = Table::with_page_budget(table.schema().clone(), rows, 1024).unwrap();
        paged.spill_with(&pager).unwrap();
        assert_eq!(paged.tail_rows().len(), 0, "{name}: every row is paged");
        pages += paged.pages().len() as u64;
        catalog.register(name, paged).unwrap();
    }
    assert!(
        pages > 4,
        "the catalog must span many more pages than frames"
    );

    let _guard = GLOBAL_POOL_BUDGET
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let pool = BufferPool::global();
    let saved = pool.budget();
    pool.set_budget(2);
    let (pool_before, disk_before) = (pool.stats(), pager.stats());
    let cache = SessionCache::new();
    let session = cache.session(&workload.total_loss_query().plan, &catalog, 7);
    let read = pool.stats().since(&pool_before).pages_read;
    let disk = pager.stats().since(&disk_before).disk_reads;
    pool.set_budget(saved);

    assert!(session.unwrap().is_cached());
    // Every disk read of this private pager inserts one of this catalog's
    // pages into the pool, so `disk` is exactly this session's share of
    // `pages_read`; the global counter also sees concurrent tests' scans.
    assert_eq!(disk, pages, "each spilled page is read once");
    assert!(read >= pages, "pages_read {read} < {pages} pages");
    drop(catalog);
    let _ = std::fs::remove_dir_all(&spill_root);
}

/// `SUM(expr) WHERE pred GROUP BY group` per repetition by `Expr::eval` on
/// each present bundle's row, groups in first-seen order: the scalar
/// referee of the aggregate's compiled program.
fn scalar_grouped_sum(
    set: &mcdbr::exec::BundleSet,
    expr: &Expr,
    group: &str,
    pred: &Expr,
) -> Vec<(Value, Vec<f64>)> {
    let schema = &set.schema;
    let g = schema.index_of(group).unwrap();
    let mut groups: Vec<(Value, Vec<f64>)> = Vec::new();
    for bundle in &set.bundles {
        let key = bundle.values[g].value_at(0);
        let at = match groups.iter().position(|(k, _)| k.sql_eq(&key)) {
            Some(at) => at,
            None => {
                groups.push((key, vec![0.0; set.num_reps]));
                groups.len() - 1
            }
        };
        for rep in (0..set.num_reps).filter(|&rep| bundle.is_present(rep)) {
            let row = bundle.row_at(rep);
            if pred.eval_bool(schema, &row).unwrap() {
                groups[at].1[rep] += expr.eval_f64(schema, &row).unwrap();
            }
        }
    }
    groups
}

#[test]
fn compiled_programs_match_the_scalar_oracle_across_backends() {
    // Presence predicates and computed projections (one program per block
    // and bundle) and the aggregate's program over the final predicate, on
    // every backend, across consecutive replenishment-style blocks: the
    // blocks equal the executor's, whose every expression is `Expr::eval`,
    // and the samples equal the scalar per-repetition referee, bit for bit.
    let (catalog, plan) = complex_case();
    let seed = 41;
    let blocks = [(0u64, 24usize), (24, 24), (48, 24), (7000, 9)];
    let agg = mcdbr::exec::AggregateSpec::sum(Expr::col("loss"), "total");
    let group = vec!["region".to_string()];
    let pred = Expr::col("scaled").lt(Expr::lit(9.0));
    for backend in [
        Arc::new(InProcessBackend::new()) as Arc<dyn ExecBackend>,
        Arc::new(ProcessBackend::new(2)) as Arc<dyn ExecBackend>,
    ] {
        let mut session = ExecSession::prepare(&plan, &catalog, seed)
            .unwrap()
            .with_backend(backend);
        for &(base, n) in &blocks {
            let set = session.instantiate_block(&catalog, base, n).unwrap();
            assert_bit_identical(&set, &exec_from_scratch(&plan, &catalog, seed, base, n));
            let samples = evaluate_aggregate(&set, &agg, &group, Some(&pred)).unwrap();
            let referee = scalar_grouped_sum(&set, &agg.expr, "region", &pred);
            assert_eq!(samples.groups.len(), referee.len());
            for ((ka, va), (kb, vb)) in samples.groups.iter().zip(&referee) {
                assert_eq!(ka, std::slice::from_ref(kb));
                assert!(va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }
}

#[test]
fn tpch_join_workload_blocks_match_from_scratch() {
    // The Appendix D workload: an uncertain order-amount table joined to a
    // deterministic lineitem-derived side, at test scale.
    let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let q = w.total_loss_query();
    let mut session = ExecSession::prepare(&q.plan, &w.catalog, 99).unwrap();
    assert!(session.is_cached());
    for (base, n) in [(0u64, 20usize), (20, 20), (40, 5)] {
        let block = session.instantiate_block(&w.catalog, base, n).unwrap();
        let scratch = exec_from_scratch(&q.plan, &w.catalog, 99, base, n);
        assert_bit_identical(&block, &scratch);
    }
    assert_eq!(session.plan_executions(), 1);
}

#[test]
fn per_stream_windows_equal_the_same_cells_of_a_full_width_block() {
    // The unit demand-driven replenishment stands on: the window `b .. b+n`
    // of one stream is, bit for bit, what a full-width block `0 .. b+n`
    // holds for that stream at those offsets — for windows that straddle
    // what used to be block boundaries, whatever thread count built the
    // reference block, on a plan with a random filter and a computed
    // projection and on the fan-out join (one stream, many bundles).
    fn bits(v: Value) -> (Option<u64>, Value) {
        match v {
            Value::Float64(f) => (Some(f.to_bits()), Value::Null),
            other => (None, other),
        }
    }
    fn refused<T>(r: mcdbr::storage::Result<T>) -> bool {
        matches!(r, Err(mcdbr::storage::Error::InvalidOperation(_)))
    }
    let (complex_catalog, complex) = complex_case();
    let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let join = w.total_loss_query().plan;
    for (plan, catalog) in [(&complex, &complex_catalog), (&join, &w.catalog)] {
        for threads in [1usize, 2, 8] {
            let seed = 5;
            let mut session = ExecSession::prepare(plan, catalog, seed).unwrap();
            let keys = session.prefix().unwrap().skeleton().active_keys().to_vec();
            for (base, n) in [(0u64, 24usize), (20, 10), (24, 48), (40, 33)] {
                let block = block_at_width(&session, plan, catalog, threads, 0, base as usize + n);
                for key in [keys[0], *keys.last().unwrap()] {
                    let (blocks, values) =
                        (session.blocks_materialized(), session.values_materialized());
                    let window = session.instantiate_stream(key, base, n).unwrap();
                    assert_eq!(session.blocks_materialized(), blocks + 1);
                    assert_eq!(session.values_materialized(), values + n as u64);
                    let stream = key.bind(seed);
                    let mut compared = 0;
                    for value in block.bundles.iter().flat_map(|b| &b.values) {
                        let BundleValue::Random {
                            seed: s,
                            vg_row,
                            vg_col,
                            values,
                            ..
                        } = value
                        else {
                            continue;
                        };
                        if *s != stream {
                            continue;
                        }
                        let cell = window.cell(*vg_row, *vg_col).unwrap();
                        assert_eq!(cell.len(), n);
                        let cut = values.values_out().split_off(base as usize);
                        assert!(cell
                            .values_out()
                            .into_iter()
                            .map(bits)
                            .eq(cut.into_iter().map(bits)));
                        compared += 1;
                    }
                    assert!(compared >= 1, "every stream feeds a bundle");
                }
            }
            assert_eq!(session.plan_executions(), 1);
            // Misuse is a typed error: a key no surviving bundle references,
            // a plan with no prefix to address.
            let unknown = mcdbr::prng::StreamKey::new(u64::MAX, 0);
            assert!(refused(session.instantiate_stream(unknown, 0, 4)));
        }
    }
    let losses_catalog = customer_losses_catalog(4, (1.0, 5.0), 9).unwrap();
    let split = customer_losses_query(None).plan.split("val");
    let mut fallback = ExecSession::prepare(&split, &losses_catalog, 3).unwrap();
    assert!(!fallback.is_cached());
    let any = mcdbr::prng::StreamKey::new(0, 0);
    assert!(refused(fallback.instantiate_stream(any, 0, 4)));
    assert_eq!(fallback.blocks_materialized(), 0);
}

#[test]
fn cache_hits_skip_phase_one_and_stay_bit_identical_across_seeds() {
    // The tentpole contract: for a repeated (plan, catalog) pair with a
    // *fresh master seed*, phase 1 is skipped — skeleton_hits increments and
    // plan_executions stays flat — and every block is bit-identical to an
    // uncached ExecSession::prepare at the same seed.
    let (catalog, plan) = complex_case();
    let cache = SessionCache::new();
    let mut total_plan_executions = 0usize;
    for (i, seed) in [7u64, 99, 0xFEED].into_iter().enumerate() {
        let mut cached = cache.session(&plan, &catalog, seed).unwrap();
        total_plan_executions += cached.plan_executions();
        assert_eq!(cached.skeleton_hit(), i > 0);
        assert_eq!((cache.skeleton_hits(), cache.skeleton_misses()), (i, 1));
        let mut fresh = ExecSession::prepare(&plan, &catalog, seed).unwrap();
        for (base, n) in [(0u64, 32usize), (32, 16), (5000, 8)] {
            let a = cached.instantiate_block(&catalog, base, n).unwrap();
            let b = fresh.instantiate_block(&catalog, base, n).unwrap();
            assert_bit_identical(&a, &b);
            // And against the one-shot executor, closing the triangle.
            assert_bit_identical(&a, &exec_from_scratch(&plan, &catalog, seed, base, n));
        }
    }
    assert_eq!(
        total_plan_executions, 1,
        "three sessions, one skeleton pass: plan_executions must stay flat"
    );
}

#[test]
fn cache_hits_are_thread_count_independent() {
    let (catalog, plan) = complex_case();
    let cache = SessionCache::new();
    let reference = cache
        .session(&plan, &catalog, 31)
        .unwrap()
        .instantiate_block(&catalog, 0, 128)
        .unwrap();
    for threads in [1, 4, 16] {
        // Every one of these is a cache hit materialized under a different
        // worker count.
        let session = cache.session(&plan, &catalog, 31).unwrap();
        let block = block_at_width(&session, &plan, &catalog, threads, 0, 128);
        assert_bit_identical(&reference, &block);
    }
    assert_eq!(cache.skeleton_hits(), 3);
}

#[test]
fn catalog_changes_invalidate_cached_skeletons() {
    let mut catalog = customer_losses_catalog(8, (1.0, 4.0), 5).unwrap();
    let q = customer_losses_query(None);
    let cache = SessionCache::new();
    let first = cache.session(&q.plan, &catalog, 3).unwrap();
    assert_eq!(first.prefix().unwrap().num_streams(), 8);

    // Replace the parameter table with a smaller one: the epoch changes, the
    // next lookup misses, and the rebuilt skeleton reflects the new catalog
    // (a stale hit would still carry 8 streams).
    let replacement = customer_losses_catalog(3, (1.0, 4.0), 5).unwrap();
    let means = replacement.get("means").unwrap().clone();
    catalog.register_or_replace("means", means);
    let second = cache.session(&q.plan, &catalog, 3).unwrap();
    assert!(!second.skeleton_hit());
    assert_eq!((cache.skeleton_hits(), cache.skeleton_misses()), (0, 2));
    assert_eq!(second.prefix().unwrap().num_streams(), 3);

    // An unrelated-table registration also invalidates (epochs are
    // content-conservative, not table-reference-exact)...
    let extra = TableBuilder::new(Schema::new(vec![Field::int64("x")]))
        .row([Value::Int64(1)])
        .build()
        .unwrap();
    catalog.register("unrelated", extra).unwrap();
    let mut third = cache.session(&q.plan, &catalog, 4).unwrap();
    assert!(!third.skeleton_hit());
    // ...and the rebuilt skeleton still matches a from-scratch execution.
    let block = third.instantiate_block(&catalog, 0, 16).unwrap();
    assert_bit_identical(&block, &exec_from_scratch(&q.plan, &catalog, 4, 0, 16));
}

#[test]
fn engine_results_are_unchanged_by_the_session_port() {
    // The MCDB engine now runs on sessions; its per-repetition samples must
    // still equal aggregation over a from-scratch executor run.
    let catalog = customer_losses_catalog(12, (1.0, 4.0), 2).unwrap();
    let q = customer_losses_query(Some(9));
    let mut engine = McdbEngine::new();
    let via_engine = engine.run_samples(&q, &catalog, 64, 42).unwrap();
    let scratch = exec_from_scratch(&q.plan, &catalog, 42, 0, 64);
    let direct = evaluate_aggregate(
        &scratch,
        &q.aggregate,
        &q.group_by,
        q.final_predicate.as_ref(),
    )
    .unwrap();
    assert_eq!(via_engine.groups.len(), direct.groups.len());
    for ((ka, va), (kb, vb)) in via_engine.groups.iter().zip(&direct.groups) {
        assert_eq!(ka, kb);
        assert!(va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
