//! The phase-2 units.
//!
//! A block is split by **stream keys** into **generation units**:
//! `PlanSkeleton + seed + StreamKey range + window` fully describes a slice
//! of a block's stream values, and [`ShardTask::run`] generates exactly the
//! active streams whose keys lie in its range — each stream in exactly one
//! unit, bit-identical wherever it runs (`(seed, position)` addressing).  A
//! [`ShardTask`] is plain data plus the skeleton (an `Arc` in process;
//! across processes re-derivable from the plan and catalog, or addressed by
//! its `(plan fingerprint, catalog epoch)` cache key), and binding it to
//! its master seed costs nothing per stream.  Every placement — this
//! process's threads, the server's scheduler, one unit per worker process —
//! only generates.
//!
//! Every active stream's cells, in `active_keys` order, are the whole
//! random part of a block; the skeleton, which every placement holds,
//! supplies the rest.  [`assemble_block`] turns them into the block's
//! bundles (the trait's provided `instantiate_block`) and [`fold_block`]
//! folds them once, on the calling thread, straight into an aggregate
//! (`ExecSession::sample_block`), whoever generated the cells.
//! `tests/session_determinism.rs` proves every split bit-identical for unit
//! counts {1, 2, 3, 7} × thread counts against `Executor::execute`, across
//! replenishment boundaries, and on cache hits.
//!
//! Aggregation splits neither repetitions nor bundles: within one
//! repetition the floating-point accumulation order over bundles is the
//! bit-identity contract, so [`fold_block`] folds every bundle once over
//! the whole window on the calling thread, as
//! [`crate::aggregate::evaluate_aggregate`] does over a materialized set.
//! The width a placement is given only fans out generation.

use std::ops::Range;
use std::sync::Arc;

use mcdbr_prng::StreamKeyRange;
use mcdbr_storage::{ColumnBlock, Result, Value};

use crate::aggregate::{AggregateSpec, Aggregation, GroupLayout, QueryResultSamples};
use crate::bundle::BundleSet;
use crate::expr::Expr;
use crate::par;
use crate::pool::BlockBufferPool;
use crate::session::{self, CellCols, CellData, DeterministicPrefix, PlanSkeleton};

/// One self-describing slice of a block's stream generation: bind
/// `skeleton` to `master_seed` and generate the window `base_pos ..
/// base_pos + num_values` of every active stream whose key lies in
/// `key_range`.
///
/// Everything here is either plain data or re-derivable state (see the
/// module docs), which is what makes the task the natural unit for
/// multi-process dispatch.
#[derive(Debug, Clone)]
pub struct ShardTask {
    /// The seed-independent skeleton the unit binds and generates against.
    pub skeleton: Arc<PlanSkeleton>,
    /// The master seed; the unit derives its own stream seeds from it.
    pub master_seed: u64,
    /// The slice of the stream-key space this unit generates.
    pub key_range: StreamKeyRange,
    /// First stream position of the block window.
    pub base_pos: u64,
    /// Number of stream positions to materialize.
    pub num_values: usize,
}

impl ShardTask {
    /// Split one block of `prefix` into exactly `min(parts, active streams)`
    /// tasks (at least one) whose contiguous, balanced key ranges jointly
    /// cover the key space, so each generates an even share of the active
    /// streams.
    pub fn plan(
        prefix: &DeterministicPrefix,
        parts: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Vec<ShardTask> {
        StreamKeyRange::partition(prefix.skeleton().active_keys(), parts)
            .into_iter()
            .map(|key_range| ShardTask {
                skeleton: Arc::clone(prefix.skeleton()),
                master_seed: prefix.master_seed(),
                key_range,
                base_pos,
                num_values,
            })
            .collect()
    }

    /// The indices into [`PlanSkeleton::active_keys`] of the streams whose
    /// keys lie in `key_range` — ascending and contiguous, since the keys
    /// are sorted.
    pub fn streams(&self) -> Range<usize> {
        let active = self.skeleton.active_keys();
        let lo = active.partition_point(|&key| key < self.key_range.start);
        lo..lo + active[lo..].partition_point(|&key| self.key_range.contains(key))
    }

    /// Generate the unit's streams ([`ShardTask::streams`]) on up to
    /// `threads` threads (bit-deterministic, see `crate::par`) into buffers
    /// from `pool`, which concurrent units share safely, returning `(active
    /// index, cells)` pairs in ascending index order.
    pub fn run(&self, pool: &BlockBufferPool, threads: usize) -> Result<Vec<(usize, CellCols)>> {
        let streams: Vec<usize> = self.streams().collect();
        // Seeds are pure in `(master_seed, key)` and recipes live on the
        // skeleton, so binding costs nothing regardless of plan size.
        let prefix = self.skeleton.bind(self.master_seed);
        let (base_pos, n) = (self.base_pos, self.num_values);
        let cells = generate_streams(&prefix, &streams, base_pos, n, pool, threads)?;
        Ok(streams.into_iter().zip(cells).collect())
    }
}

/// Assemble the block `base_pos .. base_pos + num_values` of `prefix` from
/// every active stream's cells, in `active_keys` order (a set of the wrong
/// size errs): every skeleton bundle, materialized on up to `threads`
/// threads and sharing the cell columns by refcount, in skeleton order
/// without the never-present ones — the order `Executor::execute` gives.
pub fn assemble_block(
    prefix: &DeterministicPrefix,
    cells: Vec<CellCols>,
    base_pos: u64,
    num_values: usize,
    threads: usize,
) -> Result<BundleSet> {
    let cells = CellData::new(prefix, cells)?;
    let bundles: Vec<usize> = (0..prefix.num_bundles()).collect();
    let bundles = par::try_par_map_threads(&bundles, threads, |&idx| {
        session::materialize_bundle(prefix, idx, &cells, base_pos, num_values)
    })?;
    Ok(BundleSet {
        schema: prefix.schema().clone(),
        bundles: bundles.into_iter().flatten().collect(),
        num_reps: num_values,
    })
}

/// Evaluate `agg` once per repetition over the block [`assemble_block`]
/// would build from `cells`, bit-identically and erring if and only if
/// aggregating that set would, but with no bundle built: one pass folds
/// every bundle, in skeleton order, straight into the aggregate's lanes.
/// This is the one fold of a sampled block, whoever generated the cells.
pub fn fold_block(
    prefix: &DeterministicPrefix,
    cells: Vec<CellCols>,
    num_values: usize,
    agg: &AggregateSpec,
    group_by: &[String],
    final_predicate: Option<&Expr>,
) -> Result<QueryResultSamples> {
    let cells = CellData::new(prefix, cells)?;
    let skeleton = prefix.skeleton();
    let keys = skeleton.group_keys(group_by)?;
    let key_of = |b: usize| -> Vec<Value> {
        let cols = keys.as_deref().unwrap_or_default();
        cols.iter().map(|values| values[b].clone()).collect()
    };
    let layout = match keys {
        Ok(_) => GroupLayout::discover(skeleton.num_bundles(), !group_by.is_empty(), key_of),
        Err(column) => GroupLayout::random_key(skeleton.num_bundles(), column),
    };
    // A zero-position block still decides which bundles — so which groups —
    // it keeps: the fold over the empty window does that.
    let mut aggregation =
        Aggregation::new(skeleton.schema(), layout, agg, final_predicate, num_values);
    session::fold_bundles(prefix, &cells, num_values, &mut aggregation)?;
    Ok(aggregation.finish(group_by, key_of))
}

/// The stream-generation half of a unit: generate the active streams at the
/// ascending `active_keys` indices `needed` for the window `base_pos ..
/// base_pos + num_values` into columnar buffers from `pool`, fanned out
/// across streams on up to `threads` threads, returning each stream's cells
/// in `needed` order.  [`ShardTask::run`] calls it for a unit's streams,
/// [`crate::ExecBackend::instantiate_cells`]'s default for every stream,
/// and [`crate::ExecSession::instantiate_stream`] for the one stream whose
/// chunk past the initial block a Gibbs run draws.
pub(crate) fn generate_streams(
    prefix: &DeterministicPrefix,
    needed: &[usize],
    base_pos: u64,
    num_values: usize,
    pool: &BlockBufferPool,
    threads: usize,
) -> Result<Vec<session::CellCols>> {
    let generated: Vec<Result<ColumnBlock>> = par::par_map_threads(needed, threads, |&at| {
        session::generate_active_stream_block(prefix, at, base_pos, num_values, pool)
    });
    // Move each generated block's cells into shared columns and
    // return the pooled buffer immediately — on errors too, so partial
    // work is metered and buffers survive for the next block (a Gibbs
    // run's next chunk, a repeated query, or a neighboring shard task).  The first error in input order wins (the `crate::par`
    // determinism contract).
    let mut cells = Vec::with_capacity(needed.len());
    let mut first_err = None;
    for result in generated {
        match result {
            Ok(mut block) => {
                if first_err.is_none() {
                    cells.push(session::CellCols::from_block(&mut block, pool));
                }
                pool.release(block);
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(cells),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecBackend, InProcessBackend};
    use crate::plan::{scalar_random_table, PlanNode};
    use crate::session::ExecSession;
    use mcdbr_storage::Error;
    use mcdbr_storage::{Catalog, Field, Schema, TableBuilder, Value};
    use mcdbr_vg::NormalVg;

    fn catalog() -> Catalog {
        let mut means =
            TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]));
        for i in 0..8i64 {
            means = means.row([Value::Int64(i), Value::Float64(2.0 + i as f64)]);
        }
        let regions = TableBuilder::new(Schema::new(vec![
            Field::int64("rcid"),
            Field::utf8("region"),
        ]))
        .row([Value::Int64(0), Value::str("EU")])
        .row([Value::Int64(1), Value::str("US")])
        .row([Value::Int64(2), Value::str("US")])
        .row([Value::Int64(5), Value::str("APAC")])
        .build()
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.register("means", means.build().unwrap()).unwrap();
        catalog.register("regions", regions).unwrap();
        catalog
    }

    /// Scan + random table + both filter kinds + join + computed projection.
    fn complex_plan() -> PlanNode {
        PlanNode::random_table(scalar_random_table(
            "Losses",
            "means",
            Arc::new(NormalVg),
            vec![Expr::col("m"), Expr::lit(1.0)],
            &["cid"],
            "val",
            1,
        ))
        .filter(Expr::col("cid").lt(Expr::lit(6i64)))
        .join(PlanNode::scan("regions"), vec![("cid", "rcid")])
        .filter(Expr::col("val").gt(Expr::lit(2.5)))
        .project(vec![
            ("cid", Expr::col("cid")),
            ("loss", Expr::col("val")),
            ("scaled", Expr::col("val").mul(Expr::lit(2.0))),
            ("region", Expr::col("region")),
        ])
    }

    fn assert_sets_identical(a: &BundleSet, b: &BundleSet) {
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.num_reps, b.num_reps);
        assert_eq!(a.bundles, b.bundles);
    }

    /// One block as `shards` planned units, each run on `threads` threads,
    /// their cells concatenated and assembled.
    fn sharded_block(
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        shards: usize,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> BundleSet {
        let cells = ShardTask::plan(prefix, shards, base_pos, num_values)
            .iter()
            .flat_map(|task| task.run(pool, threads).unwrap())
            .map(|(_, cells)| cells)
            .collect();
        assemble_block(prefix, cells, base_pos, num_values, threads).unwrap()
    }

    #[test]
    fn sharded_blocks_match_in_process_for_every_shard_count() {
        let pool = BlockBufferPool::new();
        let catalog = catalog();
        let plan = complex_plan();
        let session = ExecSession::prepare(&plan, &catalog, 42).unwrap();
        let prefix = session.prefix().unwrap();
        let reference = InProcessBackend::new()
            .instantiate_block(prefix, &pool, 1, 0, 64)
            .unwrap();
        for shards in [1usize, 2, 3, 7, 50] {
            for threads in [1usize, 2, 8] {
                let block = sharded_block(prefix, &pool, shards, threads, 0, 64);
                assert_sets_identical(&reference, &block);
            }
        }
    }

    #[test]
    fn planner_never_exceeds_active_streams() {
        let catalog = catalog();
        let plan = complex_plan();
        let session = ExecSession::prepare(&plan, &catalog, 7).unwrap();
        let prefix = session.prefix().unwrap();
        let active = prefix.num_active_streams();
        assert!(active >= 2);
        let planned = |parts| ShardTask::plan(prefix, parts, 0, 8).len();
        assert_eq!(planned(3), 3);
        assert_eq!(planned(100), active);
        assert_eq!(planned(0), 1);
    }

    #[test]
    fn shard_tasks_are_self_describing_and_cover_all_bundles() {
        let pool = BlockBufferPool::new();
        let catalog = catalog();
        let plan = complex_plan();
        let session = ExecSession::prepare(&plan, &catalog, 11).unwrap();
        let prefix = session.prefix().unwrap();
        let skeleton = prefix.skeleton();
        let mut cells = Vec::new();
        for planned in ShardTask::plan(prefix, 3, 0, 4) {
            let task = ShardTask {
                skeleton: Arc::clone(skeleton),
                master_seed: 11,
                key_range: planned.key_range,
                base_pos: 0,
                num_values: 4,
            };
            let streams = task.streams();
            let output = task.run(&pool, 1).unwrap();
            // Exactly the streams of the range, ascending, each once.
            assert!(!streams.is_empty());
            assert!(output.iter().map(|(at, _)| *at).eq(streams.clone()));
            for &(at, _) in &output {
                assert!(task.key_range.contains(skeleton.active_keys()[at]));
            }
            assert_eq!(streams.start, cells.len(), "ranges tile the streams");
            cells.extend(output.into_iter().map(|(_, c)| c));
        }
        assert_eq!(cells.len(), skeleton.num_active_streams());
        // The tiled cells are the whole block: every bundle assembles.
        let block = assemble_block(prefix, cells, 0, 4, 1).unwrap();
        let reference = InProcessBackend::new()
            .instantiate_block(prefix, &pool, 1, 0, 4)
            .unwrap();
        assert_sets_identical(&reference, &block);
    }

    #[test]
    fn assembly_rejects_a_cell_set_of_the_wrong_size() {
        let pool = BlockBufferPool::new();
        let catalog = catalog();
        let session = ExecSession::prepare(&complex_plan(), &catalog, 11).unwrap();
        let prefix = session.prefix().unwrap();
        let task = &ShardTask::plan(prefix, 2, 0, 4)[0];
        // Half a block's cells — what a lost unit would leave.
        let cells: Vec<CellCols> = task
            .run(&pool, 1)
            .unwrap()
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        assert!(cells.len() < prefix.num_active_streams());
        let err = assemble_block(prefix, cells, 0, 4, 1).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        let agg = AggregateSpec::sum(Expr::col("loss"), "a");
        let err = fold_block(prefix, Vec::new(), 4, &agg, &[], None).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
    }

    #[test]
    fn two_table_joins_split_across_units_stay_identical() {
        let pool = BlockBufferPool::new();
        // Two uncertain tables (tags 1 and 2) joined on cid: every bundle
        // references one stream from each table, so a split between the
        // tables puts a bundle's streams in different units — assembly
        // reads each from its own unit's cells and still matches exactly.
        let catalog = catalog();
        let mk = |tag, name: &str| {
            PlanNode::random_table(scalar_random_table(
                name,
                "means",
                Arc::new(NormalVg),
                vec![Expr::col("m"), Expr::lit(1.0)],
                &["cid"],
                name,
                tag,
            ))
        };
        let plan = mk(1, "a").join(mk(2, "b"), vec![("cid", "cid")]);
        let session = ExecSession::prepare(&plan, &catalog, 13).unwrap();
        let prefix = session.prefix().unwrap();
        let reference = InProcessBackend::new()
            .instantiate_block(prefix, &pool, 1, 0, 32)
            .unwrap();
        for shards in [1usize, 2, 3, 7] {
            let block = sharded_block(prefix, &pool, shards, 2, 0, 32);
            assert_sets_identical(&reference, &block);
        }
        // The planner partitions all 16 active streams, so a 2-way split
        // gives each unit one table's 8 streams: nothing is generated twice.
        assert_eq!(prefix.num_active_streams(), 16);
        for task in ShardTask::plan(prefix, 2, 0, 4) {
            assert_eq!(task.run(&pool, 2).unwrap().len(), 8);
        }
    }

    #[test]
    fn deterministic_only_plans_run_on_one_shard() {
        let pool = BlockBufferPool::new();
        let catalog = catalog();
        let session = ExecSession::prepare(&PlanNode::scan("regions"), &catalog, 1).unwrap();
        let prefix = session.prefix().unwrap();
        assert_eq!(ShardTask::plan(prefix, 4, 0, 3).len(), 1);
        let block = sharded_block(prefix, &pool, 4, 4, 0, 3);
        assert_eq!(block.len(), 4);
        assert!(block.bundles.iter().all(|b| b.is_fully_const()));
    }

    #[test]
    fn sharded_sessions_are_bit_identical_end_to_end() {
        // A session's blocks, across windows, equal the same windows split
        // into three units and assembled.
        let catalog = catalog();
        let plan = complex_plan();
        let mut session = ExecSession::prepare(&plan, &catalog, 9).unwrap();
        let pool = BlockBufferPool::new();
        for (base, n) in [(0u64, 16usize), (16, 8), (1000, 4)] {
            let a = session.instantiate_block(&catalog, base, n).unwrap();
            let prefix = session.prefix().unwrap();
            let b = sharded_block(prefix, &pool, 3, 2, base, n);
            assert_sets_identical(&a, &b);
        }
    }
}
