//! The phase-2 units.
//!
//! A Monte Carlo query runs the **fused unit**,
//! [`SampleJob::sample_rep_range`]: instantiate and aggregate repetitions
//! `[a, b)` in one pass, generating every active stream over the range and
//! folding each bundle, in skeleton order, straight into the aggregate's
//! lanes.  No bundle, set or merge is built; [`sample_parts`] splits the
//! repetitions and merges the partials, and both in-process placements —
//! [`crate::InProcessBackend`]'s threads and the server's scheduler — run
//! the same unit.
//!
//! Callers that need the bundles themselves run the **block unit**:
//! `PlanSkeleton + seed + StreamKey range` is a complete description of a
//! slice of a block's work.  [`ShardTask::run`] is the one body that
//! materializes bundles, and [`merge_block`] the one routine that assembles
//! a block from unit partials.  Every placement — in-process (one
//! all-covering unit), the multi-process dispatcher and its workers (one
//! unit per worker) — runs exactly these two and differs only in *where* a
//! unit runs.  A [`ShardTask`] carries everything a worker needs:
//!
//! * a reference to the seed-independent [`PlanSkeleton`] (in-process an
//!   `Arc`; across processes the skeleton is re-derivable from the plan and
//!   catalog, or shippable by its `(plan fingerprint, catalog epoch)` cache
//!   key — every other field is plain data),
//! * the `master_seed` the shard binds the skeleton to itself (each shard
//!   runs against **its own** [`DeterministicPrefix`]; stream seeds are
//!   pure functions of `(master_seed, key)` and VG recipes live on the
//!   skeleton, so the per-shard binding carries no per-stream state at all
//!   — no shared mutable state, no per-block binding cost),
//! * a [`StreamKeyRange`] naming the slice of the key space the shard owns,
//! * the block window `base_pos .. base_pos + num_values`.
//!
//! **The shard contract.** [`ShardTask::plan`] partitions the skeleton's
//! distinct bundle *anchor* keys (each bundle's smallest stream key) into
//! contiguous ranges that jointly cover the whole key space, so ownership —
//! not just stream generation — balances across shards.  A shard owns
//! every bundle whose anchor falls in its range (bundles with no streams
//! anchor at [`StreamKey::MIN`], i.e. the first shard).  Cross-shard
//! bundles — a join of streams from two ranges — are handled without
//! communication: the owning shard regenerates the foreign streams itself,
//! which is bit-identical by the position-addressable PRNG contract, so
//! duplicated generation trades a little CPU for zero coordination.  Each
//! shard returns its bundles tagged with their skeleton index and
//! [`merge_block`] writes each bundle into its skeleton slot, so the
//! flattened output *is* the skeleton's bundle order — bit-identical for
//! every shard count.  `tests/session_determinism.rs` proves this for shard
//! counts {1, 2, 3, 7} × thread counts against `Executor::execute`, across
//! replenishment boundaries, and on cache hits.
//!
//! Aggregation — fused or over a set — partitions **repetitions**, not
//! bundles: within one repetition the floating-point accumulation order
//! over bundles is the bit-identity contract, so the only safe parallel
//! unit is the repetition itself — see [`sample_parts`] and
//! [`crate::aggregate::evaluate_aggregate_threads`], which share the one
//! per-bundle fold and the one partial merge.

use std::ops::Range;
use std::sync::Arc;

use mcdbr_prng::{StreamKey, StreamKeyRange};
use mcdbr_storage::{ColumnBlock, Error, Result, Value};

use crate::aggregate::{
    self, AggPartial, AggregateSpec, GroupLayout, QueryResultSamples, RepRangeJob,
};
use crate::bundle::{BundleSet, TupleBundle};
use crate::expr::Expr;
use crate::par;
use crate::pool::BlockBufferPool;
use crate::session::{self, DeterministicPrefix, PlanSkeleton};

/// One self-describing slice of a block instantiation: bind `skeleton` to
/// `master_seed`, own every bundle anchored in `key_range`, materialize the
/// window `base_pos .. base_pos + num_values`.
///
/// Everything here is either plain data or re-derivable state (see the
/// module docs), which is what makes the task the natural unit for
/// multi-process dispatch.
#[derive(Debug, Clone)]
pub struct ShardTask {
    /// The seed-independent skeleton the shard binds and executes against.
    pub skeleton: Arc<PlanSkeleton>,
    /// The master seed; each shard derives its own stream seeds from it.
    pub master_seed: u64,
    /// The slice of the stream-key space this shard owns.
    pub key_range: StreamKeyRange,
    /// First stream position of the block window.
    pub base_pos: u64,
    /// Number of stream positions to materialize.
    pub num_values: usize,
}

/// What one shard hands back to the merge.
#[derive(Debug)]
pub struct ShardOutput {
    /// `(skeleton bundle index, materialized bundle)` pairs — `None` for
    /// bundles whose presence mask is false everywhere — for
    /// [`merge_block`] to slot back into skeleton order.
    pub bundles: Vec<(usize, Option<TupleBundle>)>,
    /// Streams outside this shard's key range that it regenerated locally
    /// because an owned bundle references them (cross-shard joins).
    pub foreign_streams: usize,
}

impl ShardTask {
    /// The slice `key_range` of one block of `prefix`.
    pub(crate) fn new(
        prefix: &DeterministicPrefix,
        key_range: StreamKeyRange,
        base_pos: u64,
        num_values: usize,
    ) -> ShardTask {
        ShardTask {
            skeleton: Arc::clone(prefix.skeleton()),
            master_seed: prefix.master_seed(),
            key_range,
            base_pos,
            num_values,
        }
    }

    /// Split one block of `prefix` into exactly `min(parts, anchors)` tasks
    /// (at least one) whose contiguous, balanced key ranges jointly cover
    /// the key space.
    ///
    /// The ranges partition the skeleton's distinct bundle *anchor* keys —
    /// not all active streams — because anchors decide ownership, so
    /// partitioning them balances the bundles each task materializes: on a
    /// multi-table join every bundle anchors at its smallest key, and ranges
    /// drawn over the higher tables' keys would own nothing.
    pub fn plan(
        prefix: &DeterministicPrefix,
        parts: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Vec<ShardTask> {
        StreamKeyRange::partition(prefix.skeleton().anchor_keys(), parts)
            .into_iter()
            .map(|key_range| ShardTask::new(prefix, key_range, base_pos, num_values))
            .collect()
    }

    /// Execute the shard on up to `threads` threads — the only code that
    /// generates stream blocks and materializes bundles, whichever backend
    /// placed the task and wherever it runs.  Ownership is decided from the
    /// skeleton and the key range alone; the owned bundles' streams (foreign
    /// keys included) are generated into columnar buffers from `pool`,
    /// fanned out across streams, then the owned bundles are materialized,
    /// fanned out across bundles.  Each `(seed, position)` value is
    /// independent of all others, so both splits are bit-deterministic (see
    /// `crate::par`).  Concurrent shard tasks share the pool safely — each
    /// acquisition hands out a distinct buffer.
    pub fn run(&self, pool: &BlockBufferPool, threads: usize) -> Result<ShardOutput> {
        let skeleton = &self.skeleton;
        let active = skeleton.active_keys();

        // Ownership: a bundle belongs to the shard whose range contains its
        // smallest stream key; fully deterministic bundles anchor at MIN.
        // `needed` holds ascending indices into the skeleton's sorted
        // `active_keys` — every key a bundle references is active — so
        // generation indexes the precomputed recipes and never probes a map
        // per stream.  The all-covering range (the whole in-process block)
        // owns everything and skips the per-bundle walk altogether.
        let (owned, needed, foreign_streams): (Vec<usize>, Vec<usize>, usize) =
            if self.key_range == StreamKeyRange::all() {
                (
                    (0..skeleton.num_bundles()).collect(),
                    (0..active.len()).collect(),
                    0,
                )
            } else {
                // Per-bundle stream sets were computed once during the
                // skeleton pass.  Keys outside the range (cross-shard joins)
                // are regenerated locally: `(seed, pos)` addressing makes the
                // duplicate bit-identical to the owner shard's copy.
                let mut owned = Vec::new();
                let mut is_needed = vec![false; active.len()];
                for idx in 0..skeleton.num_bundles() {
                    let streams = skeleton.bundle_streams(idx);
                    let anchor = streams
                        .first()
                        .map_or(StreamKey::MIN, |&at| active[at as usize]);
                    if self.key_range.contains(anchor) {
                        owned.push(idx);
                        for &at in streams {
                            is_needed[at as usize] = true;
                        }
                    }
                }
                let needed: Vec<usize> = (0..active.len()).filter(|&at| is_needed[at]).collect();
                let foreign = needed
                    .iter()
                    .filter(|&&at| !self.key_range.contains(active[at]))
                    .count();
                (owned, needed, foreign)
            };

        // Seeds are pure in `(master_seed, key)` and recipes live on the
        // skeleton, so binding costs nothing regardless of plan size.
        let prefix = skeleton.bind(self.master_seed);
        // Reclaim cell storage freed since the last block (dropped results,
        // previous replenishment rounds) before adopting this block's cells.
        pool.sweep_cells();
        let cells = generate_streams(
            &prefix,
            &needed,
            self.base_pos,
            self.num_values,
            pool,
            threads,
        )?;
        let cells = session::CellData::scatter(skeleton.active_keys().len(), &needed, cells);

        // Replay the symbolic residue of every owned bundle over the block.
        // The bundles share the cell columns by refcount.
        let bundles = par::try_par_map_threads(&owned, threads, |&idx| {
            let bundle =
                session::materialize_bundle(&prefix, idx, &cells, self.base_pos, self.num_values)?;
            Ok((idx, bundle))
        })?;
        Ok(ShardOutput {
            bundles,
            foreign_streams,
        })
    }
}

/// The stream-generation half of a unit: generate the active streams at the
/// ascending `active_keys` indices `needed` for the window `base_pos ..
/// base_pos + num_values` into columnar buffers from `pool`, fanned out
/// across streams on up to `threads` threads, returning each stream's cells
/// in `needed` order.  [`ShardTask::run`] calls it
/// for a block's streams and [`crate::ExecSession::instantiate_streams`] for
/// the one stream a Gibbs run found dry.
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
    // Move each generated block's cells into recycled shared columns and
    // return the pooled buffer immediately — on errors too, so partial
    // work is metered and buffers survive for the next block
    // (replenishment window, repeated query, or a neighboring shard
    // task).  The first error in input order wins (the `crate::par`
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

/// The fused phase-2 unit's shared state: instantiate and aggregate a
/// repetition range of one block in a single pass, folding every bundle
/// straight into the aggregate ([`SampleJob::sample_rep_range`]).  A block
/// is never materialized: a range's cells live only while its bundles fold,
/// and no [`TupleBundle`], [`BundleSet`] or [`merge_block`] exists.
///
/// Ranges partition repetitions, as a set's aggregation
/// ([`crate::aggregate::evaluate_aggregate_threads`]) does, so every range
/// generates every active stream over its own window — `(seed, position)`
/// addressing makes each value the one a full block would hold.  Built
/// once per call by [`sample_parts`] and `'static`, so a scheduler can
/// carry it into its own threads.
pub struct SampleJob {
    prefix: DeterministicPrefix,
    base_pos: u64,
    num_values: usize,
    job: RepRangeJob,
}

impl SampleJob {
    /// The fused unit: generate every active stream's cells for the
    /// repetitions `reps` of the block (clamped to it) from `pool`, then
    /// fold every skeleton bundle, in order, into one [`AggPartial`] — the
    /// partial a set's aggregation computes over the materialized block,
    /// bit for bit.
    pub fn sample_rep_range(
        &self,
        pool: &BlockBufferPool,
        reps: Range<usize>,
    ) -> Result<AggPartial> {
        let hi = reps.end.min(self.num_values);
        let lo = reps.start.min(hi);
        let all: Vec<usize> = (0..self.prefix.num_active_streams()).collect();
        let base_pos = self.base_pos + lo as u64;
        let cells = generate_streams(&self.prefix, &all, base_pos, hi - lo, pool, 1)?;
        let cells = session::CellData::scatter(all.len(), &all, cells);
        let mut range = self.job.range(lo, hi);
        session::fold_bundles(&self.prefix, &cells, hi - lo, &mut range)?;
        Ok(range.finish())
    }
}

/// The driver of the fused unit, the set aggregation's twin over a block
/// that is never materialized: split `0..num_values` into
/// at most `parts` balanced ranges, let `run` compute one
/// [`SampleJob::sample_rep_range`] partial per range wherever the backend
/// places work, and merge them.  The result — groups, their order, every
/// sample — is bit-identical to aggregating
/// [`crate::ExecBackend::instantiate_block`]'s set, and the call errs if
/// and only if that would.  Returns `(samples, parts spawned, merge nanoseconds)`.
#[allow(clippy::too_many_arguments)]
pub fn sample_parts<R>(
    prefix: &DeterministicPrefix,
    base_pos: u64,
    num_values: usize,
    agg: &AggregateSpec,
    group_by: &[String],
    final_predicate: Option<&Expr>,
    parts: usize,
    run: R,
) -> Result<(QueryResultSamples, usize, u64)>
where
    R: FnOnce(&Arc<SampleJob>, Vec<Range<usize>>) -> Result<Vec<AggPartial>>,
{
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
    let job = Arc::new(SampleJob {
        prefix: prefix.clone(),
        base_pos,
        num_values,
        job: RepRangeJob::new(skeleton.schema(), layout, agg, final_predicate),
    });
    // A zero-position block still decides which bundles — so which groups —
    // it keeps, and still runs every VG function's parameter checks: one
    // empty range does both.
    let ranges = match num_values {
        0 => std::iter::once(0..0).collect(),
        n => aggregate::rep_ranges(n, parts),
    };
    let spawned = ranges.len();
    let partials = run(&job, ranges)?;
    let (samples, merge_ns) = job.job.finish(num_values, group_by, partials, key_of)?;
    Ok((samples, spawned, merge_ns))
}

/// Assemble one block from its shards' `(skeleton index, bundle)` partials:
/// every bundle lands in its skeleton slot — partials may arrive in any
/// order, so the flattened output *is* the skeleton's bundle order — and
/// never-present bundles drop out afterwards, which preserves the relative
/// order `Executor::execute` produces.  An index outside the skeleton is a
/// corrupt partial (they also arrive off the wire) and errors rather than
/// panics.
pub fn merge_block(
    prefix: &DeterministicPrefix,
    num_values: usize,
    partials: impl IntoIterator<Item = Vec<(usize, Option<TupleBundle>)>>,
) -> Result<BundleSet> {
    let skeleton = prefix.skeleton();
    let mut slots: Vec<Option<TupleBundle>> = Vec::with_capacity(skeleton.num_bundles());
    slots.resize_with(skeleton.num_bundles(), || None);
    for partial in partials {
        for (idx, bundle) in partial {
            if idx >= slots.len() {
                return Err(Error::Invalid(format!(
                    "shard partial holds bundle index {idx} outside the skeleton ({} bundles)",
                    slots.len()
                )));
            }
            slots[idx] = bundle;
        }
    }
    Ok(BundleSet {
        schema: skeleton.schema().clone(),
        bundles: slots.into_iter().flatten().collect(),
        num_reps: num_values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecBackend, InProcessBackend};
    use crate::expr::Expr;
    use crate::plan::{scalar_random_table, PlanNode};
    use crate::session::ExecSession;
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
    /// merged; also the foreign streams the units regenerated.
    fn sharded_block(
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        shards: usize,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> (BundleSet, usize) {
        let outputs: Vec<ShardOutput> = ShardTask::plan(prefix, shards, base_pos, num_values)
            .iter()
            .map(|task| task.run(pool, threads).unwrap())
            .collect();
        let foreign = outputs.iter().map(|o| o.foreign_streams).sum();
        let set = merge_block(prefix, num_values, outputs.into_iter().map(|o| o.bundles));
        (set.unwrap(), foreign)
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
                let (block, _) = sharded_block(prefix, &pool, shards, threads, 0, 64);
                assert_sets_identical(&reference, &block);
            }
        }
    }

    #[test]
    fn planner_never_exceeds_bundle_anchors() {
        let catalog = catalog();
        let plan = complex_plan();
        let session = ExecSession::prepare(&plan, &catalog, 7).unwrap();
        let prefix = session.prefix().unwrap();
        let skeleton = prefix.skeleton();
        // Single-stream bundles: every active stream is some bundle's anchor.
        let anchors = skeleton.anchor_keys().len();
        assert_eq!(anchors, skeleton.num_active_streams());
        assert!(anchors >= 2);
        let planned = |parts| ShardTask::plan(prefix, parts, 0, 8).len();
        assert_eq!(planned(3), 3);
        assert_eq!(planned(100), anchors);
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
        let mut seen = std::collections::BTreeSet::new();
        for planned in ShardTask::plan(prefix, 3, 0, 4) {
            let task = ShardTask {
                skeleton: Arc::clone(skeleton),
                master_seed: 11,
                key_range: planned.key_range,
                base_pos: 0,
                num_values: 4,
            };
            let output = task.run(&pool, 1).unwrap();
            // Single-stream bundles never cross range boundaries.
            assert_eq!(output.foreign_streams, 0);
            for (idx, _) in output.bundles {
                assert!(seen.insert(idx), "bundle {idx} owned by two shards");
            }
        }
        assert_eq!(seen.len(), skeleton.num_bundles());
    }

    #[test]
    fn merge_block_rejects_a_bundle_index_outside_the_skeleton() {
        let catalog = catalog();
        let session = ExecSession::prepare(&complex_plan(), &catalog, 11).unwrap();
        let prefix = session.prefix().unwrap();
        // One past the last slot — what a corrupt worker partial could hold.
        let partial = vec![(prefix.num_bundles(), None)];
        let err = merge_block(prefix, 4, [partial]).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
    }

    #[test]
    fn cross_shard_joins_regenerate_foreign_streams_and_stay_identical() {
        let pool = BlockBufferPool::new();
        // Two uncertain tables (tags 1 and 2) joined on cid: every bundle
        // references one stream from each table, so any split between the
        // tables makes every bundle cross-shard — the owning shard must
        // regenerate the foreign stream locally and still merge exactly.
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
        for shards in [2usize, 3, 7] {
            let (block, foreign) = sharded_block(prefix, &pool, shards, 2, 0, 32);
            assert_sets_identical(&reference, &block);
            assert!(
                foreign > 0,
                "{shards} shards over a two-table join must cross ranges"
            );
        }
        // One shard owns everything: nothing is foreign.
        assert_eq!(sharded_block(prefix, &pool, 1, 1, 0, 32).1, 0);

        // The planner partitions *anchors* (all tag-1 here), so both shards
        // of a 2-way split own bundles — the non-anchor tag-2 keys never
        // starve a range of work.
        let skeleton = prefix.skeleton();
        assert_eq!(skeleton.anchor_keys().len(), 8);
        assert_eq!(skeleton.num_active_streams(), 16);
        for task in ShardTask::plan(prefix, 2, 0, 4) {
            let output = task.run(&pool, 2).unwrap();
            assert_eq!(output.bundles.len(), 4, "ownership must balance 4/4");
        }
    }

    #[test]
    fn deterministic_only_plans_run_on_one_shard() {
        let pool = BlockBufferPool::new();
        let catalog = catalog();
        let session = ExecSession::prepare(&PlanNode::scan("regions"), &catalog, 1).unwrap();
        let prefix = session.prefix().unwrap();
        assert_eq!(ShardTask::plan(prefix, 4, 0, 3).len(), 1);
        let (block, _) = sharded_block(prefix, &pool, 4, 4, 0, 3);
        assert_eq!(block.len(), 4);
        assert!(block.seeds().is_empty());
    }

    #[test]
    fn sharded_sessions_are_bit_identical_end_to_end() {
        // A session's blocks, across windows, equal the same windows split
        // into three units and merged.
        let catalog = catalog();
        let plan = complex_plan();
        let mut session = ExecSession::prepare(&plan, &catalog, 9).unwrap();
        let pool = BlockBufferPool::new();
        for (base, n) in [(0u64, 16usize), (16, 8), (1000, 4)] {
            let a = session.instantiate_block(&catalog, base, n).unwrap();
            let prefix = session.prefix().unwrap();
            let (b, _) = sharded_block(prefix, &pool, 3, 2, base, n);
            assert_sets_identical(&a, &b);
        }
    }
}
