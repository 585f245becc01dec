//! [`FairBackend`]: a per-query [`ExecBackend`] adapter that routes a
//! query's phase-2 and aggregation work through the server's shared
//! [`FairScheduler`] instead of a private thread fan-out.
//!
//! The server hands every admitted query its own `FairBackend` wrapping
//! the server-wide inner backend (in-process, sharded, or process).  It is
//! one more place to run the same units: a query is one
//! [`mcdbr_exec::SampleJob`] unit per scheduler pool thread, each
//! instantiating and aggregating one repetition range
//! ([`mcdbr_exec::sample_parts`]); a bare block is [`ShardTask`]s merged
//! by [`mcdbr_exec::merge_block`], and the aggregate of a set the
//! repetition ranges of [`mcdbr_exec::aggregate_parts`].  Every unit is
//! submitted under the query's id, so the scheduler's round-robin ring
//! interleaves *tasks* of concurrent queries rather than running the
//! queries serially.
//!
//! Bit-identity is inherited, not re-argued: the unit bodies and merges
//! are the ones every backend runs, so results equal a single-threaded run
//! of the same query bit for bit — the property
//! `tests/server_concurrency.rs` asserts across all three inner backends.
//!
//! An inner backend whose units do not run in this process
//! ([`ExecBackend::units_run_in_process`] is false — the **process**
//! dispatcher) keeps its own fan-out and the two-call path: its block
//! instantiation is one coordinator-side conversation holding the
//! dispatcher's state lock, so it runs as a *single* scheduler unit (the
//! blocking wire I/O occupies one pool slot; fairness is at block
//! granularity).  Aggregation still fans out per rep range, since the
//! process backend aggregates locally anyway.
//!
//! **Cancellation** is cooperative: every query carries a
//! [`mcdbr_exec::CancelToken`] (deadline-armed when the server config sets
//! a per-query deadline), checked on entry to every call — a fused query,
//! or block instantiation and aggregation.  A query that blows its
//! deadline fails with a typed [`mcdbr_storage::Error::Timeout`] at its
//! next boundary — already completed work is simply dropped, and no
//! scheduler unit is ever interrupted mid-flight.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mcdbr_exec::{
    aggregate_parts, merge_block, sample_parts, AggregateSpec, BlockBufferPool, BundleSet,
    CancelToken, DeterministicPrefix, ExecBackend, Expr, PlanNode, QueryResultSamples, ShardStats,
    ShardTask,
};
use mcdbr_storage::{Catalog, Result};

use crate::sched::FairScheduler;

/// A per-query scheduler-routed backend.  See the [module docs](self).
pub struct FairBackend {
    inner: Arc<dyn ExecBackend>,
    sched: Arc<FairScheduler>,
    pool: Arc<BlockBufferPool>,
    /// The query id the scheduler keys fairness by.
    qid: u64,
    /// The query's cancellation token, checked cooperatively on entry to
    /// every call (a fused query, block instantiation, aggregation) — a
    /// deadlined or cancelled query stops before starting its next call
    /// rather than being interrupted mid-unit, so partial work is never
    /// observable and the scheduler pool is never poisoned.
    cancel: CancelToken,
    /// Fused, shard and rep-range units this query fanned out into.
    units: AtomicUsize,
    /// Cumulative queue wait across this query's units (shared with the
    /// unit closures).
    wait_ns: Arc<AtomicU64>,
    merge_ns: AtomicU64,
}

impl std::fmt::Debug for FairBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FairBackend")
            .field("inner", &self.inner.name())
            .field("qid", &self.qid)
            .finish()
    }
}

impl FairBackend {
    /// Wrap `inner` for one query.  `pool` must be the same pool the
    /// session passes to [`ExecBackend::instantiate_block`] — the server
    /// wires one pool everywhere, and scheduler units (being `'static`)
    /// capture this `Arc` rather than the borrowed parameter.
    ///
    /// `cancel` carries the query's deadline (or is unbounded): the
    /// backend checks it at block boundaries, so a timed-out query fails
    /// with [`mcdbr_storage::Error::Timeout`] before its next block.
    pub fn new(
        inner: Arc<dyn ExecBackend>,
        sched: Arc<FairScheduler>,
        pool: Arc<BlockBufferPool>,
        qid: u64,
        cancel: CancelToken,
    ) -> Self {
        FairBackend {
            inner,
            sched,
            pool,
            qid,
            cancel,
            units: AtomicUsize::new(0),
            wait_ns: Arc::new(AtomicU64::new(0)),
            merge_ns: AtomicU64::new(0),
        }
    }

    /// Total nanoseconds this query's units spent waiting in the scheduler
    /// queue — the per-query contention signal the `QueryStats` frame
    /// reports.
    pub fn queue_wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }

    /// How many shard-task / rep-range units the query fanned out into.
    pub fn units_spawned(&self) -> usize {
        self.units.load(Ordering::Relaxed)
    }
}

impl ExecBackend for FairBackend {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn prepare_dispatch(
        &self,
        plan: &PlanNode,
        catalog: &Catalog,
        prefix: &DeterministicPrefix,
    ) -> Result<()> {
        self.inner.prepare_dispatch(plan, catalog, prefix)
    }

    fn instantiate_block(
        &self,
        prefix: &DeterministicPrefix,
        _pool: &BlockBufferPool,
        _threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<BundleSet> {
        self.cancel.check()?;

        if !self.inner.units_run_in_process() {
            // One delegating unit.  The dispatcher's conversation is
            // serialized behind its own state lock, and the prefix is
            // re-derivable (`bind` is a pure function of skeleton + seed,
            // and the skeleton Arc — which the dispatcher keys primed plans
            // by — is shared).
            let inner = Arc::clone(&self.inner);
            let pool = Arc::clone(&self.pool);
            let skeleton = Arc::clone(prefix.skeleton());
            let master_seed = prefix.master_seed();
            self.units.fetch_add(1, Ordering::Relaxed);
            let mut out = self.sched.run_batch(
                self.qid,
                vec![move || {
                    let prefix = skeleton.bind(master_seed);
                    inner.instantiate_block(&prefix, &pool, 1, base_pos, num_values)
                }],
                &self.wait_ns,
            );
            return out.pop().expect("one unit, one result");
        }

        // One shard task per scheduler pool thread.
        let jobs: Vec<_> = ShardTask::plan(prefix, self.sched.pool_size(), base_pos, num_values)
            .into_iter()
            .map(|task| {
                let pool = Arc::clone(&self.pool);
                move || task.run(&pool, 1)
            })
            .collect();
        self.units.fetch_add(jobs.len(), Ordering::Relaxed);
        let mut partials = Vec::with_capacity(jobs.len());
        for output in self.sched.run_batch(self.qid, jobs, &self.wait_ns) {
            partials.push(output?.bundles);
        }

        let merge_start = Instant::now();
        let set = merge_block(prefix, num_values, partials);
        self.merge_ns
            .fetch_add(merge_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        set
    }

    fn aggregate(
        &self,
        set: &BundleSet,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
        _threads: usize,
    ) -> Result<QueryResultSamples> {
        self.cancel.check()?;
        let parts = self.sched.pool_size();
        let (samples, _, merge_ns) =
            aggregate_parts(set, agg, group_by, final_predicate, parts, |job, ranges| {
                // A lone range gains nothing from a scheduler hop (or from
                // the clone below): run it on the calling thread.
                if ranges.len() <= 1 {
                    return ranges
                        .into_iter()
                        .map(|reps| job.aggregate_rep_range(set, reps))
                        .collect();
                }
                // The set travels into the units as a cheap Arc'd clone
                // (bundle chains share `Arc<Column>` segments).
                let owned = Arc::new(set.clone());
                self.units.fetch_add(ranges.len(), Ordering::Relaxed);
                let jobs: Vec<_> = ranges
                    .into_iter()
                    .map(|reps| {
                        let (job, set) = (Arc::clone(job), Arc::clone(&owned));
                        move || job.aggregate_rep_range(&set, reps)
                    })
                    .collect();
                self.sched
                    .run_batch(self.qid, jobs, &self.wait_ns)
                    .into_iter()
                    .collect()
            })?;
        self.merge_ns.fetch_add(merge_ns, Ordering::Relaxed);
        Ok(samples)
    }

    fn sample_block(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
    ) -> Result<QueryResultSamples> {
        if !self.inner.units_run_in_process() {
            // The two calls, each a boundary that checks `cancel`: one
            // delegating unit for the block, rep ranges for the aggregate.
            let set = self.instantiate_block(prefix, pool, threads, base_pos, num_values)?;
            return self.aggregate(&set, agg, group_by, final_predicate, threads);
        }
        self.cancel.check()?;

        // One fused unit per scheduler pool thread.
        let parts = self.sched.pool_size();
        let (samples, _, merge_ns) = sample_parts(
            prefix,
            base_pos,
            num_values,
            agg,
            group_by,
            final_predicate,
            parts,
            |job, ranges| {
                self.pool.sweep_cells();
                self.units.fetch_add(ranges.len(), Ordering::Relaxed);
                let jobs: Vec<_> = ranges
                    .into_iter()
                    .map(|reps| {
                        let (job, pool) = (Arc::clone(job), Arc::clone(&self.pool));
                        move || job.sample_rep_range(&pool, reps)
                    })
                    .collect();
                self.sched
                    .run_batch(self.qid, jobs, &self.wait_ns)
                    .into_iter()
                    .collect()
            },
        )?;
        self.merge_ns.fetch_add(merge_ns, Ordering::Relaxed);
        Ok(samples)
    }

    fn shard_stats(&self) -> ShardStats {
        let mut stats = self.inner.shard_stats();
        stats.shards_spawned += self.units.load(Ordering::Relaxed);
        stats.shard_merge_ns += self.merge_ns.load(Ordering::Relaxed);
        stats
    }
}
