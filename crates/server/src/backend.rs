//! [`FairBackend`]: a per-query [`ExecBackend`] adapter that routes a
//! query's phase-2 and aggregation work through the server's shared
//! [`FairScheduler`] instead of a private thread fan-out.
//!
//! The server hands every admitted query its own `FairBackend` wrapping
//! the server-wide inner backend (in-process or process).  It is one of the
//! three places a unit runs, and like every placement it only generates:
//! an in-process block's cells are one generation unit
//! ([`mcdbr_exec::ShardTask`]) per scheduler pool thread, each run on one
//! thread, and the caller's thread folds them once straight into the
//! aggregate (`ExecSession::sample_block`, through
//! [`mcdbr_exec::fold_block`]) or assembles them into a block (the trait's
//! provided `instantiate_block`).  Every unit is submitted under the
//! query's id, so the scheduler's round-robin ring interleaves *tasks* of
//! concurrent queries rather than running the queries serially.  The
//! aggregate of a set (a fallback plan's) is one unit that delegates to
//! the inner backend and folds the set on the one pool thread it holds.
//!
//! Bit-identity is inherited, not re-argued: the unit bodies and folds
//! are the ones every backend runs, so results equal a single-threaded run
//! of the same query bit for bit — the property
//! `tests/server_concurrency.rs` asserts across both inner backends.
//!
//! An inner backend whose units do not run in this process
//! ([`ExecBackend::units_run_in_process`] is false — the **process**
//! dispatcher) places generation itself: its block is one coordinator-side
//! conversation holding the dispatcher's state lock, so a query's block
//! runs as a *single* scheduler unit (the blocking wire I/O occupies one
//! pool slot; fairness is at block granularity) that fetches the inner
//! backend's cells.
//!
//! **Cancellation** is cooperative: every query carries a
//! [`mcdbr_exec::CancelToken`] (deadline-armed when the server config sets
//! a per-query deadline), checked on entry to every call — block
//! generation and aggregation — and when a block's cells come back.  A
//! query that blows its deadline fails with a typed
//! [`mcdbr_storage::Error::Timeout`] at its next boundary — already
//! completed work is simply dropped, and no scheduler unit is ever
//! interrupted mid-flight.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use mcdbr_exec::{
    AggregateSpec, BlockBufferPool, BundleSet, CancelToken, CellCols, DeterministicPrefix,
    ExecBackend, Expr, PlanNode, QueryResultSamples, ShardStats, ShardTask,
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
    /// every call (block generation, aggregation) — a
    /// deadlined or cancelled query stops before starting its next call
    /// rather than being interrupted mid-unit, so partial work is never
    /// observable and the scheduler pool is never poisoned.
    cancel: CancelToken,
    /// Units this query fanned out into.
    units: AtomicUsize,
    /// Cumulative queue wait across this query's units (shared with the
    /// unit closures).
    wait_ns: Arc<AtomicU64>,
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
    /// session passes to [`ExecBackend::instantiate_cells`] — the server
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
        }
    }

    /// Total nanoseconds this query's units spent waiting in the scheduler
    /// queue — the per-query contention signal the `QueryStats` frame
    /// reports.
    pub fn queue_wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }

    /// How many scheduler units the query fanned out into.
    pub fn units_spawned(&self) -> usize {
        self.units.load(Ordering::Relaxed)
    }

    /// Run `unit` as one scheduler unit of this query.
    fn run_unit<T: Send + 'static>(&self, unit: impl FnOnce() -> T + Send + 'static) -> T {
        self.units.fetch_add(1, Ordering::Relaxed);
        let mut out = self.sched.run_batch(self.qid, vec![unit], &self.wait_ns);
        out.pop().expect("one unit, one result")
    }

    /// Run `call` on the inner backend as one scheduler unit, over the
    /// server's pool and `prefix` re-derived inside the unit (`bind` is a
    /// pure function of skeleton + seed, and the skeleton Arc — which the
    /// process dispatcher keys primed plans by — is shared).
    fn on_inner<T: Send + 'static>(
        &self,
        prefix: &DeterministicPrefix,
        call: impl FnOnce(&dyn ExecBackend, &DeterministicPrefix, &BlockBufferPool) -> T
            + Send
            + 'static,
    ) -> T {
        let (inner, pool) = (Arc::clone(&self.inner), Arc::clone(&self.pool));
        let (skeleton, master_seed) = (Arc::clone(prefix.skeleton()), prefix.master_seed());
        self.run_unit(move || call(&*inner, &skeleton.bind(master_seed), &pool))
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

    fn instantiate_cells(
        &self,
        prefix: &DeterministicPrefix,
        _pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<Vec<CellCols>> {
        self.cancel.check()?;
        let cells = if self.inner.units_run_in_process() {
            // One generation unit per scheduler pool thread, each on one
            // thread, so the block stays inside the bounded pool.
            let tasks = ShardTask::plan(prefix, self.sched.pool_size(), base_pos, num_values);
            self.units.fetch_add(tasks.len(), Ordering::Relaxed);
            let jobs: Vec<_> = tasks
                .into_iter()
                .map(|task| {
                    let pool = Arc::clone(&self.pool);
                    move || task.run(&pool, 1)
                })
                .collect();
            let outputs = self.sched.run_batch(self.qid, jobs, &self.wait_ns);
            let outputs = outputs.into_iter().collect::<Result<Vec<_>>>()?;
            outputs
                .into_iter()
                .flatten()
                .map(|(_, cells)| cells)
                .collect()
        } else {
            self.on_inner(prefix, move |inner, prefix, pool| {
                inner.instantiate_cells(prefix, pool, threads, base_pos, num_values)
            })?
        };
        // The cells' return is the block's next boundary.
        self.cancel.check()?;
        Ok(cells)
    }

    fn aggregate(
        &self,
        set: &BundleSet,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
        threads: usize,
    ) -> Result<QueryResultSamples> {
        self.cancel.check()?;
        // The set travels into the unit as a cheap clone (bundle values
        // share their `Arc<Column>`).
        let inner = Arc::clone(&self.inner);
        let (set, agg, group_by) = (set.clone(), agg.clone(), group_by.to_vec());
        let final_predicate = final_predicate.cloned();
        self.run_unit(move || {
            inner.aggregate(&set, &agg, &group_by, final_predicate.as_ref(), threads)
        })
    }

    fn shard_stats(&self) -> ShardStats {
        let mut stats = self.inner.shard_stats();
        stats.shards_spawned += self.units.load(Ordering::Relaxed);
        stats
    }
}
