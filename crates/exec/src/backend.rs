//! Pluggable phase-2 execution backends.
//!
//! Phase 1 of a session produces a [`DeterministicPrefix`]; phase 2 turns
//! it into samples.  A placement only generates: it supplies every active
//! stream's cells ([`ExecBackend::instantiate_cells`]), and the skeleton,
//! which every placement holds, supplies the rest.  A Monte Carlo query
//! folds those cells once, on the calling thread, straight into the
//! aggregate ([`crate::shard::fold_block`], called by
//! [`crate::ExecSession::sample_block`]), so no block is materialized.  The
//! Gibbs looper reads the cells itself.  Callers that need the bundles (the
//! reference checks, the traced replay) call
//! [`ExecBackend::instantiate_block`], which assembles the block from the
//! cells ([`crate::shard::assemble_block`]) in one place;
//! [`ExecBackend::aggregate`] folds such a set once, on the calling thread
//! ([`aggregate::evaluate_aggregate`], the trait's default), as a sampled
//! block is folded.  A backend decides only *where* the generation
//! units ([`crate::shard::ShardTask`]) run — the [`ExecBackend`] trait is
//! that seam, and a unit runs in one of three places:
//!
//! * [`InProcessBackend`] — this process's threads (`crate::par`): a
//!   block's streams fanned out across the threads (the trait's default).
//! * the server's scheduler (`mcdbr_server::FairBackend`), which places the
//!   same units on its shared pool;
//! * worker processes (`mcdbr_dispatch::ProcessBackend`), one unit per
//!   worker, whose cells come back over the wire.
//!
//! Every backend is bound by the same contract as the thread fan-out: **bit
//! identical results** for every backend, unit count, and thread count.
//! The position-addressable PRNG streams make this cheap to honor — the
//! value of stream `s` at position `i` never depends on who generates it.
//!
//! Sessions, engines and loopers run on [`InProcessBackend`] unless the
//! caller passes another one to their `with_backend`; nothing in the
//! environment changes that choice.

use mcdbr_storage::Result;

use crate::aggregate::{self, AggregateSpec, QueryResultSamples};
use crate::bundle::BundleSet;
use crate::expr::Expr;
use crate::pool::BlockBufferPool;
use crate::session::{CellCols, DeterministicPrefix};
use crate::shard::{assemble_block, generate_streams};

/// Counters a backend exposes about where its units ran.  The in-process
/// backend keeps no counters, so its stats stay zero; the multi-process
/// dispatcher counts its dispatched units, wire traffic and failures,
/// and the server's scheduler adds the units it placed.
///
/// Counters are cumulative over the backend's lifetime; use
/// [`ShardStats::since`] to attribute a window of work (engines and loopers
/// do this to report per-run numbers).  Note the windows attribute *the
/// backend's* activity during the run: when one backend is deliberately
/// shared across loopers/engines running concurrently, a run's window also
/// includes its neighbors' shards — results are unaffected, only the
/// per-run attribution blurs.  Give each concurrent run its own backend
/// when exact per-run counters matter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Units spawned outside the caller's thread fan-out: the multi-process
    /// dispatcher counts the generation units it dispatched to workers
    /// (equal to `tasks_dispatched`), and the server's scheduler adds every
    /// unit it placed.
    pub shards_spawned: usize,
    /// Worker OS processes spawned by a multi-process backend (initial pool
    /// fills and crash respawns alike; 0 on in-process backends).
    pub workers_spawned: usize,
    /// Shard tasks serialized and dispatched to worker processes (0 on
    /// in-process backends; tasks that fall back to local execution — e.g.
    /// non-wire-serializable plans — are not counted here).
    pub tasks_dispatched: usize,
    /// Bytes written to worker processes (frames: handshakes, plans, tasks).
    pub wire_bytes_sent: u64,
    /// Bytes read back from worker processes (stream cells, stats,
    /// errors).
    pub wire_bytes_received: u64,
    /// Workers reaped after a failure and replaced at once by a cold one
    /// (the dispatcher's one failure rule).
    pub worker_respawns: usize,
    /// Dispatched tasks a *warm* worker served from its own session cache —
    /// the worker skipped phase 1 because it had already built the plan's
    /// skeleton for an earlier task.
    pub worker_warm_hits: usize,
    /// Task replies not complete within the task read deadline: the worker
    /// was alive but silent (hung, stalled, or its reply was lost), so the
    /// failure rule replaced it.
    pub deadline_timeouts: usize,
    /// Dispatched units re-run in this process because their worker failed:
    /// a send error, EOF, a corrupt or mismatched reply, the read deadline,
    /// or an `Error` frame the worker reported.
    pub task_retries: usize,
}

impl ShardStats {
    /// The activity between an `earlier` snapshot and this one.
    pub fn since(&self, earlier: ShardStats) -> ShardStats {
        ShardStats {
            shards_spawned: self.shards_spawned.saturating_sub(earlier.shards_spawned),
            workers_spawned: self.workers_spawned.saturating_sub(earlier.workers_spawned),
            tasks_dispatched: self
                .tasks_dispatched
                .saturating_sub(earlier.tasks_dispatched),
            wire_bytes_sent: self.wire_bytes_sent.saturating_sub(earlier.wire_bytes_sent),
            wire_bytes_received: self
                .wire_bytes_received
                .saturating_sub(earlier.wire_bytes_received),
            worker_respawns: self.worker_respawns.saturating_sub(earlier.worker_respawns),
            worker_warm_hits: self
                .worker_warm_hits
                .saturating_sub(earlier.worker_warm_hits),
            deadline_timeouts: self
                .deadline_timeouts
                .saturating_sub(earlier.deadline_timeouts),
            task_retries: self.task_retries.saturating_sub(earlier.task_retries),
        }
    }
}

/// A phase-2 execution strategy: generate a block's stream cells against a
/// bound prefix, and evaluate per-repetition aggregates over a set.
///
/// A backend overrides [`ExecBackend::instantiate_cells`] to place
/// generation; the provided [`ExecBackend::instantiate_block`] assembles
/// the bundles from those cells and [`crate::ExecSession::sample_block`]
/// folds them, so the Gibbs looper's draw, a block and a sampled block all
/// reach the override.
///
/// `threads` is the caller's generation width (sessions pass
/// [`crate::par::default_threads`]); backends are free to interpret it as
/// pool width or concurrent shard slots, but never in a way that changes
/// results.  No aggregate splits by it: every fold runs on one thread.
pub trait ExecBackend: std::fmt::Debug + Send + Sync {
    /// A short human-readable strategy name (`"in-process"`, `"process"`).
    fn name(&self) -> &'static str;

    /// Every active stream's cells for positions `base_pos .. base_pos +
    /// num_values` of `prefix`, in `active_keys` order, bit-identical
    /// wherever they are generated.  The default generates them on this
    /// process's threads ([`crate::shard::ShardTask`]'s unit body).
    ///
    /// `pool` supplies the reusable columnar block buffers (the caller's —
    /// usually a session's — [`BlockBufferPool`]); a stream generated here
    /// acquires one buffer and releases it once its cells are moved out, so
    /// repeated blocks reuse buffers instead of reallocating.
    fn instantiate_cells(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<Vec<CellCols>> {
        let all: Vec<usize> = (0..prefix.num_active_streams()).collect();
        generate_streams(prefix, &all, base_pos, num_values, pool, threads)
    }

    /// Materialize stream positions `base_pos .. base_pos + num_values`
    /// against `prefix`, bit-identical to [`crate::Executor::execute`] at
    /// the same options: [`crate::shard::assemble_block`] over
    /// [`ExecBackend::instantiate_cells`].
    fn instantiate_block(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<BundleSet> {
        let cells = self.instantiate_cells(prefix, pool, threads, base_pos, num_values)?;
        assemble_block(prefix, cells, base_pos, num_values, threads)
    }

    /// Evaluate `agg` over `set` once per repetition, bit-identical to
    /// [`crate::aggregate::evaluate_aggregate`] — which the default calls,
    /// on the calling thread; `threads` is not read.
    fn aggregate(
        &self,
        set: &BundleSet,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
        _threads: usize,
    ) -> Result<QueryResultSamples> {
        aggregate::evaluate_aggregate(set, agg, group_by, final_predicate)
    }

    /// Placement counters (zero for backends that keep none).
    fn shard_stats(&self) -> ShardStats {
        ShardStats::default()
    }

    /// Dispatch-priming hook: sessions call this before every cached-prefix
    /// block so a multi-process backend can learn (once per
    /// [`crate::PlanKey`]) the plan and catalog behind a prefix's skeleton
    /// — the wire protocol ships both to cold workers, and the prefix holds
    /// only the key its skeleton was built under
    /// ([`crate::PlanSkeleton::key`]).  In-process backends keep the
    /// default no-op.
    fn prepare_dispatch(
        &self,
        _plan: &crate::plan::PlanNode,
        _catalog: &mcdbr_storage::Catalog,
        _prefix: &DeterministicPrefix,
    ) -> Result<()> {
        Ok(())
    }

    /// Whether this backend's [`ExecBackend::instantiate_cells`] is the
    /// trait's local generation, so a scheduler wrapped around it (the
    /// server's `FairBackend`) may place the block as
    /// [`crate::shard::ShardTask`] units itself.  For every other backend —
    /// units that run elsewhere, or anything a custom implementation does
    /// per block — it must go through the backend's own calls, hence the
    /// default.
    fn units_run_in_process(&self) -> bool {
        false
    }
}

/// The in-process thread-pool backend: a block's cells (the trait's
/// default) are every active stream fanned out across worker threads via
/// [`crate::par`].
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessBackend;

impl InProcessBackend {
    /// Create the in-process backend.
    pub fn new() -> Self {
        InProcessBackend
    }
}

impl ExecBackend for InProcessBackend {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn units_run_in_process(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stats_windows_subtract() {
        let earlier = ShardStats {
            shards_spawned: 3,
            workers_spawned: 1,
            tasks_dispatched: 4,
            wire_bytes_sent: 100,
            wire_bytes_received: 200,
            worker_respawns: 0,
            worker_warm_hits: 1,
            deadline_timeouts: 1,
            task_retries: 1,
        };
        let later = ShardStats {
            shards_spawned: 10,
            workers_spawned: 3,
            tasks_dispatched: 9,
            wire_bytes_sent: 1100,
            wire_bytes_received: 2200,
            worker_respawns: 2,
            worker_warm_hits: 6,
            deadline_timeouts: 3,
            task_retries: 4,
        };
        assert_eq!(
            later.since(earlier),
            ShardStats {
                shards_spawned: 7,
                workers_spawned: 2,
                tasks_dispatched: 5,
                wire_bytes_sent: 1000,
                wire_bytes_received: 2000,
                worker_respawns: 2,
                worker_warm_hits: 5,
                deadline_timeouts: 2,
                task_retries: 3,
            }
        );
        assert_eq!(earlier.since(later), ShardStats::default());
        // The in-process backend keeps no counters.
        assert_eq!(InProcessBackend::new().shard_stats(), ShardStats::default());
        assert_eq!(InProcessBackend::new().name(), "in-process");
    }
}
