//! Pluggable phase-2 execution backends.
//!
//! Phase 1 of a session produces a [`DeterministicPrefix`]; phase 2 turns
//! it into samples.  A Monte Carlo query takes one call,
//! [`ExecBackend::sample_block`]: in process it runs one fused unit per
//! repetition range ([`crate::shard::SampleJob`]) that generates the
//! range's stream values and folds every bundle straight into the
//! aggregate, so no block is ever materialized.  Callers that need the
//! bundles themselves (the Gibbs looper, the reference checks) call
//! [`ExecBackend::instantiate_block`], which runs
//! [`crate::shard::ShardTask`] units and merges them with
//! [`crate::shard::merge_block`]; [`ExecBackend::aggregate`] aggregates
//! such a set by repetition ranges on this process's threads
//! ([`aggregate::evaluate_aggregate_threads`], the one set aggregator and
//! the trait's default).  A backend decides only *where* the units run —
//! the [`ExecBackend`] trait is that seam, and a unit runs in one of three
//! places:
//!
//! * [`InProcessBackend`] — this process's threads (`crate::par`): one
//!   fused unit per thread, or one all-covering block unit whose streams
//!   and bundles fan out across the threads.
//! * the server's scheduler (`mcdbr_server::FairBackend`), which places the
//!   same fused units on its shared pool;
//! * worker processes (`mcdbr_dispatch::ProcessBackend`), one block unit
//!   per worker.
//!
//! Every backend is bound by the same contract as the thread fan-out: **bit
//! identical results** for every backend, unit count, and thread count.
//! The position-addressable PRNG streams make this cheap to honor — the
//! value of stream `s` at position `i` never depends on who generates it.
//!
//! Sessions, engines and loopers run on [`InProcessBackend`] unless the
//! caller passes another one to their `with_backend`; nothing in the
//! environment changes that choice.

use std::ops::Range;
use std::sync::Arc;

use mcdbr_storage::Result;

use crate::aggregate::{self, AggregateSpec, QueryResultSamples};
use crate::bundle::BundleSet;
use crate::expr::Expr;
use crate::par;
use crate::pool::BlockBufferPool;
use crate::session::DeterministicPrefix;
use crate::shard::{merge_block, sample_parts, SampleJob, ShardTask};

/// Counters a backend exposes about where its units ran.  The in-process
/// backend keeps no counters, so its stats stay zero; the multi-process
/// dispatcher counts its dispatched units, wire traffic and fault ladder,
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
    /// dispatcher counts the block units it dispatched to workers (equal to
    /// `tasks_dispatched`), and the server's scheduler adds every unit it
    /// placed.
    pub shards_spawned: usize,
    /// Nanoseconds spent merging unit partials back together: the
    /// dispatcher's block merges ([`merge_block`]), and the server's merges
    /// of the partials of its units.
    pub shard_merge_ns: u64,
    /// Streams regenerated by a shard *outside* its own key range because a
    /// bundle it owns references them (cross-shard joins) — the duplication
    /// the zero-coordination shard contract trades for independence, on top
    /// of the logical `values_materialized` count.
    pub cross_shard_regens: usize,
    /// Worker OS processes spawned by a multi-process backend (initial pool
    /// fills and crash respawns alike; 0 on in-process backends).
    pub workers_spawned: usize,
    /// Shard tasks serialized and dispatched to worker processes (0 on
    /// in-process backends; tasks that fall back to local execution — e.g.
    /// non-wire-serializable plans — are not counted here).
    pub tasks_dispatched: usize,
    /// Bytes written to worker processes (frames: handshakes, plans, tasks).
    pub wire_bytes_sent: u64,
    /// Bytes read back from worker processes (partial bundles, stats,
    /// errors).
    pub wire_bytes_received: u64,
    /// Workers respawned after a crash or protocol failure, with their
    /// in-flight task re-dispatched.
    pub worker_respawns: usize,
    /// Dispatched tasks a *warm* worker served from its own session cache —
    /// the worker skipped phase 1 because it had already built the plan's
    /// skeleton for an earlier task.
    pub worker_warm_hits: usize,
    /// Worker reads that hit the per-task deadline: the worker was alive but
    /// silent (hung, stalled, or its reply was lost) and got reclassified as
    /// dead so the respawn + re-dispatch ladder could run.
    pub deadline_timeouts: usize,
    /// Task sends/reads retried after a crash-class failure (each retry is
    /// preceded by a respawn and a capped, jittered backoff sleep).
    pub task_retries: usize,
    /// Per-worker circuit-breaker trips: a slot failed repeatedly and its
    /// tasks ran in this process instead until the breaker's
    /// cooldown elapsed — why `tasks_dispatched` can stay flat while results
    /// keep flowing.
    pub circuit_trips: usize,
}

impl ShardStats {
    /// The activity between an `earlier` snapshot and this one.
    pub fn since(&self, earlier: ShardStats) -> ShardStats {
        ShardStats {
            shards_spawned: self.shards_spawned.saturating_sub(earlier.shards_spawned),
            shard_merge_ns: self.shard_merge_ns.saturating_sub(earlier.shard_merge_ns),
            cross_shard_regens: self
                .cross_shard_regens
                .saturating_sub(earlier.cross_shard_regens),
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
            circuit_trips: self.circuit_trips.saturating_sub(earlier.circuit_trips),
        }
    }
}

/// A phase-2 execution strategy: materialize blocks against a bound prefix
/// and evaluate per-repetition aggregates over a bundle set.
///
/// `threads` is the caller's worker budget (sessions pass their
/// `with_threads` setting); backends are free to interpret it as pool width
/// or concurrent shard slots, but never in a way that changes results.
pub trait ExecBackend: std::fmt::Debug + Send + Sync {
    /// A short human-readable strategy name (`"in-process"`, `"process"`).
    fn name(&self) -> &'static str;

    /// Materialize stream positions `base_pos .. base_pos + num_values`
    /// against `prefix`, bit-identical to
    /// [`crate::Executor::execute`] at the same options.
    ///
    /// `pool` supplies the reusable columnar block buffers (the caller's —
    /// usually a session's — [`BlockBufferPool`]); backends acquire one
    /// buffer per generated stream and release it once the block's bundles
    /// own their values, so repeated blocks reuse buffers instead of
    /// reallocating.
    fn instantiate_block(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<BundleSet>;

    /// Evaluate `agg` over `set` once per repetition, bit-identical to
    /// [`crate::aggregate::evaluate_aggregate`].  The default — the one set
    /// aggregator — runs one repetition range per thread of this process.
    fn aggregate(
        &self,
        set: &BundleSet,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
        threads: usize,
    ) -> Result<QueryResultSamples> {
        aggregate::evaluate_aggregate_threads(set, agg, group_by, final_predicate, threads)
    }

    /// Evaluate `agg` once per repetition over stream positions `base_pos ..
    /// base_pos + num_values` of `prefix`, bit-identical to
    /// [`ExecBackend::aggregate`] over [`ExecBackend::instantiate_block`]'s
    /// set, and an error if and only if that pair errs.  The default is that
    /// pair.  The in-process placements override it with the fused unit
    /// ([`crate::shard::SampleJob`]): each repetition range generates its
    /// streams and folds every bundle straight into the aggregate, so no
    /// [`BundleSet`] is ever built.
    #[allow(clippy::too_many_arguments)]
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
        let set = self.instantiate_block(prefix, pool, threads, base_pos, num_values)?;
        self.aggregate(&set, agg, group_by, final_predicate, threads)
    }

    /// Placement counters (zero for backends that keep none).
    fn shard_stats(&self) -> ShardStats {
        ShardStats::default()
    }

    /// Dispatch-priming hook: sessions call this before every cached-prefix
    /// block so a multi-process backend can learn (once) which plan and
    /// catalog a prefix's skeleton was built from — the wire protocol ships
    /// the plan + a catalog snapshot to cold workers, and neither is
    /// recoverable from the prefix alone.  In-process backends keep the
    /// default no-op.
    fn prepare_dispatch(
        &self,
        _plan: &crate::plan::PlanNode,
        _catalog: &mcdbr_storage::Catalog,
        _prefix: &DeterministicPrefix,
    ) -> Result<()> {
        Ok(())
    }

    /// Whether this backend's sampled block is nothing but the fused units
    /// of [`crate::shard::sample_parts`] run in this process.  A scheduler
    /// wrapped around such a backend (the server's `FairBackend`) may place
    /// those units itself; for every other backend — units that run
    /// elsewhere, or anything a custom implementation does per block — it
    /// must go through the backend's own calls, hence the default.
    fn units_run_in_process(&self) -> bool {
        false
    }
}

/// The in-process thread-pool backend: a sampled block is one fused unit
/// per thread, and a block one all-covering [`ShardTask`] whose streams and
/// bundles fan out across worker threads via [`crate::par`].
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

    fn instantiate_block(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<BundleSet> {
        let unit = ShardTask::new(
            prefix,
            mcdbr_prng::StreamKeyRange::all(),
            base_pos,
            num_values,
        );
        merge_block(prefix, num_values, [unit.run(pool, threads)?.bundles])
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
        let run = |job: &Arc<SampleJob>, ranges: Vec<Range<usize>>| {
            // Reclaim cell storage freed since the last block, once per call.
            pool.sweep_cells();
            par::try_par_map_threads(&ranges, threads, |reps| {
                job.sample_rep_range(pool, reps.clone())
            })
        };
        let (samples, _, _) = sample_parts(
            prefix,
            base_pos,
            num_values,
            agg,
            group_by,
            final_predicate,
            threads,
            run,
        )?;
        Ok(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stats_windows_subtract() {
        let earlier = ShardStats {
            shards_spawned: 3,
            shard_merge_ns: 100,
            cross_shard_regens: 2,
            workers_spawned: 1,
            tasks_dispatched: 4,
            wire_bytes_sent: 100,
            wire_bytes_received: 200,
            worker_respawns: 0,
            worker_warm_hits: 1,
            deadline_timeouts: 1,
            task_retries: 1,
            circuit_trips: 0,
        };
        let later = ShardStats {
            shards_spawned: 10,
            shard_merge_ns: 450,
            cross_shard_regens: 5,
            workers_spawned: 3,
            tasks_dispatched: 9,
            wire_bytes_sent: 1100,
            wire_bytes_received: 2200,
            worker_respawns: 2,
            worker_warm_hits: 6,
            deadline_timeouts: 3,
            task_retries: 4,
            circuit_trips: 1,
        };
        assert_eq!(
            later.since(earlier),
            ShardStats {
                shards_spawned: 7,
                shard_merge_ns: 350,
                cross_shard_regens: 3,
                workers_spawned: 2,
                tasks_dispatched: 5,
                wire_bytes_sent: 1000,
                wire_bytes_received: 2000,
                worker_respawns: 2,
                worker_warm_hits: 5,
                deadline_timeouts: 2,
                task_retries: 3,
                circuit_trips: 1,
            }
        );
        assert_eq!(earlier.since(later), ShardStats::default());
        // The in-process backend keeps no counters.
        assert_eq!(InProcessBackend::new().shard_stats(), ShardStats::default());
        assert_eq!(InProcessBackend::new().name(), "in-process");
    }
}
