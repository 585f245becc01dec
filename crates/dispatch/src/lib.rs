//! Multi-process shard dispatch for MCDB-R phase-2 execution.
//!
//! PR 3 made the unit of distribution explicit — a self-describing
//! `ShardTask {skeleton, master_seed, key_range, base_pos, n}` whose
//! partials merge bit-identically in canonical `StreamKey` order — but ran
//! every task inside the coordinator process.  This crate actually ships
//! the tasks across OS processes:
//!
//! * [`wire`] — the versioned, dependency-free binary wire format: the
//!   handshake/version negotiation, `Plan` frames carrying a serialized
//!   [`mcdbr_exec::PlanNode`] + catalog snapshot (so a cold worker rebuilds
//!   the seed-independent `PlanSkeleton` itself), ~60-byte `Task` headers
//!   addressed by `(plan fingerprint, catalog epoch)` (so a warm worker
//!   skips phase 1 through its own `SessionCache`), and length-prefixed
//!   columnar partial-result frames (typed vectors, dictionary arenas,
//!   null bitmaps — floats as raw IEEE bits).
//! * [`worker`] — the request/response loop behind the `mcdbr-worker`
//!   binary, generic over its byte streams so tests drive it in-memory.
//! * [`ProcessBackend`] — an [`mcdbr_exec::ExecBackend`] that spawns and
//!   pools persistent workers, pipelines one task per worker per block,
//!   merges the streamed partials bit-identically to the in-process and
//!   sharded backends, and survives worker failure end to end: per-task
//!   read deadlines reclassify hung workers as dead, crash-class failures
//!   ride a bounded respawn + backoff + re-dispatch ladder, and a per-slot
//!   circuit breaker degrades repeat offenders to the local sharded path.
//!   Chaos runs inject deterministic faults via `MCDBR_FAULTS`
//!   (`mcdbr_faults`).
//!
//! Selection is environment-driven end to end: `MCDBR_BACKEND=process`
//! (with `MCDBR_WORKERS=N`) makes [`default_backend`] hand every engine,
//! looper, and session a process-shared [`ProcessBackend`] — the function
//! also installs it as `mcdbr-exec`'s process-wide default, so sessions
//! constructed directly through `ExecSession::prepare` pick it up too.

#![warn(missing_docs)]

use std::sync::{Arc, OnceLock};

use mcdbr_exec::ExecBackend;

mod backend;
pub mod wire;
pub mod worker;

pub use backend::{default_task_deadline, task_deadline_from_env, ProcessBackend};

/// The environment-selected default backend, with multi-process dispatch
/// resolved: `MCDBR_BACKEND=process` returns one process-shared
/// [`ProcessBackend`] sized by `MCDBR_WORKERS` (and installs it via
/// [`mcdbr_exec::install_default_backend`] so bare `ExecSession`s share
/// it); anything else defers to [`mcdbr_exec::default_backend`]'s
/// `MCDBR_SHARDS` rule.
///
/// Engines and loopers call this in their default constructors, which is
/// what makes `MCDBR_BACKEND=process MCDBR_WORKERS=2 cargo test` run the
/// whole suite through worker processes.
pub fn default_backend() -> Arc<dyn ExecBackend> {
    if mcdbr_exec::process_backend_requested() {
        static SHARED: OnceLock<Arc<ProcessBackend>> = OnceLock::new();
        let backend = Arc::clone(SHARED.get_or_init(|| {
            let backend = Arc::new(ProcessBackend::new(mcdbr_exec::default_workers()));
            let _ = mcdbr_exec::install_default_backend(backend.clone());
            backend
        }));
        return backend;
    }
    mcdbr_exec::default_backend()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_resolves_without_env() {
        // Under a plain environment this defers to exec's default; under
        // MCDBR_BACKEND=process (the CI matrix) it must be the process
        // backend.  Either way the call is total.
        let backend = default_backend();
        assert_eq!(
            backend.name() == "process",
            mcdbr_exec::process_backend_requested()
        );
    }
}
