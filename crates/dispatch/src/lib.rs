//! Multi-process shard dispatch for MCDB-R phase-2 execution.
//!
//! The unit of distribution is a self-describing
//! `ShardTask {skeleton, master_seed, key_range, base_pos, n}` that
//! generates the cells of the streams in its key range.  This crate ships
//! those tasks across OS processes — the third place a phase-2 unit runs,
//! after this process's threads and the server's scheduler:
//!
//! * [`wire`] — the versioned, dependency-free binary wire format: the
//!   handshake/version negotiation, `Plan` frames carrying a serialized
//!   [`mcdbr_exec::PlanNode`] + catalog snapshot (so a cold worker rebuilds
//!   the seed-independent `PlanSkeleton` itself), ~60-byte `Task` headers
//!   addressed by `(plan fingerprint, catalog epoch)` (so a warm worker
//!   skips phase 1 through its own `SessionCache`), and one columnar
//!   `Cells` frame per generated stream (typed vectors, dictionary arenas,
//!   null bitmaps — floats as raw IEEE bits).
//! * [`worker`] — the request/response loop behind the `mcdbr-worker`
//!   binary, generic over its byte streams so tests drive it in-memory.
//! * [`ProcessBackend`] — an [`mcdbr_exec::ExecBackend`] that spawns and
//!   pools persistent workers, pipelines one task per worker per block,
//!   checks every reply, assembles or folds the cells bit-identically to
//!   the in-process backend, and survives worker failure: per-task read
//!   deadlines reclassify hung workers as dead, crash-class failures ride a
//!   bounded respawn + backoff + re-dispatch ladder, and a per-slot circuit
//!   breaker degrades repeat offenders to running their unit locally.
//!   Chaos runs inject deterministic faults through
//!   [`ProcessBackend::with_fault_spec`] (`mcdbr_faults`).
//!
//! [`backend_named`] is the one name-to-backend selector the binaries share
//! (`exp_*` and `mcdbr-server` take `--backend NAME`); library callers pass a
//! backend to `with_backend` and otherwise run in-process.

#![warn(missing_docs)]

use std::sync::Arc;

use mcdbr_exec::{ExecBackend, InProcessBackend};
use mcdbr_storage::{Error, Result};

mod backend;
pub mod wire;
pub mod worker;

pub use backend::ProcessBackend;

/// The backend a `--backend NAME` flag names: `inprocess` (or
/// `in-process`), or `process` with `width` worker processes.  Any other
/// name is an [`Error::Invalid`].
pub fn backend_named(name: &str, width: usize) -> Result<Arc<dyn ExecBackend>> {
    match name {
        "inprocess" | "in-process" => Ok(Arc::new(InProcessBackend::new())),
        "process" => Ok(Arc::new(ProcessBackend::new(width))),
        other => Err(Error::Invalid(format!(
            "unknown backend `{other}`; expected one of inprocess, process"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_resolve_and_unknown_names_are_errors() {
        for (name, expected) in [
            ("inprocess", "in-process"),
            ("in-process", "in-process"),
            ("process", "process"),
        ] {
            assert_eq!(backend_named(name, 2).unwrap().name(), expected);
        }
        for bad in ["", "shard", "sharded", "threads"] {
            assert!(backend_named(bad, 2).is_err(), "`{bad}` must be rejected");
        }
    }
}
