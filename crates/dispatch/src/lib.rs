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
//!   the in-process backend, and survives worker failure by one rule: a
//!   unit whose worker fails (a send error, EOF, a bad reply, the task read
//!   deadline, or a reported error) runs here, and the worker is replaced
//!   at once by a cold one.  Chaos runs inject deterministic faults through
//!   [`ProcessBackend::with_fault_spec`] (`mcdbr_faults`).
//!
//! Library callers pass a [`ProcessBackend`] to `with_backend`; no binary
//! selects one, and everything else runs in-process.

#![warn(missing_docs)]

mod backend;
pub mod wire;
pub mod worker;

pub use backend::ProcessBackend;
