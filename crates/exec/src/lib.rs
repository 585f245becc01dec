//! Tuple-bundle query execution for MCDB / MCDB-R.
//!
//! MCDB's central trick (paper §1) is that a query plan is executed *once*
//! over "tuple bundles" rather than once per Monte Carlo repetition: a bundle
//! encapsulates the instantiations of a tuple over all generated database
//! instances and carries the PRNG seeds used to produce them.  MCDB-R reuses
//! the same plan machinery but needs *lineage*: every random value must stay
//! linked to the stream (seed) it came from so the Gibbs Looper can later
//! re-assign stream positions to DB versions (paper §5, §6).
//!
//! This crate provides:
//!
//! * [`expr`] — scalar expressions and predicates over named columns.
//! * [`program`] — [`program::Program`]: an expression compiled once into
//!   the register program every production caller runs, a row or a block
//!   at a time.
//! * [`bundle`] — [`bundle::TupleBundle`] and [`bundle::BundleValue`]: rows
//!   whose attributes are either constant across repetitions or random with
//!   full stream lineage, each random value one [`bundle::SharedColumn`],
//!   plus per-repetition presence (`isPres`) arrays.
//! * [`plan`] — logical plan nodes (`TableScan`, `RandomTable`, `Filter`,
//!   `Project`, `Join`, `Split`) and the uncertain-table specification that
//!   mirrors the paper's `CREATE TABLE ... FOR EACH ... WITH ... AS VG(...)`
//!   statement (§2).
//! * [`stream_registry`] — a stream's VG function and parameter row, which
//!   is what lets any stream position be (re)generated on demand — the
//!   foundation of both naive-MCDB instantiation and MCDB-R replenishment
//!   (§9).
//! * [`executor`] — executes a plan over a catalog, producing a
//!   [`bundle::BundleSet`]; instantiation ranges are explicit so the same
//!   code path serves MCDB (positions `0..n` = the n Monte Carlo repetitions)
//!   and MCDB-R (positions form the per-seed blocks carried by Gibbs tuples).
//! * [`aggregate`] — per-repetition evaluation of aggregation queries over a
//!   `BundleSet` (the MCDB baseline path) and the aggregate/predicate
//!   descriptors shared with the Gibbs Looper.
//! * [`session`] — two-phase execution: [`session::ExecSession::prepare`]
//!   runs the deterministic skeleton of a plan exactly once into a
//!   seed-independent [`session::PlanSkeleton`], binds it to the master seed
//!   (a [`session::DeterministicPrefix`]), and
//!   [`session::ExecSession::instantiate_block`] materializes only stream
//!   values per block.  This is how replenishment (paper §9) avoids re-paying
//!   for scans and joins, and the seam the engines build on.
//! * [`cache`] — [`cache::SessionCache`]: skeletons keyed by
//!   [`cache::PlanKey`] `(plan fingerprint, catalog epoch)`, so a repeated
//!   query — under *any* master seed — skips phase 1 entirely
//!   (LRU-bounded).
//! * [`shard`] — the phase-2 units and block assembly:
//!   [`shard::ShardTask::run`] (`skeleton + master seed + StreamKey range +
//!   block window`) generates the cells of the streams in its range — each
//!   stream in exactly one unit, bit-identical wherever it runs, which is
//!   what makes the task shippable to another process — and
//!   [`shard::assemble_block`] / [`shard::fold_block`] turn a block's cells
//!   into its bundles or straight into an aggregate.
//! * [`backend`] — [`backend::ExecBackend`]: *where* the units run.
//!   [`backend::InProcessBackend`] runs them on this process's threads
//!   (the default); the server's scheduler and the multi-process
//!   dispatcher are the other two placements, selected per session with
//!   `with_backend`.
//! * [`par`] — the deterministic parallel fan-out of phase-2 stream
//!   generation and block assembly (bit-identical results for every thread
//!   count); every aggregate folds on the calling thread.
//! * [`pool`] — [`pool::BlockBufferPool`]: reusable columnar
//!   [`mcdbr_storage::ColumnBlock`] buffers for phase 2.  Streams are
//!   materialized by the batched `VgFunction::generate_block_into` path
//!   straight into pooled typed buffers, so replenishment rounds, repeated
//!   queries, and shard tasks stop re-paying the per-position allocation
//!   bill; `bytes_materialized` / `buffer_reuses` counters surface the
//!   effect end to end.

#![warn(missing_docs)]

pub mod aggregate;
pub mod backend;
pub mod bundle;
pub mod cache;
pub mod cancel;
pub mod executor;
pub mod expr;
pub mod par;
pub mod plan;
pub mod pool;
pub mod program;
pub mod session;
pub mod shard;
pub mod stream_registry;

pub use aggregate::{AggFunc, AggregateSpec, QueryResultSamples};
pub use backend::{ExecBackend, InProcessBackend, ShardStats};
pub use bundle::{BundleSet, BundleValue, SharedColumn, TupleBundle};
pub use cache::{PlanKey, SessionCache};
pub use cancel::CancelToken;
pub use executor::{ExecOptions, Executor};
pub use expr::{BinaryOp, Expr};
pub use plan::{JoinType, PlanNode, RandomTableSpec};
pub use pool::BlockBufferPool;
pub use program::Program;
pub use session::{
    CellCols, DeterministicPrefix, ExecSession, Lineage, PlanSkeleton, MAX_BLOCK_CELLS,
};
pub use shard::{assemble_block, fold_block, ShardTask};
pub use stream_registry::StreamSource;
