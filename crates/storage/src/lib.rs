//! Relational substrate for the MCDB-R reproduction.
//!
//! MCDB-R (Arumugam et al., VLDB 2010) is built on top of an ordinary
//! relational engine: parameter tables are plain SQL tables, uncertain tables
//! are *schemas plus a generation recipe*, and query plans consume and
//! produce streams of tuples (or tuple bundles).  This crate provides the
//! deterministic building blocks everything else stands on:
//!
//! * [`Value`] / [`DataType`] — the dynamically-typed cell values used by the
//!   engine (64-bit integers, 64-bit floats, booleans, strings, and NULL).
//! * [`Field`] / [`Schema`] — named, typed columns.
//! * [`Tuple`] — a row of values.
//! * [`Table`] — a paged relation: a schema plus sealed heap [`Page`]s and
//!   an open row tail, scanned row by row; the relational work is the
//!   plans' (`PlanNode` in `mcdbr-exec`).
//! * [`Page`] / [`BufferPool`] — the fixed-budget storage unit and the
//!   bounded LRU cache of decoded frames that scans pin pages through, so
//!   the resident working set is capped by the pool's frame budget rather
//!   than by data size.
//! * [`HeapFile`] / [`Pager`] — explicit spilling: a caller hands a pager
//!   to [`Table::spill_with`], sealed pages move to checksummed,
//!   4 KiB-aligned heap-file slots, and the pool re-reads (and
//!   re-validates) them on every miss, so a spilled table scans exactly
//!   like its in-memory twin.
//! * [`Reader`] — the one bounded decoder every byte from outside the
//!   process (wire frames, pages, heap records) is read through.
//! * [`Catalog`] — a named collection of tables (parameter tables and
//!   materialized intermediate results).
//!
//! Uncertainty never lives in this crate: random attributes are handled by
//! the `mcdbr-exec` tuple bundles and the `mcdbr-core` Gibbs tuples.  This
//! separation mirrors the paper's architecture, where the deterministic parts
//! of a plan are ordinary relational operators whose results can be
//! materialized and reused during replenishment runs (paper §9).

pub mod bufpool;
pub mod catalog;
pub mod codec;
pub mod column;
pub mod error;
pub mod heapfile;
pub mod mask;
pub mod page;
pub mod pager;
pub mod schema;
pub mod table;
pub mod tuple;
pub mod value;

pub use bufpool::{BufferPool, PageCacheStats, PageGuard, DEFAULT_FRAME_BUDGET};
pub use catalog::Catalog;
pub use codec::{DecodeError, DecodeResult, Reader};
pub use column::{Column, ColumnBlock, ColumnData, NullBitmap, Utf8Column};
pub use error::{Error, Result};
pub use heapfile::HeapFile;
pub use mask::{CmpOp, Mask};
pub use page::{fnv1a, Page, FNV_OFFSET, PAGE_BYTES};
pub use pager::{DiskCounters, Pager, PagerStats};
pub use schema::{Field, Schema};
pub use table::{Table, TableBuilder, TableIter};
pub use tuple::Tuple;
pub use value::{DataType, Value};
