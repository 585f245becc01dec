//! The versioned, dependency-free binary wire format between the shard
//! dispatcher and its worker processes.
//!
//! Everything on the wire is a **frame**: a little-endian `u32` length
//! prefix followed by that many payload bytes, the first of which is the
//! frame tag.  The conversation is strictly request/response over a
//! worker's stdin/stdout:
//!
//! ```text
//! coordinator → worker        worker → coordinator
//! ───────────────────         ────────────────────
//! Hello{magic, version}   →
//!                         ←   Hello{magic, version}      (version negotiation)
//! Plan{key, plan, tables} →                              (cold worker only;
//!                                                         no reply)
//! Task{key, seed, range,  →
//!      base_pos, n}
//!                         ←   Cells{idx, rows, cols,     × N  (one per active
//!                                   columns}                  stream in range)
//!                         ←   TaskStats{N, warm}
//! Shutdown                →                              (clean exit)
//! ```
//!
//! A `Plan` frame carries the [`PlanKey`], the plan's
//! [`PlanNode::encode_wire`] bytes and, by name, every table the plan
//! reads (sealed page bytes verbatim, fully validated on arrival; the open
//! tail column-major).  A worker receives it once per key, before its
//! first task for that key, and answers nothing.  The `(plan fingerprint,
//! catalog epoch)` [`PlanKey`] travels first on every `Task`, so a *warm* worker —
//! one that already built this plan's skeleton for an earlier task — skips
//! phase 1 through its own [`mcdbr_exec::SessionCache`] and reports the
//! hit in [`TaskStats::warm_hit`].  A task's result is one `Cells` frame
//! per active stream in its key range, ascending: the stream's VG output
//! cells through the columnar [`Column`] codec (typed little-endian
//! vectors, dictionary arena for strings, packed null bitmaps; floats as
//! raw IEEE bits, so bit-identical).  The coordinator holds the skeleton
//! and rebuilds the bundles from them, so a stream value a join fans out
//! crosses the wire once.  No peer sends the `Bundle` frame any more; it
//! stays while the perf ledger's codec probe encodes one.
//!
//! Frames follow the one byte format of [`mcdbr_storage::codec`] —
//! little-endian integers, `u32`-count sequences, `u32`-length UTF-8
//! strings — and decode through its bounded [`Reader`]: truncated or
//! corrupted frames return a typed [`WireError`], never a panic, no count
//! reserves more memory than the remaining bytes can hold, and plans and
//! expressions nest at most 256 levels.  A version or magic mismatch is
//! rejected at the handshake before any plan or task bytes flow.
//!
//! This module holds frames only.  A plan and its expressions travel in
//! the one encoding `mcdbr_exec` defines next to [`PlanNode`]
//! ([`PlanNode::encode_wire`] / [`PlanNode::decode_wire`]), the bytes
//! [`PlanNode::fingerprint`] hashes, so the fingerprint in a [`PlanKey`] is
//! FNV-1a of the plan bytes in the same `Plan` frame.  A VG function travels
//! as its [`mcdbr_vg::VgFunction::cache_token`] and is rebuilt by
//! [`mcdbr_vg::from_token`], which knows the seven built-ins: a plan using
//! a third-party VG function is not wire-serializable — [`encode_plan`] and
//! [`encode_query`] report [`WireError::Unserializable`] and the dispatcher
//! executes such plans locally instead — and an unknown token, or a
//! built-in configuration past [`mcdbr_vg::MAX_TOKEN_SIZE`], decodes as
//! [`WireError::Corrupt`].
//!
//! The same frame discipline carries the **client ↔ server** conversation
//! of `mcdbr-server` over TCP (tags 8–13).  A client speaks `Hello` first
//! (mirroring the coordinator → worker handshake), then issues [`Frame::Query`]
//! requests; a successful response is `QueryResult` + `QueryStats`, a
//! rejection or failure is a typed [`Frame::ErrorReply`].  Unlike `Plan`
//! frames, a `Query` ships **no catalog snapshot** — the resident server
//! owns the data, and the plan's table references resolve against the
//! server's own catalog.

use std::io::{Read, Write};

use mcdbr_exec::{
    AggFunc, AggregateSpec, BundleValue, CellCols, Expr, PlanNode, QueryResultSamples,
    SharedColumn, TupleBundle,
};
use mcdbr_prng::{StreamKey, StreamKeyRange};
use mcdbr_storage::codec::{put_count, put_str};
use mcdbr_storage::{
    Column, DataType, DecodeError, DecodeResult, Error, Field, Page, Reader, Schema, Table, Tuple,
    Value,
};

/// The protocol magic (`"MCDW"` little-endian) every handshake leads with.
pub const WIRE_MAGIC: u32 = 0x5744_434D;

/// The protocol version this build speaks.  Bumped on any incompatible
/// frame change; the handshake rejects peers speaking another version.
/// Version 2 fetched a plan's tables on demand by content hash and
/// bit-packed bundle presence masks.  Version 3 added a worker table-store
/// eviction count to the stats frame; version 4 removed it again.
/// Version 5 answers a task with `Cells` frames, one per generated stream,
/// instead of `Bundle` frames.  Version 6 ships every table a plan reads
/// inside its `Plan` frame, which has no reply.  Version 7 ships a VG
/// function as its cache token and drops the always-zero task count from
/// `QueryStats`.  Version 8 writes a random table's VG column index as a
/// `u64`, so no two indices share an encoding.
pub const WIRE_VERSION: u16 = 8;

/// Upper bound on a single frame's payload, guarding against a corrupt
/// length prefix allocating unbounded memory.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Typed wire-protocol failures.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The input ended inside `what`.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// Structurally invalid bytes (unknown tag, bad flag, invalid UTF-8,
    /// inconsistent lengths).
    Corrupt(String),
    /// The peer's handshake did not lead with [`WIRE_MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version this build speaks.
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// The value cannot be expressed on the wire (e.g. a third-party VG
    /// function); the dispatcher falls back to local execution.
    Unserializable(String),
    /// An I/O failure on the underlying pipe.
    Io(std::io::ErrorKind, String),
    /// The worker answered with an `Error` frame carrying this message.
    Remote(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated wire data inside {what}"),
            WireError::Corrupt(msg) => write!(f, "corrupt wire data: {msg}"),
            WireError::BadMagic(got) => {
                write!(
                    f,
                    "bad handshake magic {got:#010x} (want {WIRE_MAGIC:#010x})"
                )
            }
            WireError::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "wire version mismatch: we speak v{ours}, peer speaks v{theirs}"
                )
            }
            WireError::Unserializable(what) => write!(f, "not wire-serializable: {what}"),
            WireError::Io(kind, msg) => write!(f, "wire I/O failure ({kind:?}): {msg}"),
            WireError::Remote(msg) => write!(f, "worker error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind(), e.to_string())
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Invalid(format!("dispatch wire: {e}"))
    }
}

/// Shorthand result alias for wire operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { what } => WireError::Truncated { what },
            DecodeError::Corrupt { what, detail } => {
                WireError::Corrupt(format!("{what}: {detail}"))
            }
        }
    }
}

// ===== Frame layer =====

/// Write one length-prefixed frame, returning the total bytes written
/// (prefix included).  The caller flushes the stream when the message
/// boundary requires it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> WireResult<u64> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME_LEN as u64);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(4 + payload.len() as u64)
}

/// [`write_frame`] behind a fault injector: consults the drop-frame,
/// partial-write, and delayed-write points (in that priority order, one
/// action per frame) before writing.  `faults: None` is exactly
/// [`write_frame`], which stays pure — only the process-backend sends, the
/// worker's task replies, and the server connection handler route through
/// here.
///
/// Dropped and truncated frames still report success with the nominal byte
/// count: a fault is invisible to the writer, exactly like a buffered OS
/// write that will never reach a dead peer.  Recovery is the *reader's* job
/// (its deadline, then the dispatcher's failure rule), which is the failure
/// mode chaos runs are exercising.
pub fn write_frame_faulty(
    w: &mut impl Write,
    payload: &[u8],
    faults: Option<&mcdbr_faults::FaultInjector>,
) -> WireResult<u64> {
    use mcdbr_faults::{FaultAction, FaultPoint};
    let nominal = 4 + payload.len() as u64;
    let Some(inj) = faults else {
        return write_frame(w, payload);
    };
    if inj.decide(FaultPoint::DropFrame) == Some(FaultAction::Drop) {
        return Ok(nominal);
    }
    if inj.decide(FaultPoint::PartialWrite) == Some(FaultAction::Truncate) {
        // Length prefix plus roughly half the payload: the peer sees a
        // truncated or desynced stream, never a silently-wrong frame.
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&payload[..payload.len() / 2])?;
        let _ = w.flush();
        return Ok(nominal);
    }
    if let Some(FaultAction::Delay(d)) = inj.decide(FaultPoint::DelayedWrite) {
        std::thread::sleep(d);
    }
    write_frame(w, payload)
}

/// Read one length-prefixed frame payload, plus the total bytes consumed.
/// EOF *before the first length byte* returns `Ok(None)` — the peer closed
/// the stream cleanly; EOF anywhere later is [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> WireResult<Option<(Vec<u8>, u64)>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Truncated {
                    what: "frame length",
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = Reader::new(&len_buf).u32("frame length")?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Corrupt(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    // The buffer grows with the bytes that arrive — by at most what has
    // arrived, and exactly to the claimed length — so a length prefix
    // alone reserves nothing.
    let mut payload = Vec::new();
    let mut body = r.take(len as u64);
    while payload.len() < len as usize {
        let grow = (len as usize - payload.len()).min(payload.len().max(64 << 10));
        payload.reserve_exact(grow);
        if body.by_ref().take(grow as u64).read_to_end(&mut payload)? < grow {
            return Err(WireError::Truncated {
                what: "frame payload",
            });
        }
    }
    Ok(Some((payload, 4 + len as u64)))
}

/// The `(plan fingerprint, catalog epoch)` key a `Plan` frame and its
/// tasks are addressed by — the same key the coordinator's `SessionCache`
/// uses, sent first so warm workers can skip phase 1.
pub use mcdbr_exec::PlanKey;

/// The header of one dispatched shard task: everything a worker that
/// already knows the plan needs to execute its slice of a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskHeader {
    /// Which prepared plan to execute against.
    pub key: PlanKey,
    /// The master seed the worker binds the skeleton to.
    pub master_seed: u64,
    /// The slice of the stream-key space this task owns.
    pub key_range: StreamKeyRange,
    /// First stream position of the block window.
    pub base_pos: u64,
    /// Number of stream positions to materialize.
    pub num_values: usize,
}

/// The counter frame terminating a task response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskStats {
    /// Number of `Cells` frames that preceded this frame (validated
    /// against what the coordinator actually received).
    pub cells: usize,
    /// Whether the worker's own session cache already held the plan's
    /// skeleton — the warm-worker phase-1 skip.
    pub warm_hit: bool,
}

/// Why a server turned a request away (see [`Frame::ErrorReply`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyCode {
    /// Admission control: the in-flight query cap is reached — retry later.
    Busy,
    /// The server is draining for shutdown and admits no new queries.
    ShuttingDown,
    /// The request was malformed, used a frame the server does not accept,
    /// or asked for work the engine refuses as invalid
    /// (`mcdbr_storage::Error::Invalid`, e.g. a block over the server's
    /// cell budget).
    Invalid,
    /// The query was admitted but failed during execution.
    Internal,
    /// The query was admitted but ran past its per-query deadline (or was
    /// cancelled cooperatively).  Unlike `Busy` this is not retryable as-is:
    /// the same query will most likely time out again.
    Timeout,
}

fn reply_code_to_u8(code: ReplyCode) -> u8 {
    match code {
        ReplyCode::Busy => 1,
        ReplyCode::ShuttingDown => 2,
        ReplyCode::Invalid => 3,
        ReplyCode::Internal => 4,
        ReplyCode::Timeout => 5,
    }
}

fn reply_code_from_u8(raw: u8) -> DecodeResult<ReplyCode> {
    Ok(match raw {
        1 => ReplyCode::Busy,
        2 => ReplyCode::ShuttingDown,
        3 => ReplyCode::Invalid,
        4 => ReplyCode::Internal,
        5 => ReplyCode::Timeout,
        other => return Err(DecodeError::unknown("reply code", other)),
    })
}

/// Per-query counters terminating a successful query response
/// (server → client).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Whether phase 1 was skipped via the server's shared `SessionCache`.
    pub skeleton_hit: bool,
    /// Full plan executions this query cost the server (0 on a cache hit).
    pub plan_executions: u64,
    /// Shard/scheduler units this query fanned out into.
    pub shards_spawned: u64,
    /// Total time this query's scheduler units waited in queue.
    pub queue_wait_ns: u64,
    /// Wall-clock execution time, admission to last sample.
    pub exec_ns: u64,
}

/// A server-wide counter snapshot (server → client, answering
/// [`Frame::StatsRequest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Queries answered successfully since startup.
    pub queries_served: u64,
    /// Shared-cache skeleton hits across all sessions.
    pub skeleton_hits: u64,
    /// Shared-cache skeleton misses across all sessions.
    pub skeleton_misses: u64,
    /// Full plan executions across all sessions.
    pub plan_executions: u64,
    /// Units the queries fanned out into, across all queries: the
    /// scheduler's units plus the inner backend's own (a process inner's
    /// dispatched tasks) — the sum of the replies'
    /// [`QueryStats::shards_spawned`] when no two queries overlap on a
    /// process inner, whose counters each overlapping query's window also
    /// sees.
    pub shards_spawned: u64,
    /// Queries turned away with [`ReplyCode::Busy`].
    pub busy_rejections: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Queries currently executing.
    pub inflight: u64,
    /// Admitted queries that exceeded the server's per-query deadline and
    /// were answered with a typed [`ReplyCode::Timeout`] reply.
    pub query_timeouts: u64,
}

/// A decoded protocol frame.
#[derive(Debug)]
pub enum Frame {
    /// Handshake / version negotiation (both directions).
    Hello {
        /// Must equal [`WIRE_MAGIC`].
        magic: u32,
        /// The sender's [`WIRE_VERSION`].
        version: u16,
    },
    /// A plan keyed for later tasks, with every table it reads
    /// (coordinator → worker, once per cold worker per key; no reply).
    Plan {
        /// The key later `Task` frames will reference.
        key: PlanKey,
        /// The serialized plan, rebuilt by the worker.
        plan: PlanNode,
        /// The tables the plan reads, by catalog name, in name order.
        tables: Vec<(String, Table)>,
    },
    /// One shard task (coordinator → worker).
    Task(TaskHeader),
    /// One stream's cells of a task's result (worker → coordinator):
    /// untrusted until the coordinator checks them against the task.
    Cells {
        /// The stream's index into the skeleton's active keys.
        idx: u64,
        /// The stream's VG output cells over the task's window.
        cells: CellCols,
    },
    /// One materialized bundle, `None` if never present (no peer sends it).
    Bundle {
        /// The bundle's skeleton slot index.
        idx: usize,
        /// The materialized bundle, if present anywhere.
        bundle: Option<TupleBundle>,
    },
    /// Terminates a task response (worker → coordinator).
    TaskStats(TaskStats),
    /// A recoverable task-level failure (worker → coordinator).
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Clean-exit request (coordinator → worker, or client → server to
    /// begin a graceful drain).
    Shutdown,
    /// A Monte Carlo query (client → server).  No catalog snapshot
    /// travels — the resident server owns the data, and the plan's table
    /// references resolve against the server's catalog.
    Query {
        /// The plan producing the tuples to aggregate.
        plan: PlanNode,
        /// The aggregate to compute.
        aggregate: AggregateSpec,
        /// Optional final selection predicate.
        final_predicate: Option<Expr>,
        /// Grouping columns (must be deterministic).
        group_by: Vec<String>,
        /// Monte Carlo repetition count.
        reps: u64,
        /// The master seed the query binds its streams from.
        master_seed: u64,
    },
    /// The per-group sample matrix of a successful query (server → client);
    /// floats travel as raw IEEE bits, so the decoded samples are
    /// bit-identical to the server's.
    QueryResult(QueryResultSamples),
    /// A typed rejection or failure reply (server → client).
    ErrorReply {
        /// Why the request was turned away.
        code: ReplyCode,
        /// Human-readable detail.
        message: String,
    },
    /// Per-query counters terminating a successful query response
    /// (server → client, after [`Frame::QueryResult`]).
    QueryStats(QueryStats),
    /// Request a server-wide counter snapshot (client → server).
    StatsRequest,
    /// The server-wide counter snapshot (server → client).
    ServerStats(ServerStats),
}

const TAG_HELLO: u8 = 1;
const TAG_PLAN: u8 = 2;
const TAG_TASK: u8 = 3;
const TAG_BUNDLE: u8 = 4;
const TAG_TASK_STATS: u8 = 5;
const TAG_ERROR: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_QUERY: u8 = 8;
const TAG_QUERY_RESULT: u8 = 9;
const TAG_ERROR_REPLY: u8 = 10;
const TAG_QUERY_STATS: u8 = 11;
const TAG_STATS_REQUEST: u8 = 12;
const TAG_SERVER_STATS: u8 = 13;
const TAG_CELLS: u8 = 16;

/// Encode the handshake frame.
pub fn encode_hello() -> Vec<u8> {
    encode_hello_with(WIRE_MAGIC, WIRE_VERSION)
}

/// Encode a handshake frame announcing an arbitrary magic/version (test
/// hook for negotiation failures; production peers send [`encode_hello`]).
pub fn encode_hello_with(magic: u32, version: u16) -> Vec<u8> {
    let mut out = vec![TAG_HELLO];
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out
}

/// Encode a `Plan` frame: the key, the serialized plan, and every table
/// the plan reads from `catalog`, by name in name order (sealed pages
/// verbatim).  Fails with [`WireError::Unserializable`] when the plan uses
/// a VG function outside the built-in set, with [`WireError::Corrupt`]
/// when the plan references a table the catalog does not hold, and with
/// [`WireError::Io`] when a disk-backed page's bytes cannot be read back.
pub fn encode_plan(
    key: PlanKey,
    plan: &PlanNode,
    catalog: &mcdbr_storage::Catalog,
) -> WireResult<Vec<u8>> {
    let mut out = vec![TAG_PLAN];
    out.extend_from_slice(&key.fingerprint.to_le_bytes());
    out.extend_from_slice(&key.epoch.to_le_bytes());
    put_plan(&mut out, plan)?;
    let mut names = std::collections::BTreeSet::new();
    collect_tables(plan, &mut names);
    put_count(&mut out, names.len());
    for name in &names {
        let table = catalog
            .get(name)
            .map_err(|e| WireError::Corrupt(format!("catalog snapshot: {e}")))?;
        put_str(&mut out, name);
        put_table(&mut out, table)?;
    }
    Ok(out)
}

/// Encode a `Task` frame.
pub fn encode_task(task: &TaskHeader) -> Vec<u8> {
    let mut out = vec![TAG_TASK];
    out.extend_from_slice(&task.key.fingerprint.to_le_bytes());
    out.extend_from_slice(&task.key.epoch.to_le_bytes());
    out.extend_from_slice(&task.master_seed.to_le_bytes());
    put_key(&mut out, task.key_range.start);
    match task.key_range.end {
        Some(end) => {
            out.push(1);
            put_key(&mut out, end);
        }
        None => out.push(0),
    }
    out.extend_from_slice(&task.base_pos.to_le_bytes());
    out.extend_from_slice(&(task.num_values as u64).to_le_bytes());
    out
}

/// Encode one stream's `Cells` frame: its active index, its VG output
/// shape, and every cell column.
pub fn encode_cells(idx: usize, cells: &CellCols) -> Vec<u8> {
    let (rows, cols) = cells.shape();
    let mut out = vec![TAG_CELLS];
    out.extend_from_slice(&(idx as u64).to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(cols as u32).to_le_bytes());
    for column in cells.columns() {
        column.encode_wire(&mut out);
    }
    out
}

/// Encode one `Bundle` frame (no peer sends it; see the module docs).
pub fn encode_bundle(idx: usize, bundle: Option<&TupleBundle>) -> Vec<u8> {
    let mut out = vec![TAG_BUNDLE];
    out.extend_from_slice(&(idx as u64).to_le_bytes());
    match bundle {
        None => out.push(0),
        Some(bundle) => {
            out.push(1);
            put_count(&mut out, bundle.values.len());
            for value in &bundle.values {
                match value {
                    BundleValue::Const(v) => {
                        out.push(1);
                        v.encode_wire(&mut out);
                    }
                    BundleValue::Random {
                        seed,
                        vg_row,
                        vg_col,
                        base_pos,
                        values,
                    } => {
                        out.push(2);
                        out.extend_from_slice(&seed.to_le_bytes());
                        out.extend_from_slice(&(*vg_row as u32).to_le_bytes());
                        out.extend_from_slice(&(*vg_col as u32).to_le_bytes());
                        out.extend_from_slice(&base_pos.to_le_bytes());
                        values.encode_wire(&mut out);
                    }
                    BundleValue::Computed(values) => {
                        out.push(3);
                        values.encode_wire(&mut out);
                    }
                }
            }
            match &bundle.is_pres {
                None => out.push(0),
                Some(mask) => {
                    // Bit-packed (the NullBitmap word layout): 64 presence
                    // flags per u64 word instead of one byte per value.
                    out.push(1);
                    put_count(&mut out, mask.len());
                    let mut word = 0u64;
                    for (i, &p) in mask.iter().enumerate() {
                        if p {
                            word |= 1 << (i % 64);
                        }
                        if i % 64 == 63 {
                            out.extend_from_slice(&word.to_le_bytes());
                            word = 0;
                        }
                    }
                    if mask.len() % 64 != 0 {
                        out.extend_from_slice(&word.to_le_bytes());
                    }
                }
            }
        }
    }
    out
}

/// Encode the `TaskStats` frame terminating a task response.
pub fn encode_task_stats(stats: TaskStats) -> Vec<u8> {
    let mut out = vec![TAG_TASK_STATS];
    out.extend_from_slice(&(stats.cells as u64).to_le_bytes());
    out.push(u8::from(stats.warm_hit));
    out
}

/// Encode an `Error` frame.
pub fn encode_error(message: &str) -> Vec<u8> {
    let mut out = vec![TAG_ERROR];
    put_str(&mut out, message);
    out
}

/// Encode the `Shutdown` frame.
pub fn encode_shutdown() -> Vec<u8> {
    vec![TAG_SHUTDOWN]
}

fn agg_func_to_u8(func: AggFunc) -> u8 {
    match func {
        AggFunc::Sum => 1,
        AggFunc::Count => 2,
        AggFunc::Avg => 3,
        AggFunc::Min => 4,
        AggFunc::Max => 5,
    }
}

fn agg_func_from_u8(raw: u8) -> DecodeResult<AggFunc> {
    Ok(match raw {
        1 => AggFunc::Sum,
        2 => AggFunc::Count,
        3 => AggFunc::Avg,
        4 => AggFunc::Min,
        5 => AggFunc::Max,
        other => return Err(DecodeError::unknown("aggregate function", other)),
    })
}

/// Encode a `Query` frame.  Fails with [`WireError::Unserializable`] when
/// the plan uses a VG function outside the built-in set (such plans cannot
/// be shipped to a server).
pub fn encode_query(
    plan: &PlanNode,
    aggregate: &AggregateSpec,
    final_predicate: Option<&Expr>,
    group_by: &[String],
    reps: u64,
    master_seed: u64,
) -> WireResult<Vec<u8>> {
    let mut out = vec![TAG_QUERY];
    put_plan(&mut out, plan)?;
    out.push(agg_func_to_u8(aggregate.func));
    aggregate.expr.encode_wire(&mut out);
    put_str(&mut out, &aggregate.alias);
    match final_predicate {
        None => out.push(0),
        Some(expr) => {
            out.push(1);
            expr.encode_wire(&mut out);
        }
    }
    put_count(&mut out, group_by.len());
    for column in group_by {
        put_str(&mut out, column);
    }
    out.extend_from_slice(&reps.to_le_bytes());
    out.extend_from_slice(&master_seed.to_le_bytes());
    Ok(out)
}

/// Encode a `QueryResult` frame: the per-group, per-repetition sample
/// matrix, floats as raw IEEE bits.
pub fn encode_query_result(samples: &QueryResultSamples) -> Vec<u8> {
    let mut out = vec![TAG_QUERY_RESULT];
    put_count(&mut out, samples.group_columns.len());
    for column in &samples.group_columns {
        put_str(&mut out, column);
    }
    put_count(&mut out, samples.groups.len());
    for (key, xs) in &samples.groups {
        put_count(&mut out, key.len());
        for value in key {
            value.encode_wire(&mut out);
        }
        out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
        for &x in xs {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    out
}

/// Encode an `ErrorReply` frame.
pub fn encode_error_reply(code: ReplyCode, message: &str) -> Vec<u8> {
    let mut out = vec![TAG_ERROR_REPLY];
    out.push(reply_code_to_u8(code));
    put_str(&mut out, message);
    out
}

/// Encode the `QueryStats` frame terminating a successful query response.
pub fn encode_query_stats(stats: QueryStats) -> Vec<u8> {
    let mut out = vec![TAG_QUERY_STATS];
    out.push(u8::from(stats.skeleton_hit));
    out.extend_from_slice(&stats.plan_executions.to_le_bytes());
    out.extend_from_slice(&stats.shards_spawned.to_le_bytes());
    out.extend_from_slice(&stats.queue_wait_ns.to_le_bytes());
    out.extend_from_slice(&stats.exec_ns.to_le_bytes());
    out
}

/// Encode the `StatsRequest` frame.
pub fn encode_stats_request() -> Vec<u8> {
    vec![TAG_STATS_REQUEST]
}

/// Encode a `ServerStats` snapshot frame.
pub fn encode_server_stats(stats: ServerStats) -> Vec<u8> {
    let mut out = vec![TAG_SERVER_STATS];
    out.extend_from_slice(&stats.queries_served.to_le_bytes());
    out.extend_from_slice(&stats.skeleton_hits.to_le_bytes());
    out.extend_from_slice(&stats.skeleton_misses.to_le_bytes());
    out.extend_from_slice(&stats.plan_executions.to_le_bytes());
    out.extend_from_slice(&stats.shards_spawned.to_le_bytes());
    out.extend_from_slice(&stats.busy_rejections.to_le_bytes());
    out.extend_from_slice(&stats.connections.to_le_bytes());
    out.extend_from_slice(&stats.inflight.to_le_bytes());
    out.extend_from_slice(&stats.query_timeouts.to_le_bytes());
    out
}

/// Decode one frame payload.
pub fn decode_frame(payload: &[u8]) -> WireResult<Frame> {
    let mut r = Reader::new(payload);
    let frame = get_frame(&mut r)?;
    r.finish("frame")?;
    Ok(frame)
}

fn get_frame(r: &mut Reader<'_>) -> DecodeResult<Frame> {
    Ok(match r.u8("frame tag")? {
        TAG_HELLO => Frame::Hello {
            magic: r.u32("hello magic")?,
            version: r.u16("hello version")?,
        },
        TAG_PLAN => Frame::Plan {
            key: get_plan_key(r)?,
            plan: PlanNode::decode_wire(r)?,
            // A table is at least its name, field, page and tail counts.
            tables: r.seq("table count", 20, |r| {
                Ok((r.string("table name")?, get_table(r)?))
            })?,
        },
        TAG_TASK => Frame::Task(TaskHeader {
            key: get_plan_key(r)?,
            master_seed: r.u64("task master seed")?,
            key_range: StreamKeyRange {
                start: get_key(r)?,
                end: r.option("key range bound flag", get_key)?,
            },
            base_pos: r.u64("task base position")?,
            num_values: r.u64("task value count")? as usize,
        }),
        TAG_BUNDLE => Frame::Bundle {
            idx: r.u64("bundle index")? as usize,
            bundle: r.option("bundle presence flag", get_bundle)?,
        },
        TAG_CELLS => {
            let idx = r.u64("cells stream index")?;
            let (rows, cols) = (r.u32("cells rows")? as usize, r.u32("cells cols")? as usize);
            // Each column is at least 9 bytes, so a claimed grid larger
            // than the frame fails on the bytes, not on an allocation.
            let columns = r.repeat(rows.saturating_mul(cols), 9, Column::decode_wire)?;
            let cells = CellCols::from_columns(rows, cols, columns)
                .map_err(|e| DecodeError::corrupt("cells", e.to_string()))?;
            Frame::Cells { idx, cells }
        }
        TAG_TASK_STATS => Frame::TaskStats(TaskStats {
            cells: r.u64("stats cell count")? as usize,
            warm_hit: r.u8("stats warm flag")? != 0,
        }),
        TAG_ERROR => Frame::Error {
            message: r.string("error message")?,
        },
        TAG_SHUTDOWN => Frame::Shutdown,
        TAG_QUERY => Frame::Query {
            plan: PlanNode::decode_wire(r)?,
            aggregate: AggregateSpec {
                func: agg_func_from_u8(r.u8("aggregate function")?)?,
                expr: Expr::decode_wire(r)?,
                alias: r.string("aggregate alias")?,
            },
            final_predicate: r.option("final predicate flag", Expr::decode_wire)?,
            group_by: r.seq("group-by count", 4, |r| r.string("group-by column"))?,
            reps: r.u64("query repetitions")?,
            master_seed: r.u64("query master seed")?,
        },
        TAG_QUERY_RESULT => Frame::QueryResult(QueryResultSamples {
            group_columns: r.seq("group column count", 4, |r| r.string("group column"))?,
            groups: r.seq("group count", 12, |r| {
                let key = r.seq("group key length", 1, Value::decode_wire)?;
                let num_samples = r.u64("sample count")? as usize;
                Ok((key, r.f64s(num_samples, "samples")?))
            })?,
        }),
        TAG_ERROR_REPLY => Frame::ErrorReply {
            code: reply_code_from_u8(r.u8("reply code")?)?,
            message: r.string("reply message")?,
        },
        TAG_QUERY_STATS => Frame::QueryStats(QueryStats {
            skeleton_hit: r.u8("stats skeleton flag")? != 0,
            plan_executions: r.u64("stats plan executions")?,
            shards_spawned: r.u64("stats shards spawned")?,
            queue_wait_ns: r.u64("stats queue wait")?,
            exec_ns: r.u64("stats exec time")?,
        }),
        TAG_STATS_REQUEST => Frame::StatsRequest,
        TAG_SERVER_STATS => Frame::ServerStats(ServerStats {
            queries_served: r.u64("server queries served")?,
            skeleton_hits: r.u64("server skeleton hits")?,
            skeleton_misses: r.u64("server skeleton misses")?,
            plan_executions: r.u64("server plan executions")?,
            shards_spawned: r.u64("server shards spawned")?,
            busy_rejections: r.u64("server busy rejections")?,
            connections: r.u64("server connections")?,
            inflight: r.u64("server inflight")?,
            query_timeouts: r.u64("server query timeouts")?,
        }),
        other => return Err(DecodeError::unknown("frame tag", other)),
    })
}

fn get_plan_key(r: &mut Reader<'_>) -> DecodeResult<PlanKey> {
    Ok(PlanKey {
        fingerprint: r.u64("plan key fingerprint")?,
        epoch: r.u64("plan key epoch")?,
    })
}

fn put_key(out: &mut Vec<u8>, key: StreamKey) {
    out.extend_from_slice(&key.table_tag.to_le_bytes());
    out.extend_from_slice(&key.row.to_le_bytes());
}

fn get_key(r: &mut Reader<'_>) -> DecodeResult<StreamKey> {
    Ok(StreamKey {
        table_tag: r.u64("stream key table tag")?,
        row: r.u64("stream key row")?,
    })
}

/// Decode a bundle value's column via the columnar [`Column`] codec — no
/// re-boxing.
fn get_column(r: &mut Reader<'_>) -> DecodeResult<SharedColumn> {
    Column::decode_wire(r).map(SharedColumn::from_column)
}

fn get_bundle(r: &mut Reader<'_>) -> DecodeResult<TupleBundle> {
    let values = r.seq("bundle arity", 1, |r| {
        Ok(match r.u8("bundle value tag")? {
            1 => BundleValue::Const(Value::decode_wire(r)?),
            2 => BundleValue::Random {
                seed: r.u64("random seed")?,
                vg_row: r.u32("random vg_row")? as usize,
                vg_col: r.u32("random vg_col")? as usize,
                base_pos: r.u64("random base_pos")?,
                values: get_column(r)?,
            },
            3 => BundleValue::Computed(get_column(r)?),
            other => return Err(DecodeError::unknown("bundle value tag", other)),
        })
    })?;
    // Bit-packed presence: 64 flags per little-endian u64 word.
    let is_pres = r.option("presence flag", |r| {
        let len = r.u32("presence length")? as usize;
        let words = r.take(len.div_ceil(64) * 8, "presence mask")?;
        Ok((0..len)
            .map(|i| words[i / 64 * 8 + i % 64 / 8] >> (i % 8) & 1 == 1)
            .collect())
    })?;
    Ok(TupleBundle { values, is_pres })
}

/// Append `plan`'s bytes ([`PlanNode::encode_wire`]), refusing a plan
/// whose VG function no peer can rebuild from its token
/// ([`mcdbr_vg::from_token`]).
fn put_plan(out: &mut Vec<u8>, plan: &PlanNode) -> WireResult<()> {
    for spec in plan.random_tables() {
        mcdbr_vg::from_token(&spec.vg.cache_token()).map_err(|e| {
            WireError::Unserializable(format!("VG function {}: {e}", spec.vg.name()))
        })?;
    }
    plan.encode_wire(out);
    Ok(())
}

/// The table names a plan reads (scans + VG parameter tables) — the
/// catalog snapshot a `Plan` frame carries.
fn collect_tables(plan: &PlanNode, out: &mut std::collections::BTreeSet<String>) {
    match plan {
        PlanNode::TableScan { table } => {
            out.insert(table.clone());
        }
        PlanNode::RandomTable(spec) => {
            out.insert(spec.param_table.clone());
        }
        PlanNode::Filter { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Split { input, .. } => collect_tables(input, out),
        PlanNode::Join { left, right, .. } => {
            collect_tables(left, out);
            collect_tables(right, out);
        }
    }
}

fn dtype_to_u8(dt: DataType) -> u8 {
    match dt {
        DataType::Null => 0,
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Bool => 3,
        DataType::Utf8 => 4,
    }
}

fn dtype_from_u8(raw: u8) -> DecodeResult<DataType> {
    Ok(match raw {
        0 => DataType::Null,
        1 => DataType::Int64,
        2 => DataType::Float64,
        3 => DataType::Bool,
        4 => DataType::Utf8,
        other => return Err(DecodeError::unknown("data type", other)),
    })
}

fn put_table(out: &mut Vec<u8>, table: &Table) -> WireResult<()> {
    let schema = table.schema();
    put_count(out, schema.len());
    for field in schema.fields() {
        put_str(out, &field.name);
        out.push(dtype_to_u8(field.data_type));
    }
    // Sealed pages ship verbatim — no re-encode, so the receiving side
    // holds the sender's page layout byte for byte.  Disk-backed pages
    // load their bytes back through the checksummed heap record, so a torn
    // spill file fails here (typed) rather than shipping garbage.
    put_count(out, table.pages().len());
    for page in table.pages() {
        let bytes = page
            .load_bytes()
            .map_err(|e| WireError::Io(std::io::ErrorKind::Other, format!("table page: {e}")))?;
        put_count(out, bytes.len());
        out.extend_from_slice(&bytes);
    }
    // The open tail travels column-major through the typed Column codec,
    // like a page payload without the page framing.
    out.extend_from_slice(&(table.tail_rows().len() as u64).to_le_bytes());
    for col_idx in 0..schema.len() {
        let mut column = Column::default();
        for row in table.tail_rows() {
            column.push_value(row.value(col_idx));
        }
        column.encode_wire(out);
    }
    Ok(())
}

fn get_table(r: &mut Reader<'_>) -> DecodeResult<Table> {
    let schema = Schema::new(r.seq("field count", 5, |r| {
        let name = r.string("field name")?;
        Ok(Field::new(name, dtype_from_u8(r.u8("field type")?)?))
    })?);
    let pages = r.seq("page count", 4, |r| {
        let len = r.u32("page length")? as usize;
        // from_bytes fully validates the page encoding (header, slot
        // directory, every column payload).
        Page::from_bytes(r.take(len, "page bytes")?.to_vec())
            .map_err(|e| DecodeError::corrupt("table page", e.to_string()))
    })?;
    let num_rows = r.u64("tail row count")? as usize;
    // The row count is untrusted until a column vouches for it (each
    // decoded column is checked against it below).  A field-less table has
    // no columns to vouch, so bound it directly — otherwise a corrupt
    // header could demand billions of empty tuples.
    if schema.is_empty() && num_rows != 0 {
        return Err(DecodeError::corrupt(
            "tail row count",
            format!("{num_rows} tail rows across zero fields"),
        ));
    }
    let columns = r.repeat(schema.len(), 9, |r| {
        let column = Column::decode_wire(r)?;
        if column.len() != num_rows {
            return Err(DecodeError::corrupt(
                "table tail column",
                format!("holds {} rows, header says {num_rows}", column.len()),
            ));
        }
        Ok(column)
    })?;
    let tail: Vec<Tuple> = (0..num_rows)
        .map(|r| Tuple::new(columns.iter().map(|c| c.value_at(r)).collect()))
        .collect();
    Table::from_parts(schema, pages, tail)
        .map_err(|e| DecodeError::corrupt("table snapshot", e.to_string()))
}
