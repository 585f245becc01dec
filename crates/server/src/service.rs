//! The resident query service: a TCP listener serving concurrent Monte
//! Carlo queries over one shared [`SessionCache`] + [`BlockBufferPool`].
//!
//! ## Conversation
//!
//! The wire discipline is `mcdbr_dispatch::wire`'s MCDW framing over TCP;
//! the client is the handshake initiator (it speaks `Hello` first, like
//! the dispatch coordinator does to a worker):
//!
//! ```text
//! client → server             server → client
//! ──────────────              ───────────────
//! Hello{magic, version}   →
//!                         ←   Hello{magic, version}     (or Error + close)
//! Query{plan, agg, ...}   →
//!                         ←   QueryResult{samples}      (success...)
//!                         ←   QueryStats{counters}      (...terminator)
//!                         ←   ErrorReply{code, msg}     (rejection/failure)
//! StatsRequest            →
//!                         ←   ServerStats{totals}
//! Shutdown                →                             (begin graceful drain)
//! ```
//!
//! ## Admission, fairness, drain
//!
//! * **Admission**: at most `max_inflight` queries execute at once; the
//!   `max_inflight + 1`-th gets a typed `Busy` reply immediately (bounded
//!   work, no unbounded queue build-up).  Draining servers reply
//!   `ShuttingDown`, and a query asking for more than [`MAX_QUERY_REPS`]
//!   repetitions is answered `Invalid` before it is admitted.  An admitted
//!   query whose block would pass [`mcdbr_exec::MAX_BLOCK_CELLS`] — a
//!   `Split` plan's variants included — is answered `Invalid` before its
//!   cells are allocated.
//! * **Fairness**: each admitted query runs through a per-query
//!   [`FairBackend`] that places its work as units on the shared
//!   [`FairScheduler`] — a block's generation units, or one unit that
//!   aggregates a fallback plan's set on its one pool thread; the
//!   scheduler round-robins across queries, so a big query cannot starve
//!   a small one.
//! * **Drain**: `Shutdown` (frame or [`ServerHandle::shutdown`]) stops
//!   admitting, lets every in-flight query finish and deliver its full
//!   response, then closes idle connections and joins all threads.  A
//!   malformed frame kills only its own connection — the accept loop and
//!   every other client are unaffected; a client that dies mid-query has
//!   its slot reclaimed when the response write fails.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcdbr_dispatch::wire::{self, Frame, ReplyCode, WireError, WireResult};
use mcdbr_exec::{
    par, BlockBufferPool, CancelToken, ExecBackend, QueryResultSamples, SessionCache, ShardStats,
};
use mcdbr_mcdb::MonteCarloQuery;
use mcdbr_storage::{Catalog, Error, Result};

use crate::backend::FairBackend;
use crate::sched::FairScheduler;

/// The most Monte Carlo repetitions one `Query` may ask for; a larger
/// count is answered [`ReplyCode::Invalid`] before admission.  Phase 2
/// reserves that many values per stream at once, so the client's count
/// would otherwise choose the server's allocation.  The repository's
/// largest server query runs 2 000.
pub const MAX_QUERY_REPS: u64 = 1 << 20;

/// Server tuning knobs; `Default` is sized to the machine.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an OS-assigned port
    /// ([`ServerHandle::addr`] reports the real one).
    pub addr: String,
    /// Scheduler pool width (work-unit parallelism across all queries).
    pub workers: usize,
    /// Admission cap: queries executing at once before `Busy` replies.
    pub max_inflight: usize,
    /// Per-query wall-clock deadline.  A query past its deadline is
    /// cancelled cooperatively at its next block boundary and answered
    /// with a typed [`ReplyCode::Timeout`] reply; `None` (the default)
    /// never times queries out.
    pub query_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = par::default_threads().max(2);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            max_inflight: workers * 2,
            query_deadline: None,
        }
    }
}

/// Everything the accept loop, connection threads, and handle share.
struct Shared {
    catalog: Catalog,
    cache: Arc<SessionCache>,
    pool: Arc<BlockBufferPool>,
    inner: Arc<dyn ExecBackend>,
    sched: Arc<FairScheduler>,
    max_inflight: usize,
    query_deadline: Option<Duration>,
    addr: SocketAddr,
    gate: Mutex<Gate>,
    drained: Condvar,
    /// Inner-backend counter snapshot at startup, so server-wide stats
    /// report this server's activity even on a pre-used backend.
    baseline: ShardStats,
    next_qid: AtomicU64,
    queries_served: AtomicU64,
    plan_executions: AtomicU64,
    /// Scheduler units spawned across all queries (each query's
    /// [`FairBackend::units_spawned`]); the inner backend's own units are
    /// reported on top.
    shards_spawned: AtomicU64,
    busy_rejections: AtomicU64,
    /// Admitted queries cancelled at a block boundary for blowing the
    /// per-query deadline (each is answered with a typed `Timeout` reply).
    query_timeouts: AtomicU64,
    connections: AtomicU64,
    /// Live write-halves of accepted connections, force-closed after drain
    /// so reader loops blocked on idle clients terminate.  Each entry is
    /// removed when its connection thread exits — a lingering clone would
    /// keep the socket from ever sending FIN (and leak the fd).
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

#[derive(Debug, Default)]
struct Gate {
    draining: bool,
    inflight: usize,
}

/// What admission decided for one query.
enum Admission {
    Admitted,
    Busy,
    Draining,
}

/// Releases an admission slot on every exit path — including a failed
/// response write to a killed client.
struct SlotGuard {
    shared: Arc<Shared>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let mut gate = self.shared.gate.lock().expect("gate");
        gate.inflight -= 1;
        drop(gate);
        self.shared.drained.notify_all();
    }
}

impl Shared {
    fn admit(self: &Arc<Self>) -> (Admission, Option<SlotGuard>) {
        let mut gate = self.gate.lock().expect("gate");
        if gate.draining {
            return (Admission::Draining, None);
        }
        if gate.inflight >= self.max_inflight {
            return (Admission::Busy, None);
        }
        gate.inflight += 1;
        (
            Admission::Admitted,
            Some(SlotGuard {
                shared: Arc::clone(self),
            }),
        )
    }

    fn begin_drain(&self) {
        {
            let mut gate = self.gate.lock().expect("gate");
            gate.draining = true;
        }
        self.drained.notify_all();
        // Unblock a listener parked in accept(): the poison connection is
        // accepted, seen during drain, and dropped.
        let _ = TcpStream::connect(self.addr);
    }

    fn is_draining(&self) -> bool {
        self.gate.lock().expect("gate").draining
    }

    fn wait_drained(&self) {
        let mut gate = self.gate.lock().expect("gate");
        while !(gate.draining && gate.inflight == 0) {
            gate = self.drained.wait(gate).expect("gate");
        }
    }

    fn server_stats(&self) -> wire::ServerStats {
        let window = self.inner.shard_stats().since(self.baseline);
        wire::ServerStats {
            queries_served: self.queries_served.load(Ordering::Relaxed),
            skeleton_hits: self.cache.skeleton_hits() as u64,
            skeleton_misses: self.cache.skeleton_misses() as u64,
            plan_executions: self.plan_executions.load(Ordering::Relaxed),
            shards_spawned: self.shards_spawned.load(Ordering::Relaxed)
                + window.shards_spawned as u64,
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            inflight: self.gate.lock().expect("gate").inflight as u64,
            query_timeouts: self.query_timeouts.load(Ordering::Relaxed),
        }
    }

    /// Execute one admitted query through a fresh per-query [`FairBackend`].
    fn run_query(
        self: &Arc<Self>,
        query: &MonteCarloQuery,
        reps: usize,
        master_seed: u64,
    ) -> Result<(QueryResultSamples, wire::QueryStats)> {
        let qid = self.next_qid.fetch_add(1, Ordering::Relaxed);
        let cancel = match self.query_deadline {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::unbounded(),
        };
        let fair = Arc::new(FairBackend::new(
            Arc::clone(&self.inner),
            Arc::clone(&self.sched),
            Arc::clone(&self.pool),
            qid,
            cancel,
        ));
        let as_backend: Arc<dyn ExecBackend> = Arc::clone(&fair) as Arc<dyn ExecBackend>;
        let baseline = as_backend.shard_stats();
        let exec_start = Instant::now();
        // Every connection shares one cache (one client's phase 1 is every
        // client's hit) and one pool of block shells.
        let sampled = self
            .cache
            .session(&query.plan, &self.catalog, master_seed)
            .and_then(|session| {
                let mut session = session
                    .with_backend(Arc::clone(&as_backend))
                    .with_pool(Arc::clone(&self.pool));
                let samples = session.sample_block(
                    &self.catalog,
                    0,
                    reps,
                    &query.aggregate,
                    &query.group_by,
                    query.final_predicate.as_ref(),
                )?;
                Ok((samples, session))
            });
        let (samples, session) = match sampled {
            Ok(out) => out,
            Err(e) => {
                if matches!(e, Error::Timeout(_)) {
                    self.query_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return Err(e);
            }
        };
        let exec_ns = exec_start.elapsed().as_nanos() as u64;
        let window = as_backend.shard_stats().since(baseline);
        let plan_executions = session.plan_executions() as u64;
        self.queries_served.fetch_add(1, Ordering::Relaxed);
        self.plan_executions
            .fetch_add(plan_executions, Ordering::Relaxed);
        self.shards_spawned
            .fetch_add(fair.units_spawned() as u64, Ordering::Relaxed);
        Ok((
            samples,
            wire::QueryStats {
                skeleton_hit: session.skeleton_hit(),
                plan_executions,
                shards_spawned: window.shards_spawned as u64,
                queue_wait_ns: fair.queue_wait_ns(),
                exec_ns,
            },
        ))
    }
}

/// The server constructor; returns a [`ServerHandle`] once listening.
pub struct Server;

impl Server {
    /// Bind `config.addr`, start the scheduler pool and the accept loop,
    /// and serve `catalog` through `inner` until shut down.
    pub fn start(
        catalog: Catalog,
        inner: Arc<dyn ExecBackend>,
        config: ServerConfig,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| mcdbr_storage::Error::Invalid(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| mcdbr_storage::Error::Invalid(format!("local addr: {e}")))?;
        let baseline = inner.shard_stats();
        let shared = Arc::new(Shared {
            catalog,
            cache: Arc::new(SessionCache::new()),
            pool: Arc::new(BlockBufferPool::new()),
            inner,
            sched: FairScheduler::start(config.workers),
            max_inflight: config.max_inflight.max(1),
            query_deadline: config.query_deadline,
            addr,
            gate: Mutex::new(Gate::default()),
            drained: Condvar::new(),
            baseline,
            next_qid: AtomicU64::new(1),
            queries_served: AtomicU64::new(0),
            plan_executions: AtomicU64::new(0),
            shards_spawned: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            query_timeouts: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(accept_shared, listener));
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
        })
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.is_draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(write_half) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conns")
                .insert(conn_id, write_half);
        }
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            // A connection-level wire error (fuzzed garbage, truncated
            // frame, client gone) closes this connection only — and even a
            // panicking handler must release the registered write-half, or
            // the peer never sees the connection close.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = serve_conn(&conn_shared, stream);
            }));
            conn_shared.conns.lock().expect("conns").remove(&conn_id);
        });
        // Join the threads of connections that have ended, so a long-lived
        // server holds one handle per live connection, not per accept.
        let mut threads = shared.conn_threads.lock().expect("conn threads");
        let (done, mut live): (Vec<_>, Vec<_>) = std::mem::take(&mut *threads)
            .into_iter()
            .partition(|thread| thread.is_finished());
        for thread in done {
            let _ = thread.join();
        }
        live.push(handle);
        *threads = live;
    }
}

/// Handshake then request loop for one connection.
fn serve_conn(shared: &Arc<Shared>, stream: TcpStream) -> WireResult<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;

    // Client speaks Hello first; anything else — bad magic, wrong version,
    // garbage — earns a best-effort Error frame and a close, exactly like
    // the worker handshake.
    let Some((payload, _)) = wire::read_frame(&mut reader)? else {
        return Ok(()); // connected-and-left (or the drain poison pill)
    };
    match wire::decode_frame(&payload) {
        Ok(Frame::Hello { magic, version }) => {
            if magic != wire::WIRE_MAGIC {
                let err = WireError::BadMagic(magic);
                reject_handshake(&mut writer, &err)?;
                return Err(err);
            }
            if version != wire::WIRE_VERSION {
                let err = WireError::VersionMismatch {
                    ours: wire::WIRE_VERSION,
                    theirs: version,
                };
                reject_handshake(&mut writer, &err)?;
                return Err(err);
            }
            wire::write_frame(&mut writer, &wire::encode_hello())?;
            writer.flush()?;
        }
        Ok(_) => {
            let err = WireError::Corrupt("expected Hello to open the connection".into());
            reject_handshake(&mut writer, &err)?;
            return Err(err);
        }
        Err(err) => {
            reject_handshake(&mut writer, &err)?;
            return Err(err);
        }
    }

    loop {
        let Some((payload, _)) = wire::read_frame(&mut reader)? else {
            return Ok(()); // clean disconnect
        };
        let frame = match wire::decode_frame(&payload) {
            Ok(frame) => frame,
            Err(err) => {
                // Typed reply, then drop the connection: after a framing
                // error the stream offset can no longer be trusted.
                let _ = wire::write_frame(
                    &mut writer,
                    &wire::encode_error_reply(ReplyCode::Invalid, &err.to_string()),
                );
                let _ = writer.flush();
                return Err(err);
            }
        };
        match frame {
            // Phase 2 reserves `reps` values per stream up front, so an
            // oversized count is refused before it can take a slot; the
            // frame itself was well formed, so the connection stays open.
            Frame::Query { reps, .. } if reps > MAX_QUERY_REPS => {
                wire::write_frame(
                    &mut writer,
                    &wire::encode_error_reply(
                        ReplyCode::Invalid,
                        &format!("{reps} repetitions exceed the cap of {MAX_QUERY_REPS}"),
                    ),
                )?;
                writer.flush()?;
            }
            Frame::Query {
                plan,
                aggregate,
                final_predicate,
                group_by,
                reps,
                master_seed,
            } => {
                let reply = match shared.admit() {
                    (Admission::Draining, _) => {
                        wire::encode_error_reply(ReplyCode::ShuttingDown, "server is draining")
                    }
                    (Admission::Busy, _) => {
                        shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                        wire::encode_error_reply(
                            ReplyCode::Busy,
                            "admission cap reached; retry later",
                        )
                    }
                    (Admission::Admitted, guard) => {
                        let _slot = guard;
                        let query = MonteCarloQuery {
                            plan,
                            aggregate,
                            final_predicate,
                            group_by,
                        };
                        match shared.run_query(&query, reps as usize, master_seed) {
                            Ok((samples, stats)) => {
                                wire::write_frame(
                                    &mut writer,
                                    &wire::encode_query_result(&samples),
                                )?;
                                wire::write_frame(&mut writer, &wire::encode_query_stats(stats))?;
                                writer.flush()?;
                                continue;
                            }
                            // A deadlined query earns the typed Timeout
                            // code — retryable policy lives client-side —
                            // and a query the engine refuses as invalid (a
                            // block over the cell budget, a VG parameter
                            // out of range) the Invalid code; everything
                            // else stays Internal.
                            Err(e @ Error::Timeout(_)) => {
                                wire::encode_error_reply(ReplyCode::Timeout, &e.to_string())
                            }
                            Err(e @ Error::Invalid(_)) => {
                                wire::encode_error_reply(ReplyCode::Invalid, &e.to_string())
                            }
                            Err(e) => wire::encode_error_reply(ReplyCode::Internal, &e.to_string()),
                        }
                        // _slot drops here: the admission slot is released
                        // whether the reply write below succeeds or not.
                    }
                };
                wire::write_frame(&mut writer, &reply)?;
                writer.flush()?;
            }
            Frame::StatsRequest => {
                wire::write_frame(
                    &mut writer,
                    &wire::encode_server_stats(shared.server_stats()),
                )?;
                writer.flush()?;
            }
            Frame::Shutdown => {
                shared.begin_drain();
                return Ok(());
            }
            _ => {
                // Worker-protocol or server→client frames on a request
                // stream: typed reply, then close.
                let err = WireError::Corrupt("frame not valid on a client request stream".into());
                let _ = wire::write_frame(
                    &mut writer,
                    &wire::encode_error_reply(ReplyCode::Invalid, &err.to_string()),
                );
                let _ = writer.flush();
                return Err(err);
            }
        }
    }
}

fn reject_handshake(writer: &mut TcpStream, err: &WireError) -> WireResult<()> {
    let _ = wire::write_frame(writer, &wire::encode_error(&err.to_string()));
    let _ = writer.flush();
    Ok(())
}

/// A running server: address, live stats, graceful shutdown.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr())
            .finish()
    }
}

impl ServerHandle {
    /// The bound listen address (the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared session cache (exposed for exact-total test assertions).
    pub fn cache(&self) -> &Arc<SessionCache> {
        &self.shared.cache
    }

    /// The shared block-buffer pool (exposed for exact-total assertions).
    pub fn pool(&self) -> &Arc<BlockBufferPool> {
        &self.shared.pool
    }

    /// A server-wide counter snapshot.
    pub fn stats(&self) -> wire::ServerStats {
        self.shared.server_stats()
    }

    /// Whether a graceful drain has begun (a client sent `Shutdown`, or
    /// [`ServerHandle::shutdown`] was called).
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Block until a drain has started (via a client `Shutdown` frame or
    /// [`ServerHandle::shutdown`]) *and* every in-flight query finished.
    pub fn wait_drained(&self) {
        self.shared.wait_drained();
    }

    /// Gracefully shut down: stop admitting, let in-flight queries finish
    /// and deliver their responses, close idle connections, join every
    /// thread, stop the scheduler.  Returns the final counter snapshot.
    pub fn shutdown(mut self) -> wire::ServerStats {
        self.shared.begin_drain();
        self.shared.wait_drained();
        let stats = self.shared.server_stats();
        // In-flight work is done; now idle reader loops may terminate.
        for (_, conn) in self.shared.conns.lock().expect("conns").drain() {
            let _ = conn.shutdown(SockShutdown::Both);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles: Vec<JoinHandle<()>> = self
            .shared
            .conn_threads
            .lock()
            .expect("conn threads")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.sched.shutdown();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_exec::InProcessBackend;

    #[test]
    fn ended_connections_are_joined_before_the_next_accept() {
        let handle = Server::start(
            Catalog::new(),
            Arc::new(InProcessBackend::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let retained = || handle.shared.conn_threads.lock().unwrap().len();
        for accepted in 1..=16 {
            drop(TcpStream::connect(handle.addr()).unwrap());
            // Wait until the accept loop has taken this connection and its
            // thread has seen the close.
            let deadline = Instant::now() + Duration::from_secs(10);
            while handle.shared.connections.load(Ordering::Relaxed) < accepted
                || !handle.shared.conns.lock().unwrap().is_empty()
                || !handle
                    .shared
                    .conn_threads
                    .lock()
                    .unwrap()
                    .iter()
                    .all(|thread| thread.is_finished())
            {
                assert!(Instant::now() < deadline, "connection thread never ended");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(handle.shared.connections.load(Ordering::Relaxed), 16);
        assert!(retained() <= 2, "{} handles retained", retained());
        handle.shutdown();
    }
}
