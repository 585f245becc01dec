//! The multi-process execution backend: phase 2 dispatched to a pool of
//! persistent `mcdbr-worker` OS processes over the wire protocol.
//!
//! A [`ProcessBackend`] implements the same [`ExecBackend`] seam as the
//! in-process pool, with the same bit-identity contract: for any worker
//! count, a block — or its aggregate — equals in-process execution exactly.
//! A block's active streams partition into balanced
//! [`mcdbr_prng::StreamKeyRange`]s, one [`mcdbr_exec::ShardTask`] per
//! worker; each worker ships its range's stream cells back, every reply is
//! checked where it enters ([`check_reply`]), and the coordinator — which
//! holds the skeleton — hands them back whole
//! ([`ExecBackend::instantiate_cells`], its one override):
//! `ExecSession::sample_block` folds them straight into the aggregate, the
//! trait's provided `instantiate_block` assembles a block from them, and
//! the Gibbs looper reads them as they are.
//!
//! **One plan identity.**  Every prepared plan is keyed by its
//! [`PlanKey`] `(plan fingerprint, catalog epoch)` — the key
//! `SessionCache` stores skeletons under, and which every skeleton records.
//! [`ExecBackend::prepare_dispatch`] (sessions call it before every cached
//! block) encodes a key's `Plan` frame once: the plan together with every
//! table it reads, pages verbatim.  A block dispatches under its
//! skeleton's key; a key with no entry (never primed, or a session whose
//! catalog is not its skeleton's) runs locally.
//!
//! **Cold vs warm workers.**  A worker receives a key's `Plan` frame once,
//! right before its first task for that key, and answers nothing to it.
//! After that, tasks travel as a ~60-byte header and the worker's own
//! `SessionCache` skips phase 1 (`worker_warm_hits` counts those skips).
//! A new catalog epoch is a new key, so its plan and tables ship again.
//!
//! **One failure rule.**  A dispatched unit either comes back as a checked
//! reply, or it runs here.  Any failure of its worker — a send error, EOF,
//! a corrupt or mismatched reply, the read deadline, or an `Error` frame
//! the worker reports (an unknown plan key included) — reaps that worker
//! (pipe close, then SIGKILL) and replaces it at once with a cold one, and
//! the unit's [`mcdbr_exec::ShardTask`] runs in this process after the
//! state lock drops.  Every stream value is a pure function of `(seed,
//! position)`, so the local run gives the bits the worker would have sent,
//! and an error it raises is the block's error, the one in-process
//! execution raises.  A reply must be complete within the task read
//! deadline (30 s unless the caller sets [`ProcessBackend::with_deadline`];
//! a reader thread per worker feeds a channel so reads can time out).
//! Every slot's reply is read to its end or its worker is reaped, so no
//! stale frame outlives a block, and a fault costs at most one task
//! deadline per slot per block.  `deadline_timeouts`, `worker_respawns`
//! and `task_retries` (units re-run here) count the events.
//!
//! **One local path.**  A unit that does not go over the wire runs here the
//! same way, with `tasks_dispatched` flat so the fallback is observable:
//! a prefix that cannot travel (a third-party VG function outside the
//! built-in set, or a prefix the backend was never primed for: direct
//! backend calls without a session) sends nothing and moves no counter.
//!
//! **Fault injection.**  Chaos runs arm a seeded
//! [`mcdbr_faults::FaultPlan`] with [`ProcessBackend::with_fault_spec`] —
//! the only way to arm one: the coordinator's sends route through
//! [`wire::write_frame_faulty`] and spawned workers receive the plan in
//! their environment (a `worker=K` target restricts it to one slot and
//! disables the coordinator's own send faults) — every failure above can
//! be injected deterministically and replayed from the seed.  Without a
//! plan, a fault plan in the coordinator's own environment never reaches
//! its workers.
//!
//! **Why cells travel, and partials wait.**  A join fans each stream out to
//! many bundles, and a stream's values are a pure function of `(seed,
//! position)`: the cells are the least a worker can ship that serves both
//! `sample_block` and `instantiate_block`, with the same tasks and bytes.
//! Partial aggregates would serve only a sampled block (every aggregate
//! is one fold on the coordinator's calling thread), and the perf ledger's
//! `naive.join_process2` fails a run whose `wire_bytes_received` differs
//! between its plain operations and its traced ones, which replay
//! `instantiate_block` + `aggregate`.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mcdbr_exec::{
    BlockBufferPool, CellCols, DeterministicPrefix, ExecBackend, PlanKey, PlanNode, ShardStats,
    ShardTask,
};
use mcdbr_faults::{FaultInjector, FaultPlan};
use mcdbr_storage::{Catalog, Column, DataType, Result};

use crate::wire::{self, Frame, TaskHeader, WireError, WireResult};
use crate::worker::MAX_KNOWN_PLANS;

/// How many plan keys the dispatcher keeps encoded (oldest evicted beyond
/// this; re-priming re-encodes).
const MAX_PREPARED_PLANS: usize = 64;

/// Task-read deadline unless the caller sets [`ProcessBackend::with_deadline`].
const DEFAULT_TASK_DEADLINE: Duration = Duration::from_secs(30);

/// One live worker process and what it already knows.  Frames from the
/// worker's stdout are pumped by a dedicated reader thread into `rx`, so
/// coordinator reads can carry a deadline (`recv_timeout`) — std pipes have
/// no portable read timeout.  Killing the child closes the pipe, which
/// makes the reader thread exit on EOF.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    rx: mpsc::Receiver<WireResult<(Vec<u8>, u64)>>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// The plan keys this worker holds: the last [`MAX_KNOWN_PLANS`] it
    /// was sent `Plan` frames for, oldest first — the order its store
    /// evicts in, so an evicted key counts as cold and is sent again.
    known: VecDeque<PlanKey>,
}

/// Reap a worker with a bounded wait: close its stdin (a well-behaved
/// worker exits on pipe EOF), poll for exit up to `grace`, then escalate to
/// SIGKILL so a child that ignores the pipe close can never wedge a
/// replacement or teardown.  Joins the reader thread (the dead child's
/// pipe EOF has already unblocked it).
fn reap_worker(mut worker: Worker, grace: Duration) {
    drop(worker.stdin);
    let deadline = Instant::now() + grace;
    let exited = loop {
        match worker.child.try_wait() {
            Ok(Some(_)) => break true,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            _ => break false,
        }
    };
    if !exited {
        let _ = worker.child.kill();
        let _ = worker.child.wait();
    }
    if let Some(handle) = worker.reader.take() {
        let _ = handle.join();
    }
}

/// One prepared plan version: its key and its encoded `Plan` frame (plan
/// and tables) — `None` when the plan is not wire-serializable and its
/// blocks run locally.
struct PlanEntry {
    key: PlanKey,
    frame: Option<Arc<Vec<u8>>>,
}

#[derive(Default)]
struct State {
    slots: Vec<Option<Worker>>,
    plans: Vec<PlanEntry>,
}

/// The multi-process [`ExecBackend`]: see the module docs for the
/// contract.
pub struct ProcessBackend {
    workers: usize,
    state: Mutex<State>,
    /// How long a task's reply may take; a worker whose reply is not
    /// complete by then is replaced and its unit runs here.
    task_deadline: Duration,
    /// The fault plan driving this backend's chaos run, if any (set only by
    /// [`ProcessBackend::with_fault_spec`]).  Spawned workers receive the
    /// plan via their environment; the coordinator's own sends inject only
    /// when the plan has no `worker=K` target.
    faults: Option<Arc<FaultInjector>>,
    /// Extra environment for spawned workers (on top of the inherited
    /// process environment).
    worker_env: Vec<(String, String)>,
    workers_spawned: AtomicUsize,
    tasks_dispatched: AtomicUsize,
    wire_bytes_sent: AtomicU64,
    wire_bytes_received: AtomicU64,
    worker_respawns: AtomicUsize,
    worker_warm_hits: AtomicUsize,
    deadline_timeouts: AtomicUsize,
    task_retries: AtomicUsize,
}

impl std::fmt::Debug for ProcessBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessBackend")
            .field("workers", &self.workers)
            .field("stats", &self.shard_stats())
            .finish()
    }
}

impl ProcessBackend {
    /// Create a backend dispatching to `workers` worker processes
    /// (minimum 1).  Workers are spawned lazily on first dispatch and kept
    /// warm across blocks, sessions, and queries.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        ProcessBackend {
            workers,
            state: Mutex::new(State {
                slots: (0..workers).map(|_| None).collect(),
                plans: Vec::new(),
            }),
            task_deadline: DEFAULT_TASK_DEADLINE,
            faults: None,
            worker_env: Vec::new(),
            workers_spawned: AtomicUsize::new(0),
            tasks_dispatched: AtomicUsize::new(0),
            wire_bytes_sent: AtomicU64::new(0),
            wire_bytes_received: AtomicU64::new(0),
            worker_respawns: AtomicUsize::new(0),
            worker_warm_hits: AtomicUsize::new(0),
            deadline_timeouts: AtomicUsize::new(0),
            task_retries: AtomicUsize::new(0),
        }
    }

    /// The target worker-process count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Override the task read deadline (30 s by default).  Chaos tests
    /// shrink this so a stalled worker is replaced in a second.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.task_deadline = deadline;
        self
    }

    /// Set an environment variable on every worker this backend spawns
    /// (workers otherwise inherit the coordinator's environment), without
    /// touching the coordinator's own environment.
    pub fn with_worker_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.worker_env.push((key.into(), value.into()));
        self
    }

    /// Drive this backend (and its spawned workers) from a fault plan — see
    /// [`mcdbr_faults::FaultPlan::parse`] for the grammar.  A `worker=K`
    /// target confines injection to that one worker slot.
    pub fn with_fault_spec(mut self, spec: &str) -> Result<Self> {
        let plan = FaultPlan::parse(spec).map_err(mcdbr_storage::Error::Invalid)?;
        self.faults = Some(Arc::new(FaultInjector::new(plan)));
        Ok(self)
    }

    /// The injector applied to the coordinator's own sends: the active plan,
    /// unless it targets a specific worker slot.
    fn coordinator_faults(&self) -> Option<&FaultInjector> {
        self.faults
            .as_deref()
            .filter(|inj| inj.plan().target_worker.is_none())
    }

    /// Kill worker `index`'s OS process (if one is live), leaving the dead
    /// handle in place so the *next* dispatch to it fails and takes the
    /// failure rule.  A fault-injection hook for tests and operational
    /// drills; counted in `worker_respawns` when the replacement happens,
    /// not here.
    pub fn kill_worker(&self, index: usize) {
        let mut state = self.state.lock().expect("dispatch state");
        if let Some(worker) = state.slots.get_mut(index).and_then(Option::as_mut) {
            let _ = worker.child.kill();
            let _ = worker.child.wait();
        }
    }

    /// Resolve the `mcdbr-worker` binary: the `MCDBR_WORKER_BIN`
    /// environment variable when set, else a sibling of the current
    /// executable (hopping out of cargo's `deps/` / `examples/`
    /// directories).
    fn worker_binary() -> WireResult<PathBuf> {
        if let Ok(path) = std::env::var("MCDBR_WORKER_BIN") {
            return Ok(PathBuf::from(path));
        }
        let exe = std::env::current_exe()?;
        let mut dir = exe
            .parent()
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        if dir
            .file_name()
            .is_some_and(|n| n == "deps" || n == "examples")
        {
            dir.pop();
        }
        let candidate = dir.join(format!("mcdbr-worker{}", std::env::consts::EXE_SUFFIX));
        if candidate.exists() {
            Ok(candidate)
        } else {
            Err(WireError::Io(
                std::io::ErrorKind::NotFound,
                format!(
                    "worker binary not found at {} (build the `mcdbr-worker` bin of \
                     mcdbr-dispatch, or point MCDBR_WORKER_BIN at it)",
                    candidate.display()
                ),
            ))
        }
    }

    /// Spawn the worker process for `slot` and run the handshake; a worker
    /// that fails it is reaped.  The slot index decides whether a
    /// `worker=K`-targeted fault plan reaches this worker's environment.
    fn spawn_worker(&self, slot_index: usize) -> WireResult<Worker> {
        let mut command = Command::new(Self::worker_binary()?);
        command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, value) in &self.worker_env {
            command.env(key, value);
        }
        match self.faults.as_deref() {
            Some(inj) if inj.plan().targets_worker(slot_index) => {
                command.env(mcdbr_faults::FAULTS_ENV, inj.plan().as_str());
            }
            _ => {
                command.env_remove(mcdbr_faults::FAULTS_ENV);
            }
        }
        let mut child = command.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name(format!("mcdbr-worker-reader-{slot_index}"))
            .spawn(move || loop {
                match wire::read_frame(&mut stdout) {
                    Ok(Some(frame)) => {
                        if tx.send(Ok(frame)).is_err() {
                            break;
                        }
                    }
                    // Clean EOF: drop the sender so the coordinator sees a
                    // disconnect (mapped to Truncated) instead of a frame.
                    Ok(None) => break,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            })?;
        let mut worker = Worker {
            child,
            stdin,
            rx,
            reader: Some(reader),
            known: VecDeque::new(),
        };
        self.workers_spawned.fetch_add(1, Ordering::Relaxed);
        match self.handshake(&mut worker) {
            Ok(()) => Ok(worker),
            Err(e) => {
                reap_worker(worker, Duration::ZERO);
                Err(e)
            }
        }
    }

    /// Send `Hello` and check the worker's answer: our magic and version.
    fn handshake(&self, worker: &mut Worker) -> WireResult<()> {
        self.send(worker, &wire::encode_hello())?;
        worker.stdin.flush()?;
        let (payload, _) = self.receive(worker, Instant::now() + self.task_deadline)?;
        match wire::decode_frame(&payload)? {
            Frame::Hello { magic, version } if magic == wire::WIRE_MAGIC => {
                if version == wire::WIRE_VERSION {
                    Ok(())
                } else {
                    Err(WireError::VersionMismatch {
                        ours: wire::WIRE_VERSION,
                        theirs: version,
                    })
                }
            }
            Frame::Hello { magic, .. } => Err(WireError::BadMagic(magic)),
            Frame::Error { message } => Err(WireError::Remote(message)),
            _ => Err(WireError::Corrupt("expected Hello from worker".into())),
        }
    }

    fn send(&self, worker: &mut Worker, payload: &[u8]) -> WireResult<()> {
        let n = wire::write_frame_faulty(&mut worker.stdin, payload, self.coordinator_faults())?;
        self.wire_bytes_sent.fetch_add(n, Ordering::Relaxed);
        Ok(())
    }

    /// Read the worker's next frame, waiting no later than `deadline`.  A
    /// worker still silent then is counted in `deadline_timeouts` and the
    /// read fails like any other.
    fn receive(&self, worker: &mut Worker, deadline: Instant) -> WireResult<(Vec<u8>, u64)> {
        match (worker.rx).recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Ok((payload, n))) => {
                self.wire_bytes_received.fetch_add(n, Ordering::Relaxed);
                Ok((payload, n))
            }
            Ok(Err(e)) => Err(e),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(WireError::Truncated {
                what: "worker response",
            }),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                Err(WireError::Io(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "worker silent past the {:?} task deadline",
                        self.task_deadline
                    ),
                ))
            }
        }
    }

    /// Send `unit`'s task to the worker in `slot`, spawning it first when
    /// empty.  A worker cold for `key` gets the `Plan` frame right before
    /// the task, with no reply to wait for.
    fn send_task(
        &self,
        slot: &mut Option<Worker>,
        index: usize,
        key: PlanKey,
        plan_frame: &[u8],
        unit: &ShardTask,
    ) -> WireResult<()> {
        if slot.is_none() {
            *slot = Some(self.spawn_worker(index)?);
        }
        let worker = slot.as_mut().expect("slot just filled");
        if !worker.known.contains(&key) {
            self.send(worker, plan_frame)?;
            worker.known.push_back(key);
            if worker.known.len() > MAX_KNOWN_PLANS {
                worker.known.pop_front();
            }
        }
        let task = wire::encode_task(&TaskHeader {
            key,
            master_seed: unit.master_seed,
            key_range: unit.key_range,
            base_pos: unit.base_pos,
            num_values: unit.num_values,
        });
        self.send(worker, &task)?;
        worker.stdin.flush()?;
        self.tasks_dispatched.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read one task's reply to its end — `Cells` frames up to the
    /// terminating stats frame, all within the task deadline — and check it
    /// against `unit` ([`check_reply`]).  An `Error` frame fails the read.
    fn read_reply(&self, slot: &mut Option<Worker>, unit: &ShardTask) -> WireResult<Vec<CellCols>> {
        let worker = slot.as_mut().expect("a sent task's worker");
        let deadline = Instant::now() + self.task_deadline;
        let mut reply = Vec::new();
        loop {
            let (payload, _) = self.receive(worker, deadline)?;
            match wire::decode_frame(&payload)? {
                Frame::Cells { idx, cells } => reply.push((idx, cells)),
                Frame::TaskStats(stats) if stats.cells == reply.len() => {
                    let cells = check_reply(unit, reply)?;
                    let warm = usize::from(stats.warm_hit);
                    self.worker_warm_hits.fetch_add(warm, Ordering::Relaxed);
                    return Ok(cells);
                }
                Frame::Error { message } => return Err(WireError::Remote(message)),
                _ => {
                    return Err(WireError::Corrupt(
                        "unexpected frame inside a task response".into(),
                    ))
                }
            }
        }
    }

    /// The failure rule, applied to one step of slot `index`'s
    /// conversation: a failed step reaps the slot's worker and replaces it
    /// at once with a cold one (a replacement that fails to spawn leaves
    /// the slot empty for the next block to fill), and its unit, which the
    /// caller then runs here, is counted in `task_retries`.
    fn checked<T>(
        &self,
        slot: &mut Option<Worker>,
        index: usize,
        step: WireResult<T>,
    ) -> Option<T> {
        if step.is_err() {
            self.task_retries.fetch_add(1, Ordering::Relaxed);
            if let Some(old) = slot.take() {
                reap_worker(old, Duration::ZERO);
                self.worker_respawns.fetch_add(1, Ordering::Relaxed);
                *slot = self.spawn_worker(index).ok();
            }
        }
        step.ok()
    }

    /// One block's conversation: every unit's task goes out to its slot's
    /// worker before any reply is read, so the workers run concurrently;
    /// then each reply is read in unit (= ascending key-range) order.  A
    /// unit comes back `None` when its worker failed ([`Self::checked`]).
    fn converse(
        &self,
        state: &mut State,
        key: PlanKey,
        plan_frame: &[u8],
        units: &[ShardTask],
    ) -> Vec<Option<Vec<CellCols>>> {
        let sent: Vec<bool> = (units.iter().enumerate())
            .map(|(i, unit)| {
                let slot = &mut state.slots[i];
                let sent = self.send_task(slot, i, key, plan_frame, unit);
                self.checked(slot, i, sent).is_some()
            })
            .collect();
        (units.iter().zip(sent).enumerate())
            .map(|(i, (unit, sent))| {
                let slot = &mut state.slots[i];
                let reply = sent.then(|| self.read_reply(slot, unit))?;
                self.checked(slot, i, reply)
            })
            .collect()
    }
}

/// The entry check on one worker's reply to `unit`: before any cell is
/// read, the reply must hold exactly the active streams of the unit's key
/// range ([`ShardTask::streams`]), in strictly ascending index order, each
/// with the VG output shape the skeleton probed and every column
/// `unit.num_values` values long and of the VG output's type.  Anything
/// else is [`WireError::Corrupt`].
fn check_reply(unit: &ShardTask, reply: Vec<(u64, CellCols)>) -> WireResult<Vec<CellCols>> {
    let (streams, n) = (unit.streams(), unit.num_values);
    if reply.len() != streams.len() {
        let (got, want, range) = (reply.len(), streams.len(), unit.key_range);
        return Err(WireError::Corrupt(format!(
            "{got} streams' cells for the {want} of {range}"
        )));
    }
    let mut out = Vec::with_capacity(reply.len());
    for (at, (idx, cells)) in streams.zip(reply) {
        let (source, rows) = unit.skeleton.stream_recipe(at);
        let types: Vec<DataType> = (source.vg.output_fields().iter())
            .map(|f| f.data_type)
            .collect();
        // Untyped (all-null) and mixed columns carry no single type; a
        // `Discrete` function may produce either.  A zero-position block may
        // be left unshaped, and its empty columns hold no value of any type.
        let typed = |(column, &want): (&Arc<Column>, &DataType)| {
            n == 0 || want == DataType::Null || column.data_type().is_none_or(|t| t == want)
        };
        let shaped = cells.shape() == (rows, types.len()) || n == 0 && cells.shape() == (0, 0);
        let fits = idx == at as u64
            && shaped
            && cells.columns().iter().all(|column| column.len() == n)
            && cells.columns().iter().zip(types.iter().cycle()).all(typed);
        if !fits {
            return Err(WireError::Corrupt(format!(
                "{:?} cells of stream {idx} where stream {at} of key range {} needs \
                 {rows}x{} columns of {n} {types:?} values",
                cells.shape(),
                unit.key_range,
                types.len()
            )));
        }
        out.push(cells);
    }
    Ok(out)
}

impl ExecBackend for ProcessBackend {
    fn name(&self) -> &'static str {
        "process"
    }

    fn prepare_dispatch(
        &self,
        plan: &PlanNode,
        catalog: &Catalog,
        _prefix: &DeterministicPrefix,
    ) -> Result<()> {
        let key = PlanKey::new(plan, catalog);
        let mut state = self.state.lock().expect("dispatch state");
        if state.plans.iter().any(|e| e.key == key) {
            return Ok(());
        }
        let frame = match wire::encode_plan(key, plan, catalog) {
            Ok(bytes) => Some(Arc::new(bytes)),
            // Not expressible on the wire (third-party VG): remember the
            // verdict so every block of this plan runs locally.
            Err(WireError::Unserializable(_)) => None,
            Err(e) => return Err(e.into()),
        };
        if state.plans.len() >= MAX_PREPARED_PLANS {
            state.plans.remove(0);
        }
        state.plans.push(PlanEntry { key, frame });
        Ok(())
    }

    /// Every active stream's cells for one block of `prefix`, in
    /// `active_keys` order, from one [`ShardTask`] per worker slot through
    /// the dispatch conversation.  A prefix whose skeleton's key has no
    /// dispatchable plan frame (never primed, primed with another catalog,
    /// or not wire-serializable) sends nothing; it and every unit whose
    /// worker failed run here.
    fn instantiate_cells(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<Vec<CellCols>> {
        let units = ShardTask::plan(prefix, self.workers, base_pos, num_values);
        let key = prefix.skeleton().key();
        let mut state = self.state.lock().expect("dispatch state");
        let entry = state.plans.iter().find(|e| e.key == key);
        let replies = match entry.and_then(|e| e.frame.clone()) {
            Some(plan_frame) => self.converse(&mut state, key, &plan_frame, &units),
            None => units.iter().map(|_| None).collect(),
        };
        drop(state);

        // The units tile the active streams in order, so their cells,
        // concatenated, are the block's; a local run of a unit is
        // bit-identical to the worker's.
        let mut cells = Vec::with_capacity(prefix.num_active_streams());
        for (unit, reply) in units.iter().zip(replies) {
            match reply {
                Some(got) => cells.extend(got),
                None => cells.extend(unit.run(pool, threads)?.into_iter().map(|(_, c)| c)),
            }
        }
        Ok(cells)
    }

    fn shard_stats(&self) -> ShardStats {
        ShardStats {
            // Every unit this backend spawns is a dispatched task.
            shards_spawned: self.tasks_dispatched.load(Ordering::Relaxed),
            workers_spawned: self.workers_spawned.load(Ordering::Relaxed),
            tasks_dispatched: self.tasks_dispatched.load(Ordering::Relaxed),
            wire_bytes_sent: self.wire_bytes_sent.load(Ordering::Relaxed),
            wire_bytes_received: self.wire_bytes_received.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            worker_warm_hits: self.worker_warm_hits.load(Ordering::Relaxed),
            deadline_timeouts: self.deadline_timeouts.load(Ordering::Relaxed),
            task_retries: self.task_retries.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ProcessBackend {
    fn drop(&mut self) {
        let mut state = self.state.lock().expect("dispatch state");
        for slot in state.slots.iter_mut() {
            if let Some(mut worker) = slot.take() {
                // Best-effort clean shutdown (Shutdown frame + pipe close),
                // bounded wait, then SIGKILL escalation — a worker ignoring
                // the pipe close cannot wedge teardown.
                let _ = wire::write_frame(&mut worker.stdin, &wire::encode_shutdown());
                let _ = worker.stdin.flush();
                reap_worker(worker, Duration::from_millis(200));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_exec::plan::scalar_random_table;
    use mcdbr_exec::{
        fold_block, AggregateSpec, BundleSet, ExecSession, Expr, InProcessBackend,
        QueryResultSamples, SessionCache,
    };
    use mcdbr_storage::{Field, Schema, TableBuilder, Value};
    use mcdbr_vg::NormalVg;

    fn catalog() -> Catalog {
        let mut means =
            TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]));
        for i in 0..8i64 {
            means = means.row([Value::Int64(i), Value::Float64(2.0 + i as f64)]);
        }
        let regions = TableBuilder::new(Schema::new(vec![
            Field::int64("rcid"),
            Field::utf8("region"),
        ]))
        .row([Value::Int64(0), Value::str("EU")])
        .row([Value::Int64(1), Value::str("US")])
        .row([Value::Int64(2), Value::str("US")])
        .row([Value::Int64(5), Value::str("APAC")])
        .build()
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.register("means", means.build().unwrap()).unwrap();
        catalog.register("regions", regions).unwrap();
        catalog
    }

    /// Scan + random table + both filter kinds + join + computed projection.
    fn complex_plan() -> PlanNode {
        PlanNode::random_table(scalar_random_table(
            "Losses",
            "means",
            Arc::new(NormalVg),
            vec![Expr::col("m"), Expr::lit(1.0)],
            &["cid"],
            "val",
            1,
        ))
        .filter(Expr::col("cid").lt(Expr::lit(6i64)))
        .join(PlanNode::scan("regions"), vec![("cid", "rcid")])
        .filter(Expr::col("val").gt(Expr::lit(2.5)))
        .project(vec![
            ("cid", Expr::col("cid")),
            ("loss", Expr::col("val")),
            ("scaled", Expr::col("val").mul(Expr::lit(2.0))),
            ("region", Expr::col("region")),
        ])
    }

    fn assert_sets_identical(a: &BundleSet, b: &BundleSet) {
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.num_reps, b.num_reps);
        assert_eq!(a.bundles, b.bundles);
    }

    /// Every group key and the bits of every sample.
    fn sample_bits(s: &QueryResultSamples) -> Vec<(String, Vec<u64>)> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        let groups = s.groups.iter();
        groups.map(|(k, v)| (format!("{k:?}"), bits(v))).collect()
    }

    /// A decoder's copy of `cells`.
    fn copy(cells: &CellCols) -> CellCols {
        let (rows, cols) = cells.shape();
        let columns = cells.columns().iter().map(|c| Column::clone(c)).collect();
        CellCols::from_columns(rows, cols, columns).unwrap()
    }

    #[test]
    fn replies_that_do_not_match_their_task_are_corrupt() {
        let catalog = catalog();
        let session = ExecSession::prepare(&complex_plan(), &catalog, 5).unwrap();
        let prefix = session.prefix().unwrap();
        let pool = BlockBufferPool::new();
        let n = 6;
        let units = ShardTask::plan(prefix, 2, 0, n);
        let (unit, other) = (&units[0], &units[1]);
        let honest = |unit: &ShardTask| -> Vec<(u64, CellCols)> {
            let cells = unit.run(&pool, 1).unwrap();
            cells.iter().map(|(at, c)| (*at as u64, copy(c))).collect()
        };
        let checked = check_reply(unit, honest(unit)).unwrap();
        assert_eq!(checked.len(), unit.streams().len());
        assert!(checked.len() >= 2, "the cases below need two streams");

        let floats = |len: usize| {
            let mut column = Column::default();
            (0..len).for_each(|i| column.push_f64(i as f64));
            column
        };
        let one = |column: Column| CellCols::from_columns(1, 1, vec![column]).unwrap();
        let mut ints = Column::default();
        (0..n).for_each(|i| ints.push_i64(i as i64));
        let with_first = |cells: CellCols| {
            let mut reply = honest(unit);
            reply[0].1 = cells;
            reply
        };
        let mut cases: Vec<(&str, Vec<(u64, CellCols)>)> = Vec::new();
        let mut reply = honest(unit);
        reply.remove(1);
        cases.push(("a gap", reply));
        let mut reply = honest(unit);
        reply.pop();
        cases.push(("the range's last stream dropped", reply));
        let mut reply = honest(unit);
        reply[1].0 = reply[0].0;
        cases.push(("a duplicate", reply));
        let mut reply = honest(unit);
        reply.swap(0, 1);
        cases.push(("descending indices", reply));
        let mut reply = honest(unit);
        let foreign = honest(other).remove(0);
        *reply.last_mut().unwrap() = foreign;
        cases.push(("an index outside the range", reply));
        cases.push(("n - 1 values", with_first(one(floats(n - 1)))));
        cases.push(("n + 1 values", with_first(one(floats(n + 1)))));
        let grid = |rows, cols| CellCols::from_columns(rows, cols, vec![floats(n), floats(n)]);
        cases.push(("two rows", with_first(grid(2, 1).unwrap())));
        cases.push(("two cols", with_first(grid(1, 2).unwrap())));
        cases.push(("Int64 values", with_first(one(ints))));
        for (what, reply) in cases {
            match check_reply(unit, reply) {
                Err(WireError::Corrupt(message)) => assert!(!message.is_empty()),
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn fault_spec_builder_validates_the_plan() {
        assert!(ProcessBackend::new(1)
            .with_fault_spec("seed=1,drop=0.5")
            .is_ok());
        let err = ProcessBackend::new(1)
            .with_fault_spec("seed=1,warp=0.5")
            .unwrap_err();
        assert!(err.to_string().contains("unknown fault point"));
    }

    #[test]
    fn process_blocks_are_bit_identical_to_in_process_for_every_worker_count() {
        let catalog = catalog();
        let plan = complex_plan();
        let mut reference = ExecSession::prepare(&plan, &catalog, 42)
            .unwrap()
            .with_backend(Arc::new(InProcessBackend::new()));
        let expected: Vec<BundleSet> = [(0u64, 24usize), (24, 24), (9000, 8)]
            .iter()
            .map(|&(base, n)| reference.instantiate_block(&catalog, base, n).unwrap())
            .collect();
        for workers in [1usize, 2, 3] {
            let backend = Arc::new(ProcessBackend::new(workers));
            assert_eq!(backend.name(), "process");
            assert_eq!(backend.workers(), workers);
            let mut session = ExecSession::prepare(&plan, &catalog, 42)
                .unwrap()
                .with_backend(backend.clone());
            for (&(base, n), want) in [(0u64, 24usize), (24, 24), (9000, 8)].iter().zip(&expected) {
                let got = session.instantiate_block(&catalog, base, n).unwrap();
                assert_sets_identical(want, &got);
            }
            let stats = backend.shard_stats();
            assert!(
                stats.tasks_dispatched > 0,
                "{workers} workers: blocks must actually cross the wire"
            );
            assert!(stats.workers_spawned >= 1);
            assert!(stats.wire_bytes_sent > 0 && stats.wire_bytes_received > 0);
            // A fault-free wire: no failure at all, and warm workers.
            assert!(stats.workers_spawned <= workers);
            assert_eq!(stats.worker_respawns, 0);
            assert_eq!(stats.deadline_timeouts, 0);
            assert_eq!(stats.task_retries, 0);
            assert!(
                stats.worker_warm_hits > 0,
                "later blocks must hit the warm-worker phase-1 skip"
            );
        }
    }

    #[test]
    fn killed_workers_are_respawned_and_their_task_re_dispatched() {
        let catalog = catalog();
        let plan = complex_plan();
        let backend = Arc::new(ProcessBackend::new(2));
        let mut session = ExecSession::prepare(&plan, &catalog, 7)
            .unwrap()
            .with_backend(backend.clone());
        let mut reference = ExecSession::prepare(&plan, &catalog, 7)
            .unwrap()
            .with_backend(Arc::new(InProcessBackend::new()));
        let first = session.instantiate_block(&catalog, 0, 16).unwrap();
        assert_sets_identical(
            &reference.instantiate_block(&catalog, 0, 16).unwrap(),
            &first,
        );

        // Kill both workers: each unit of the next block hits its worker's
        // broken pipe (or EOF), the worker is replaced by a cold one, and
        // the unit runs here, bit-identically.
        backend.kill_worker(0);
        backend.kill_worker(1);
        let second = session.instantiate_block(&catalog, 16, 16).unwrap();
        assert_sets_identical(
            &reference.instantiate_block(&catalog, 16, 16).unwrap(),
            &second,
        );
        let stats = backend.shard_stats();
        assert_eq!(
            (stats.worker_respawns, stats.task_retries),
            (2, 2),
            "one replacement and one local run per killed worker: {stats:?}"
        );
        // The replacements are warm for nothing yet: the next block ships
        // them the plan and comes back over the wire.
        let third = session.instantiate_block(&catalog, 32, 16).unwrap();
        assert_sets_identical(
            &reference.instantiate_block(&catalog, 32, 16).unwrap(),
            &third,
        );
        let after = backend.shard_stats().since(stats);
        assert_eq!((after.tasks_dispatched, after.task_retries), (2, 0));
    }

    #[test]
    fn evicted_worker_plans_are_resent_transparently() {
        // Workers bound their plan memory (MAX_KNOWN_PLANS); cycling more
        // distinct plans than that through one worker evicts the first one
        // from the worker's store, and from the coordinator's record of it
        // in the same order.  So plan 0 is sent again with its next task:
        // no failure, no replacement, and the block comes back
        // bit-identical from the worker.
        let catalog = catalog();
        let backend = Arc::new(ProcessBackend::new(1));
        let plan_i = |i: i64| {
            complex_plan().project(vec![("loss", Expr::col("loss")), ("tag", Expr::lit(i))])
        };
        let mut first = ExecSession::prepare(&plan_i(0), &catalog, 5)
            .unwrap()
            .with_backend(backend.clone());
        let _ = first.instantiate_block(&catalog, 0, 4).unwrap();
        // 64 more distinct plans push plan 0 out of the worker's store.
        for i in 1..=64i64 {
            let mut session = ExecSession::prepare(&plan_i(i), &catalog, 5)
                .unwrap()
                .with_backend(backend.clone());
            let _ = session.instantiate_block(&catalog, 0, 2).unwrap();
        }
        let want = |base, n| {
            ExecSession::prepare(&plan_i(0), &catalog, 5)
                .unwrap()
                .with_backend(Arc::new(InProcessBackend::new()))
                .instantiate_block(&catalog, base, n)
                .unwrap()
        };
        let before = backend.shard_stats();
        assert_sets_identical(
            &want(4, 8),
            &first.instantiate_block(&catalog, 4, 8).unwrap(),
        );
        let stats = backend.shard_stats().since(before);
        assert_eq!(
            (
                stats.worker_respawns,
                stats.task_retries,
                stats.deadline_timeouts
            ),
            (0, 0, 0),
            "an evicted plan is sent again, not lost: {stats:?}"
        );
        assert_eq!(stats.tasks_dispatched, 1, "{stats:?}");
        let before = backend.shard_stats();
        assert_sets_identical(
            &want(12, 8),
            &first.instantiate_block(&catalog, 12, 8).unwrap(),
        );
        let stats = backend.shard_stats().since(before);
        assert_eq!(
            (
                stats.tasks_dispatched,
                stats.task_retries,
                stats.worker_respawns
            ),
            (1, 0, 0),
            "the worker keeps serving the plan: {stats:?}"
        );
    }

    #[test]
    fn a_unit_that_errs_fails_its_block_with_the_in_process_error() {
        // `MultiNormal`, except that its skeleton probe ignores the sign of
        // `sd`.  It answers with the built-in's token, so its plan ships and
        // each worker rebuilds the real `MultiNormal`, whose own phase 1
        // refuses `sd = -1`: every worker answers its task with an `Error`
        // frame.  Each unit then runs here, where the block kernel — the
        // built-in's — raises the error in-process execution raises.
        #[derive(Debug)]
        struct LenientProbe(mcdbr_vg::MultiNormalVg);
        impl mcdbr_vg::VgFunction for LenientProbe {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn cache_token(&self) -> String {
                self.0.cache_token()
            }
            fn output_fields(&self) -> Vec<Field> {
                self.0.output_fields()
            }
            fn generate(
                &self,
                params: &[Value],
                gen: &mut mcdbr_prng::Pcg64,
            ) -> mcdbr_storage::Result<Vec<mcdbr_storage::Tuple>> {
                let sd = params[1].as_f64()?.abs();
                self.0
                    .generate(&[params[0].clone(), Value::Float64(sd)], gen)
            }
            fn generate_block_into(
                &self,
                params: &[Value],
                seed: mcdbr_prng::SeedId,
                base_pos: u64,
                num_values: usize,
                out: &mut mcdbr_storage::ColumnBlock,
            ) -> mcdbr_storage::Result<()> {
                (self.0).generate_block_into(params, seed, base_pos, num_values, out)
            }
        }
        let catalog = catalog();
        let plan = PlanNode::random_table(scalar_random_table(
            "Correlated",
            "means",
            Arc::new(LenientProbe(mcdbr_vg::MultiNormalVg::new(2, 0.5))),
            vec![Expr::col("m"), Expr::lit(-1.0)],
            &["cid"],
            "component",
            4,
        ));
        let block = |backend: Arc<dyn ExecBackend>| {
            let session = ExecSession::prepare(&plan, &catalog, 8).unwrap();
            let err = session
                .with_backend(backend)
                .instantiate_block(&catalog, 0, 6);
            err.unwrap_err().to_string()
        };
        let want = block(Arc::new(InProcessBackend::new()));
        assert!(want.contains("MultiNormal: negative sd -1"), "{want}");
        let backend = Arc::new(ProcessBackend::new(2));
        assert_eq!(block(backend.clone()), want);
        let stats = backend.shard_stats();
        assert_eq!(
            (
                stats.tasks_dispatched,
                stats.task_retries,
                stats.worker_respawns
            ),
            (2, 2, 2),
            "both units went out, failed there and ran here: {stats:?}"
        );
    }

    #[test]
    fn prepared_plans_do_not_pin_their_skeletons() {
        // The backend remembers up to MAX_PREPARED_PLANS primed plans, but
        // a skeleton must die with the last session and cache holding it.
        let catalog = catalog();
        let plan = complex_plan();
        let backend = Arc::new(ProcessBackend::new(1));
        let cache = SessionCache::new();
        let mut session = cache
            .session(&plan, &catalog, 42)
            .unwrap()
            .with_backend(backend.clone());
        let _ = session.instantiate_block(&catalog, 0, 8).unwrap();
        assert!(backend.shard_stats().tasks_dispatched >= 1);
        let skeleton = Arc::downgrade(session.prefix().unwrap().skeleton());
        drop((session, cache));
        assert!(
            skeleton.upgrade().is_none(),
            "the backend's plan list kept a dropped session's skeleton alive"
        );

        // A fresh skeleton of the same plan version dispatches under the
        // same key and still runs bit-identically.
        let mut again = ExecSession::prepare(&plan, &catalog, 42)
            .unwrap()
            .with_backend(backend.clone());
        let want = ExecSession::prepare(&plan, &catalog, 42)
            .unwrap()
            .with_backend(Arc::new(InProcessBackend::new()))
            .instantiate_block(&catalog, 8, 8)
            .unwrap();
        assert_sets_identical(&want, &again.instantiate_block(&catalog, 8, 8).unwrap());
    }

    #[test]
    fn a_plan_version_ships_once_per_worker_and_a_catalog_change_ships_again() {
        let mut catalog = catalog();
        let plan = complex_plan();
        let backend = Arc::new(ProcessBackend::new(2));
        let (seed, n) = (9, 16);
        // One block of a fresh skeleton (a new cache each time), checked
        // bit for bit against in-process execution on the same catalog:
        // the bytes it sent beyond its two Task frames.
        let block = |catalog: &Catalog| -> u64 {
            let before = backend.shard_stats();
            let cache = SessionCache::new();
            let session = cache.session(&plan, catalog, seed).unwrap();
            let mut session = session.with_backend(backend.clone());
            let got = session.instantiate_block(catalog, 0, n).unwrap();
            let mut reference = ExecSession::prepare(&plan, catalog, seed).unwrap();
            assert_sets_identical(&reference.instantiate_block(catalog, 0, n).unwrap(), &got);
            let prefix = session.prefix().unwrap();
            let units = ShardTask::plan(prefix, 2, 0, n);
            let tasks = units.iter().map(|unit| {
                let header = TaskHeader {
                    key: prefix.skeleton().key(),
                    master_seed: seed,
                    key_range: unit.key_range,
                    base_pos: 0,
                    num_values: n,
                };
                4 + wire::encode_task(&header).len() as u64
            });
            let stats = backend.shard_stats().since(before);
            assert_eq!(stats.tasks_dispatched, 2);
            stats.wire_bytes_sent - tasks.sum::<u64>()
        };
        // Both workers' Hello and Plan frames, the plan carrying its tables.
        let cold = |catalog: &Catalog, hello: bool| {
            let plan_frame = wire::encode_plan(PlanKey::new(&plan, catalog), &plan, catalog);
            let hello = if hello {
                4 + wire::encode_hello().len()
            } else {
                0
            };
            2 * (hello + 4 + plan_frame.unwrap().len()) as u64
        };

        assert_eq!(block(&catalog), cold(&catalog, true), "a cold block");
        assert_eq!(block(&catalog), 0, "the same plan version ships once");
        // New values in a table the plan reads: a new epoch, a new plan
        // version, shipped to both (warm) workers again.
        let mut means =
            TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]));
        for i in 0..8i64 {
            means = means.row([Value::Int64(i), Value::Float64(10.0 - i as f64)]);
        }
        catalog.register_or_replace("means", means.build().unwrap());
        assert_eq!(block(&catalog), cold(&catalog, false), "a catalog change");
        assert_eq!(block(&catalog), 0, "the new version ships once");
        let stats = backend.shard_stats();
        assert_eq!((stats.workers_spawned, stats.worker_respawns), (2, 0));
    }

    #[test]
    fn unprimed_prefixes_and_unserializable_plans_fall_back_locally() {
        let catalog = catalog();
        let plan = complex_plan();
        let backend = ProcessBackend::new(2);
        let pool = BlockBufferPool::new();
        let session = ExecSession::prepare(&plan, &catalog, 3).unwrap();
        let prefix = session.prefix().unwrap();
        // Direct backend calls without prepare_dispatch: local, identical.
        let direct = backend.instantiate_block(prefix, &pool, 2, 0, 16).unwrap();
        let reference = InProcessBackend::new()
            .instantiate_block(prefix, &pool, 1, 0, 16)
            .unwrap();
        assert_sets_identical(&reference, &direct);
        let agg = AggregateSpec::sum(Expr::col("loss"), "total");
        let by = ["region".to_string()];
        let sampled = |b: &dyn ExecBackend| {
            let cells = b.instantiate_cells(prefix, &pool, 2, 3, 16).unwrap();
            sample_bits(&fold_block(prefix, cells, 16, &agg, &by, None).unwrap())
        };
        assert_eq!(sampled(&backend), sampled(&InProcessBackend::new()));
        assert_eq!(backend.shard_stats().tasks_dispatched, 0);

        // A session handed a catalog that is not its skeleton's (a new
        // epoch) primes another key: its skeleton's key has no entry, so
        // its blocks run here, as its skeleton says.
        let mut moved = catalog.clone();
        moved.register_or_replace("regions", catalog.get("regions").unwrap().clone());
        let mut session = ExecSession::prepare(&plan, &catalog, 3)
            .unwrap()
            .with_backend(Arc::new(ProcessBackend::new(2)));
        let got = session.instantiate_block(&moved, 0, 16).unwrap();
        assert_sets_identical(&reference, &got);
        assert_eq!(session.backend().shard_stats().tasks_dispatched, 0);

        // A third-party VG function is not wire-serializable: prime +
        // instantiate still works, locally.
        #[derive(Debug)]
        struct LocalVg;
        impl mcdbr_vg::VgFunction for LocalVg {
            fn name(&self) -> &str {
                "LocalOnly"
            }
            fn cache_token(&self) -> String {
                self.name().into()
            }
            fn output_fields(&self) -> Vec<Field> {
                vec![Field::float64("value")]
            }
            fn generate(
                &self,
                _params: &[Value],
                gen: &mut mcdbr_prng::Pcg64,
            ) -> mcdbr_storage::Result<Vec<mcdbr_storage::Tuple>> {
                Ok(vec![mcdbr_storage::Tuple::from_iter_values([
                    gen.next_f64()
                ])])
            }
        }
        let local_plan = PlanNode::random_table(scalar_random_table(
            "Local",
            "means",
            Arc::new(LocalVg),
            vec![],
            &["cid"],
            "val",
            9,
        ));
        let cache = SessionCache::new();
        let mut session = cache
            .session(&local_plan, &catalog, 5)
            .unwrap()
            .with_backend(Arc::new(ProcessBackend::new(2)));
        let mut reference = cache
            .session(&local_plan, &catalog, 5)
            .unwrap()
            .with_backend(Arc::new(InProcessBackend::new()));
        let a = session.instantiate_block(&catalog, 0, 12).unwrap();
        let b = reference.instantiate_block(&catalog, 0, 12).unwrap();
        assert_sets_identical(&b, &a);
        let agg = AggregateSpec::sum(Expr::col("val"), "total");
        let a = session
            .sample_block(&catalog, 12, 12, &agg, &[], None)
            .unwrap();
        let b = reference.sample_block(&catalog, 12, 12, &agg, &[], None);
        assert_eq!(sample_bits(&a), sample_bits(&b.unwrap()));
        assert_eq!(session.backend().shard_stats().tasks_dispatched, 0);
        // Its token names no built-in, so neither frame can carry it.
        assert!(matches!(
            wire::encode_query(&local_plan, &agg, None, &[], 12, 5),
            Err(WireError::Unserializable(_))
        ));
        assert!(matches!(
            wire::encode_plan(PlanKey::new(&local_plan, &catalog), &local_plan, &catalog),
            Err(WireError::Unserializable(_))
        ));
    }
}
