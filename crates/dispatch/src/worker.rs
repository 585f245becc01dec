//! The worker side of the dispatch protocol: a request/response loop over
//! a pair of byte streams (stdin/stdout for the `mcdbr-worker` binary;
//! in-memory pipes in tests).
//!
//! A worker is deliberately *stateful but rebuildable*: it remembers every
//! `Plan` frame it has been sent — the rebuilt [`PlanNode`] plus a local
//! [`Catalog`] assembled from the tables the frame carries — keyed by the
//! coordinator's [`PlanKey`], and runs every `Task` through its own
//! [`SessionCache`].  A `Plan` frame gets no reply; a catalog that fails to
//! assemble is reported on the plan's first task.
//!
//! The first task for a plan pays the deterministic skeleton pass (the
//! *cold* path); every later task for the same key hits the cache, skips
//! phase 1 entirely, and reports `warm_hit = true` in its [`TaskStats`]
//! frame — the same plan-keyed reuse the coordinator enjoys in-process.  A
//! replacement worker simply starts cold; the coordinator sends it the
//! plan with its next task.
//!
//! Task-level failures (unknown key, a catalog that did not assemble,
//! execution errors) come back as `Error` frames and leave the loop alive;
//! protocol-level failures (handshake mismatch, corrupt frames) terminate
//! the worker.  The coordinator treats both alike: it replaces the worker
//! and runs the task itself.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;

use mcdbr_exec::{BlockBufferPool, CellCols, PlanNode, SessionCache, ShardTask};
use mcdbr_storage::Catalog;

use crate::wire::{
    self, Frame, PlanKey, TaskHeader, TaskStats, WireError, WireResult, WIRE_MAGIC, WIRE_VERSION,
};

/// One plan the worker knows how to execute: the rebuilt plan tree and
/// the local catalog assembled from its `Plan` frame's tables (or why it
/// did not assemble).  The catalog is built once per frame, so its
/// (worker-local) epoch is stable and the worker's session cache can key
/// on it.
struct KnownPlan {
    plan: PlanNode,
    catalog: Result<Catalog, String>,
}

/// How many plans (and their catalog snapshots) a worker retains.  The
/// coordinator keeps the same FIFO record of what each worker was sent, so
/// it re-sends an evicted plan before the task that needs it; a worker
/// asked about a key it does not hold answers with an "unknown plan key"
/// error, and the coordinator replaces it and runs the task itself.
pub(crate) const MAX_KNOWN_PLANS: usize = 64;

/// The worker's bounded plan store: FIFO eviction past
/// [`MAX_KNOWN_PLANS`], each plan holding its own tables.  Catalog
/// assembly failures surface at *task* time (tasks expect a response; a
/// `Plan` frame has none).
#[derive(Default)]
struct PlanStore {
    plans: HashMap<PlanKey, KnownPlan>,
    order: std::collections::VecDeque<PlanKey>,
}

impl PlanStore {
    fn insert(&mut self, key: PlanKey, entry: KnownPlan) {
        if self.plans.insert(key, entry).is_none() {
            self.order.push_back(key);
        }
        while self.plans.len() > MAX_KNOWN_PLANS {
            if let Some(oldest) = self.order.pop_front() {
                self.plans.remove(&oldest);
            } else {
                break;
            }
        }
    }
}

/// The worker loop: handshake, then serve `Plan`/`Task` frames until a
/// `Shutdown` frame or a clean EOF on `input`.
///
/// Generic over the streams so tests can drive a worker over in-memory
/// pipes; the `mcdbr-worker` binary passes its locked stdin/stdout.
pub fn run_worker<R: Read, W: Write>(input: &mut R, output: &mut W) -> WireResult<()> {
    run_worker_with_faults(input, output, None)
}

/// [`run_worker`] behind a fault injector (the `mcdbr-worker` binary loads
/// the plan its coordinator wrote into `MCDBR_FAULTS`).  Faults touch only
/// the *task* path — a slow-worker sleep before serving, a stall before the
/// first reply frame, and drop/partial/delay on the reply writes — never
/// the handshake, so spawning a faulty worker stays deterministic
/// and every injected failure lands where the coordinator's deadline and
/// failure rule can see it.
pub fn run_worker_with_faults<R: Read, W: Write>(
    input: &mut R,
    output: &mut W,
    faults: Option<&mcdbr_faults::FaultInjector>,
) -> WireResult<()> {
    // A task's reply is one frame per stream: gather them into few writes
    // (stdout is line-buffered).  Every reply ends in a flush.
    let output = &mut std::io::BufWriter::with_capacity(1 << 16, output);
    // ===== Handshake: the coordinator speaks first; reject anything that
    // is not our magic + version before any plan bytes flow.
    let (payload, _) =
        wire::read_frame(input)?.ok_or(WireError::Truncated { what: "handshake" })?;
    match wire::decode_frame(&payload)? {
        Frame::Hello { magic, version } => {
            if magic != WIRE_MAGIC {
                let err = WireError::BadMagic(magic);
                wire::write_frame(output, &wire::encode_error(&err.to_string()))?;
                output.flush()?;
                return Err(err);
            }
            if version != WIRE_VERSION {
                let err = WireError::VersionMismatch {
                    ours: WIRE_VERSION,
                    theirs: version,
                };
                wire::write_frame(output, &wire::encode_error(&err.to_string()))?;
                output.flush()?;
                return Err(err);
            }
        }
        _ => {
            let err = WireError::Corrupt("expected Hello as the first frame".into());
            wire::write_frame(output, &wire::encode_error(&err.to_string()))?;
            output.flush()?;
            return Err(err);
        }
    }
    wire::write_frame(output, &wire::encode_hello())?;
    output.flush()?;

    let mut plans = PlanStore::default();
    let cache = SessionCache::new();
    let pool = BlockBufferPool::new();

    loop {
        let Some((payload, _)) = wire::read_frame(input)? else {
            // Coordinator closed our stdin: clean exit.
            return Ok(());
        };
        match wire::decode_frame(&payload)? {
            Frame::Plan { key, plan, tables } => {
                // No response frame: the plan's first task reports a
                // catalog that does not assemble.
                let mut catalog = Catalog::new();
                let catalog = (tables.into_iter())
                    .try_for_each(|(name, table)| catalog.register(name, table))
                    .map(|()| catalog)
                    .map_err(|e| format!("rebuilding catalog snapshot: {e}"));
                plans.insert(key, KnownPlan { plan, catalog });
            }
            Frame::Task(task) => {
                if let Some(mcdbr_faults::FaultAction::Slow(d)) =
                    faults.and_then(|inj| inj.decide(mcdbr_faults::FaultPoint::SlowWorker))
                {
                    std::thread::sleep(d);
                }
                let reply = serve_task(&plans, &cache, &pool, &task);
                // The hung-but-alive failure mode: the task ran, the reply
                // just never starts.  The coordinator's read deadline is
                // what replaces the worker.
                if let Some(mcdbr_faults::FaultAction::Stall(d)) =
                    faults.and_then(|inj| inj.decide(mcdbr_faults::FaultPoint::StallBeforeReply))
                {
                    std::thread::sleep(d);
                }
                match reply {
                    Ok((cells, stats)) => {
                        for (idx, cells) in &cells {
                            wire::write_frame_faulty(
                                output,
                                &wire::encode_cells(*idx, cells),
                                faults,
                            )?;
                        }
                        wire::write_frame_faulty(output, &wire::encode_task_stats(stats), faults)?;
                    }
                    Err(message) => {
                        wire::write_frame_faulty(output, &wire::encode_error(&message), faults)?;
                    }
                }
                output.flush()?;
            }
            Frame::Shutdown => return Ok(()),
            Frame::Hello { .. } => {
                return Err(WireError::Corrupt("unexpected mid-stream Hello".into()))
            }
            Frame::Cells { .. } | Frame::Bundle { .. } | Frame::TaskStats(_) => {
                return Err(WireError::Corrupt(
                    "received a response frame on the request stream".into(),
                ))
            }
            Frame::Error { message } => return Err(WireError::Remote(message)),
            // Server-protocol frames never travel on a worker's stdin.
            _ => {
                return Err(WireError::Corrupt(
                    "received a server-protocol frame on the worker stream".into(),
                ))
            }
        }
    }
}

/// Execute one task against the worker's known plans — generate the cells
/// of the active streams in its key range — returning them as `(active
/// index, cells)` pairs in ascending index order; errors are returned as
/// strings for the `Error` frame (the loop stays alive).
#[allow(clippy::type_complexity)]
fn serve_task(
    plans: &PlanStore,
    cache: &SessionCache,
    pool: &BlockBufferPool,
    task: &TaskHeader,
) -> Result<(Vec<(usize, CellCols)>, TaskStats), String> {
    let known = plans.plans.get(&task.key).ok_or_else(|| {
        format!(
            "unknown plan key (fingerprint {:#018x}, epoch {}); send a Plan frame first",
            task.key.fingerprint, task.key.epoch
        )
    })?;
    let catalog = known.catalog.as_ref().map_err(Clone::clone)?;
    // The worker's own plan-keyed session cache: the first task for a key
    // builds the skeleton (cold), every later one skips phase 1 (warm).
    let session = cache
        .session(&known.plan, catalog, task.master_seed)
        .map_err(|e| format!("phase 1 failed: {e}"))?;
    let warm_hit = session.skeleton_hit();
    let prefix = session.prefix().ok_or_else(|| {
        format!(
            "plan is not prefix-cacheable ({}); such plans execute locally and are never \
             dispatched",
            session.fallback_reason().unwrap_or("unknown reason")
        )
    })?;
    let shard = ShardTask {
        skeleton: Arc::clone(prefix.skeleton()),
        master_seed: task.master_seed,
        key_range: task.key_range,
        base_pos: task.base_pos,
        num_values: task.num_values,
    };
    let cells = shard
        .run(pool, 1)
        .map_err(|e| format!("shard task failed: {e}"))?;
    let stats = TaskStats {
        cells: cells.len(),
        warm_hit,
    };
    Ok((cells, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_exec::plan::scalar_random_table;
    use mcdbr_exec::Expr;
    use mcdbr_storage::{Field, Schema, TableBuilder, Value};
    use mcdbr_vg::NormalVg;

    fn catalog() -> Catalog {
        let means = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
            .row([Value::Int64(1), Value::Float64(3.0)])
            .row([Value::Int64(2), Value::Float64(4.0)])
            .build()
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.register("means", means).unwrap();
        catalog
    }

    fn plan() -> PlanNode {
        PlanNode::random_table(scalar_random_table(
            "Losses",
            "means",
            Arc::new(NormalVg),
            vec![Expr::col("m"), Expr::lit(1.0)],
            &["cid"],
            "val",
            1,
        ))
    }

    /// Drive a full conversation against `run_worker` over in-memory pipes
    /// and return the response frames.
    fn converse(request_frames: Vec<Vec<u8>>) -> (WireResult<()>, Vec<Frame>) {
        let mut input = Vec::new();
        for frame in request_frames {
            wire::write_frame(&mut input, &frame).unwrap();
        }
        let mut reader = std::io::Cursor::new(input);
        let mut output = Vec::new();
        let result = run_worker(&mut reader, &mut output);
        let mut frames = Vec::new();
        let mut cursor = std::io::Cursor::new(output);
        while let Some((payload, _)) = wire::read_frame(&mut cursor).unwrap() {
            frames.push(wire::decode_frame(&payload).unwrap());
        }
        (result, frames)
    }

    #[test]
    fn cold_then_warm_tasks_round_trip_with_phase_one_skipped_once() {
        let catalog = catalog();
        let plan = plan();
        let key = PlanKey {
            fingerprint: plan.fingerprint(),
            epoch: catalog.epoch(),
        };
        let task = |base_pos| {
            wire::encode_task(&TaskHeader {
                key,
                master_seed: 42,
                key_range: mcdbr_prng::StreamKeyRange::all(),
                base_pos,
                num_values: 8,
            })
        };
        // The cold worker's Plan frame carries the plan's one table.
        let plan_frame = wire::encode_plan(key, &plan, &catalog).unwrap();
        let Frame::Plan { tables, .. } = wire::decode_frame(&plan_frame).unwrap() else {
            panic!("encode_plan must encode a Plan frame");
        };
        assert_eq!(tables.len(), 1);
        assert_eq!(&tables[0].1, catalog.get("means").unwrap());
        let input = vec![
            wire::encode_hello(),
            plan_frame,
            task(0),
            task(8),
            wire::encode_shutdown(),
        ];
        let (result, frames) = converse(input);
        result.unwrap();
        assert!(matches!(frames[0], Frame::Hello { .. }));
        assert!(
            matches!(&frames[1], Frame::Cells { idx: 0, .. }),
            "nothing answers a Plan frame: the first task's cells come next, got {:?}",
            frames[1]
        );
        // Two tasks × (2 streams' cells + 1 stats frame).
        let stats: Vec<&TaskStats> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::TaskStats(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].cells, 2);
        assert!(!stats[0].warm_hit, "first task is cold");
        assert!(stats[1].warm_hit, "second task must hit the worker cache");
        let cells: Vec<(u64, &CellCols)> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Cells { idx, cells } => Some((*idx, cells)),
                _ => None,
            })
            .collect();
        // Each task answers with its streams in active-index order, each one
        // scalar cell over the task's eight positions.
        let idx: Vec<u64> = cells.iter().map(|(idx, _)| *idx).collect();
        assert_eq!(idx, [0, 1, 0, 1]);
        assert!(cells
            .iter()
            .all(|(_, c)| c.shape() == (1, 1) && c.columns()[0].len() == 8));
        assert!(!frames.iter().any(|f| matches!(f, Frame::Bundle { .. })));
    }

    #[test]
    fn version_mismatch_is_rejected_at_handshake() {
        let (result, frames) =
            converse(vec![wire::encode_hello_with(WIRE_MAGIC, WIRE_VERSION + 1)]);
        assert_eq!(
            result,
            Err(WireError::VersionMismatch {
                ours: WIRE_VERSION,
                theirs: WIRE_VERSION + 1,
            })
        );
        assert!(
            matches!(&frames[0], Frame::Error { message } if message.contains("version mismatch")),
            "worker must answer with an Error frame before exiting"
        );

        let (result, frames) = converse(vec![wire::encode_hello_with(0xBAD, WIRE_VERSION)]);
        assert_eq!(result, Err(WireError::BadMagic(0xBAD)));
        assert!(matches!(&frames[0], Frame::Error { .. }));
    }

    #[test]
    fn unknown_task_keys_answer_with_an_error_frame_and_keep_serving() {
        let catalog = catalog();
        let plan = plan();
        let key = PlanKey {
            fingerprint: plan.fingerprint(),
            epoch: catalog.epoch(),
        };
        let bogus = PlanKey {
            fingerprint: 0xDEAD,
            epoch: 0,
        };
        let mk_task = |key| {
            wire::encode_task(&TaskHeader {
                key,
                master_seed: 7,
                key_range: mcdbr_prng::StreamKeyRange::all(),
                base_pos: 0,
                num_values: 4,
            })
        };
        let input = vec![
            wire::encode_hello(),
            mk_task(bogus),
            wire::encode_plan(key, &plan, &catalog).unwrap(),
            mk_task(key),
        ];
        let (result, frames) = converse(input);
        // EOF after the last task is a clean exit.
        result.unwrap();
        assert!(
            matches!(&frames[1], Frame::Error { message } if message.contains("unknown plan key"))
        );
        assert!(frames
            .iter()
            .any(|f| matches!(f, Frame::TaskStats(s) if s.cells == 2)));
    }
}
