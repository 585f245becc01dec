//! The seven workloads.  Each is built by one set-up call (everything before
//! the first timed operation), answers `op` calls from the timed loop, and
//! checks its own outputs afterwards, outside the timed region.
//!
//! An operation run with `traced = true` does the same work through public
//! entry points one layer at a time, each call inside a span; its result
//! must equal the untraced operation's bit for bit.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use mcdbr_core::{GibbsLooper, TailSamplingConfig};
use mcdbr_dispatch::{wire, ProcessBackend};
use mcdbr_exec::{par, BlockBufferPool, ExecBackend, InProcessBackend, SessionCache};
use mcdbr_mcdb::{McdbEngine, MonteCarloQuery};
use mcdbr_risk::TailCdfComparison;
use mcdbr_server::{demo, QueryReply, Server, ServerClient, ServerConfig, ServerHandle};
use mcdbr_storage::{BufferPool, Catalog, Pager, Table};
use mcdbr_workloads::{customer_losses_catalog, TpchConfig, TpchWorkload};

use crate::sys;
use crate::trace::{self, SpanBackend, Tracer};

/// A workload's name and the reason it exists (one line each; the same
/// text `BENCHMARK.json` carries).
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SPECS: [Spec; 7] = [
    Spec {
        name: "tail.join_laptop",
        why: "Appendix D tail query at 2000x20000: the scalar Gibbs loop and full-width replenishment do nearly all the work; control for aggregate and wire changes",
    },
    Spec {
        name: "tail.join_small",
        why: "same looper at 100x800: 61 replenishments of small blocks, so per-block cost and candidate burn dominate instead of per-value cost",
    },
    Spec {
        name: "naive.join_laptop",
        why: "250-rep naive Monte Carlo, cold skeleton per query: aggregate and instantiate do the work and the looper is bypassed; denominator of speedup_vs_naive",
    },
    Spec {
        name: "naive.join_process2",
        why: "the same queries through two worker processes: task encode, bundle decode and merge show here and nowhere else",
    },
    Spec {
        name: "cold.join_paged",
        why: "same catalog on disk in 1 KiB pages behind an 8-frame pool, 10 reps: page read, decode and prepare dominate; naive.join_laptop is its in-memory twin",
    },
    Spec {
        name: "server.demo_c1",
        why: "one closed-loop client over loopback, 64-rep demo query: the latency floor, nearly all socket and frame overhead; engine changes must not move it",
    },
    Spec {
        name: "server.demo_c2",
        why: "two closed-loop clients (= nproc) on the same server: scheduler queueing and shared-cache contention under concurrency",
    },
];

/// Appendix D looper parameters: `m = 5`, `p = 0.25^5`, `l = 100`.
const TAIL_M: usize = 5;
const TAIL_L: usize = 100;
fn tail_p() -> f64 {
    0.25f64.powi(TAIL_M as i32)
}
/// The tail workloads' quantile estimate must lie this close (relative) to
/// the analytic `(1-p)`-quantile of `TpchWorkload::oracle`.
const TAIL_QUANTILE_REL_ERR_BOUND: f64 = 0.05;
pub const NAIVE_REPS: usize = 250;
const COLD_REPS: usize = 10;
const SERVER_REPS: usize = 64;

/// What one operation returned and did.
#[derive(Debug, Default)]
pub struct OpOut {
    /// Fold of `f64::to_bits` over the samples the operation returned.
    pub checksum: u64,
    /// Work counts that must repeat **exactly** across operations of a run.
    pub exact: Vec<(&'static str, u64)>,
    /// Per-layer numbers taken from the program's own results and counters,
    /// keyed by per-layer metric name.
    pub layer: Vec<(&'static str, f64)>,
    /// Correctness failures visible in the operation's own reply.
    pub failures: Vec<String>,
}

/// One finished operation, as `verify` sees it.
pub struct Done {
    pub client: usize,
    pub index: u64,
    pub out: OpOut,
}

/// Outcome of the checks a workload runs after the timed region.
#[derive(Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

pub trait Workload: Sync {
    fn clients(&self) -> usize {
        1
    }
    /// Run operation `index` of `client`.  `Err` is an operation that did
    /// not complete at all.
    fn op(&self, client: usize, index: u64, traced: bool) -> Result<OpOut, String>;
    /// Check outputs against references, outside the timed region.
    fn verify(&self, done: &[Done]) -> Checks;
    fn catalog(&self) -> &Catalog;
    fn tracer(&self) -> &Tracer;
    fn spanned(&self) -> Option<&SpanBackend> {
        None
    }
    /// Layer numbers only the workload can derive, after the traced window.
    fn finish_trace(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// SplitMix64: spreads `--seed` so neighbouring seeds share no inputs.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn checksum(samples: &[f64]) -> u64 {
    samples.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        // A full warm-up query costs as much as a timed one, which at laptop
        // scale is most of a run; there the warm-up is the looper's first
        // step only (phase 1 and the initial block).
        "tail.join_laptop" => Box::new(Tail::new(TpchConfig::laptop_scale(), 500, 77, false)?),
        "tail.join_small" => Box::new(Tail::new(TpchConfig::test_scale(), 300, 79, true)?),
        "naive.join_laptop" => Box::new(Naive::new(seed, NaiveKind::InProcess)?),
        "naive.join_process2" => Box::new(Naive::new(seed, NaiveKind::Process2)?),
        "cold.join_paged" => Box::new(Naive::new(seed, NaiveKind::Paged)?),
        "server.demo_c1" => Box::new(ServerLoad::new(seed, 1)?),
        "server.demo_c2" => Box::new(ServerLoad::new(seed, 2)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ===== tail.* =====

/// One `GibbsLooper::run` per operation on a fresh `SessionCache`, so
/// phase 1 is part of every operation.
///
/// The inputs are **pinned** (data seed and master seed), not drawn from
/// `--seed`: the work of a tail query is chaotic in its seeds — at test
/// scale one query takes 0.15 s or 7.8 s (6 or 227 replenishments, one
/// component update burning all 100 000 candidates) depending on nothing
/// else — so no statistic of seed-drawn queries is steady enough to gate
/// on.  Pinned inputs also make every work count repeat exactly.
struct Tail {
    w: TpchWorkload,
    query: MonteCarloQuery,
    budget: usize,
    master: u64,
    plain: Arc<dyn ExecBackend>,
    tracer: Arc<Tracer>,
    spanned: Arc<SpanBackend>,
}

impl Tail {
    fn new(
        config: TpchConfig,
        budget: usize,
        master: u64,
        full_warm_up: bool,
    ) -> Result<Self, String> {
        let w = TpchWorkload::generate(config).map_err(err)?;
        let query = w.total_loss_query();
        let tracer = Arc::new(Tracer::default());
        let plain: Arc<dyn ExecBackend> = Arc::new(InProcessBackend::new());
        let spanned = Arc::new(SpanBackend::new(Arc::clone(&plain), Arc::clone(&tracer)));
        let tail = Tail {
            w,
            query,
            budget,
            master,
            plain,
            tracer,
            spanned,
        };
        if full_warm_up {
            tail.op(0, 0, false)?;
        } else {
            SessionCache::new()
                .session(&tail.query.plan, &tail.w.catalog, master)
                .map_err(err)?
                .with_backend(Arc::clone(&tail.plain))
                .instantiate_block(&tail.w.catalog, 0, 1000)
                .map_err(err)?;
        }
        Ok(tail)
    }

    fn config(&self) -> TailSamplingConfig {
        TailSamplingConfig::new(tail_p(), TAIL_L, self.budget)
            .with_m(TAIL_M)
            .with_block_size(1000)
            .with_master_seed(self.master)
    }
}

impl Workload for Tail {
    fn op(&self, _client: usize, index: u64, traced: bool) -> Result<OpOut, String> {
        let cache = Arc::new(SessionCache::new());
        let values_before = self.spanned.counts.values.load(Ordering::Relaxed);
        let result = if traced {
            self.tracer.op(index, || {
                // Pre-warm the cache so the looper span holds no phase 1.
                self.tracer.span(trace::PREPARE, || {
                    cache
                        .session(&self.query.plan, &self.w.catalog, self.master)
                        .map(drop)
                })?;
                self.tracer.span(trace::LOOPER, || {
                    GibbsLooper::new(self.query.clone(), self.config())
                        .with_cache(Arc::clone(&cache))
                        .with_backend(self.spanned.clone())
                        .run(&self.w.catalog)
                })
            })
        } else {
            GibbsLooper::new(self.query.clone(), self.config())
                .with_cache(Arc::clone(&cache))
                .with_backend(Arc::clone(&self.plain))
                .run(&self.w.catalog)
        }
        .map_err(err)?;

        let mut out = OpOut {
            checksum: checksum(&result.tail_samples),
            ..OpOut::default()
        };
        let candidates = result.gibbs.candidates();
        out.exact = vec![
            ("replenishments", result.replenishments as u64),
            ("candidates", candidates),
            ("blocks_materialized", result.blocks_materialized as u64),
            ("bytes_materialized", result.bytes_materialized),
            (
                "stream_positions_consumed",
                result.stream_positions_consumed,
            ),
        ];
        let values = self.spanned.counts.values.load(Ordering::Relaxed) - values_before;
        out.layer = vec![
            ("looper.candidates", candidates as f64),
            ("looper.acceptance_rate", result.gibbs.acceptance_rate()),
            ("looper.replenishments", result.replenishments as f64),
            (
                "looper.stream_positions_consumed",
                result.stream_positions_consumed as f64,
            ),
            (
                "looper.stream_utilisation",
                if values > 0 {
                    result.stream_positions_consumed as f64 / values as f64
                } else {
                    0.0
                },
            ),
            ("exec.bytes_materialized", result.bytes_materialized as f64),
            ("exec.buffer_reuses", result.buffer_reuses as f64),
            ("exec.plan_executions", cache.skeleton_misses() as f64),
            ("exec.skeleton_hits", cache.skeleton_hits() as f64),
            ("exec.skeleton_misses", cache.skeleton_misses() as f64),
        ];

        if result.tail_samples.len() != TAIL_L {
            out.failures.push(format!(
                "{} tail samples, not {TAIL_L}",
                result.tail_samples.len()
            ));
        }
        if result
            .tail_samples
            .iter()
            .any(|&x| x < result.quantile_estimate)
        {
            out.failures
                .push("a tail sample lies below the quantile estimate".into());
        }
        match TailCdfComparison::new(&self.w.oracle, tail_p(), &result.tail_samples) {
            Ok(cmp) if cmp.quantile_relative_error() <= TAIL_QUANTILE_REL_ERR_BOUND => {}
            Ok(cmp) => out.failures.push(format!(
                "quantile estimate {} is {:.4} (relative) off the oracle's {}",
                cmp.estimated_quantile,
                cmp.quantile_relative_error(),
                cmp.true_quantile
            )),
            Err(e) => out.failures.push(format!("oracle comparison failed: {e}")),
        }
        Ok(out)
    }

    fn verify(&self, done: &[Done]) -> Checks {
        // Pinned inputs: every operation, traced or not, returns the same
        // samples.
        let mut checks = Checks::default();
        checks.check(
            done.iter().all(|d| d.out.checksum == done[0].out.checksum),
            || "tail samples differ between operations on the same seeds".into(),
        );
        checks
    }

    fn catalog(&self) -> &Catalog {
        &self.w.catalog
    }
    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
    fn spanned(&self) -> Option<&SpanBackend> {
        Some(&self.spanned)
    }
}

// ===== naive.* and cold.* =====

#[derive(Clone, Copy, PartialEq, Eq)]
enum NaiveKind {
    InProcess,
    Process2,
    Paged,
}

/// One `McdbEngine::run_samples` per operation on a fresh engine (cold
/// skeleton), master seed `base + index`.
struct Naive {
    kind: NaiveKind,
    /// The generated workload; its catalog is the in-memory reference.
    w: TpchWorkload,
    /// The catalog the operations read (`w.catalog`, or its paged copy).
    catalog: Catalog,
    query: MonteCarloQuery,
    reps: usize,
    base: u64,
    plain: Arc<dyn ExecBackend>,
    pager: Option<(Pager, std::path::PathBuf)>,
    tracer: Arc<Tracer>,
    spanned: Arc<SpanBackend>,
    /// In-process twin of `spanned`, for the dispatch layer's baseline.
    ref_tracer: Arc<Tracer>,
    ref_spanned: Arc<SpanBackend>,
}

impl Naive {
    fn new(seed: u64, kind: NaiveKind) -> Result<Self, String> {
        let mut config = TpchConfig::laptop_scale();
        config.seed = mix(seed, 1);
        let w = TpchWorkload::generate(config).map_err(err)?;
        let query = w.total_loss_query();

        let (catalog, pager) = if kind == NaiveKind::Paged {
            let dir = sys::scratch_dir(&format!("paged-{}", std::process::id())).map_err(err)?;
            let pager = Pager::new(&dir).map_err(err)?;
            let mut paged = Catalog::new();
            for name in w.catalog.table_names() {
                let table = w.catalog.get(name).map_err(err)?;
                let mut small =
                    Table::with_page_budget(table.schema().clone(), table.iter().collect(), 1024)
                        .map_err(err)?;
                small.spill_with(&pager).map_err(err)?;
                paged.register(name, small).map_err(err)?;
            }
            BufferPool::global().set_budget(8);
            (paged, Some((pager, dir)))
        } else {
            (w.catalog.clone(), None)
        };

        let plain: Arc<dyn ExecBackend> = if kind == NaiveKind::Process2 {
            // The worker is this executable in worker mode (see `main`), so
            // the benchmark needs no second binary built: `ProcessBackend`
            // looks here before it looks next to the executable.  Set-up is
            // single-threaded, so nothing reads the environment meanwhile.
            std::env::set_var("MCDBR_WORKER_BIN", std::env::current_exe().map_err(err)?);
            Arc::new(ProcessBackend::new(2).with_worker_env(crate::WORKER_ENV, "1"))
        } else {
            Arc::new(InProcessBackend::new())
        };
        let tracer = Arc::new(Tracer::default());
        let spanned = Arc::new(SpanBackend::new(Arc::clone(&plain), Arc::clone(&tracer)));
        let ref_tracer = Arc::new(Tracer::default());
        let ref_spanned = Arc::new(SpanBackend::new(
            Arc::new(InProcessBackend::new()),
            Arc::clone(&ref_tracer),
        ));
        let naive = Naive {
            kind,
            w,
            catalog,
            query,
            reps: if kind == NaiveKind::Paged {
                COLD_REPS
            } else {
                NAIVE_REPS
            },
            base: mix(seed, 2) >> 1,
            plain,
            pager,
            tracer,
            spanned,
            ref_tracer,
            ref_spanned,
        };
        // Warm-up: spawns the workers and ships the plan and tables on the
        // process backend; first touches the allocator everywhere.
        naive.run_engine(&naive.catalog, &naive.plain, naive.base)?;
        Ok(naive)
    }

    /// One query on a fresh engine; the engine is dropped before returning,
    /// as part of the query.
    fn run_engine(
        &self,
        catalog: &Catalog,
        backend: &Arc<dyn ExecBackend>,
        master: u64,
    ) -> Result<Vec<f64>, String> {
        let samples = McdbEngine::new()
            .with_backend(Arc::clone(backend))
            .run_samples(&self.query, catalog, self.reps, master)
            .map_err(err)?;
        Ok(samples.single().map_err(err)?.to_vec())
    }

    /// `run_samples` taken apart: the same three public calls the engine
    /// makes, each inside a span, against `backend`.
    fn run_layers(
        &self,
        tracer: &Tracer,
        backend: &Arc<SpanBackend>,
        master: u64,
        layer: &mut Vec<(&'static str, f64)>,
    ) -> Result<Vec<f64>, String> {
        let cache = SessionCache::new();
        let session = tracer
            .span(trace::PREPARE, || {
                cache.session(&self.query.plan, &self.catalog, master)
            })
            .map_err(err)?;
        let mut session = session
            .with_backend(backend.clone())
            .with_pool(Arc::new(BlockBufferPool::new()));
        let set = session
            .instantiate_block(&self.catalog, 0, self.reps)
            .map_err(err)?;
        let samples = backend
            .aggregate(
                &set,
                &self.query.aggregate,
                &self.query.group_by,
                self.query.final_predicate.as_ref(),
                par::default_threads(),
            )
            .map_err(err)?;
        layer.extend([
            (
                "exec.bytes_materialized",
                session.bytes_materialized() as f64,
            ),
            ("exec.buffer_reuses", session.buffer_reuses() as f64),
            ("exec.plan_executions", session.plan_executions() as f64),
            ("exec.skeleton_hits", cache.skeleton_hits() as f64),
            ("exec.skeleton_misses", cache.skeleton_misses() as f64),
        ]);
        // Freeing 20 000 bundles and the skeleton is part of every query.
        tracer.span(trace::TEARDOWN, || drop((set, session, cache)));
        Ok(samples.single().map_err(err)?.to_vec())
    }
}

impl Workload for Naive {
    fn op(&self, _client: usize, index: u64, traced: bool) -> Result<OpOut, String> {
        let master = self.base.wrapping_add(index);
        let pool_before = BufferPool::global().stats();
        let disk_before = self
            .pager
            .as_ref()
            .map(|(p, _)| p.stats())
            .unwrap_or_default();
        let wire_before = self.plain.shard_stats();
        let mut out = OpOut::default();

        let samples = if traced {
            let samples = self.tracer.op(index, || {
                self.run_layers(&self.tracer, &self.spanned, master, &mut out.layer)
            })?;
            if self.kind == NaiveKind::Process2 {
                // The same calls in process, outside the traced operation:
                // the baseline the dispatch overhead is measured against.
                let mut unused = Vec::new();
                let twin = self.ref_tracer.op(index, || {
                    self.run_layers(&self.ref_tracer, &self.ref_spanned, master, &mut unused)
                })?;
                if checksum(&twin) != checksum(&samples) {
                    out.failures
                        .push("process and in-process samples differ".into());
                }
            }
            samples
        } else {
            self.run_engine(&self.catalog, &self.plain, master)?
        };

        let pool = BufferPool::global().stats().since(&pool_before);
        let disk = self
            .pager
            .as_ref()
            .map(|(p, _)| p.stats().since(&disk_before))
            .unwrap_or_default();
        let wire = self.plain.shard_stats().since(wire_before);
        out.checksum = checksum(&samples);
        out.exact = vec![
            ("pages_read", pool.pages_read),
            ("disk_reads", disk.disk_reads),
            ("tasks_dispatched", wire.tasks_dispatched as u64),
            ("wire_bytes_sent", wire.wire_bytes_sent),
            ("wire_bytes_received", wire.wire_bytes_received),
        ];
        out.layer.extend([
            ("storage.pages_read", pool.pages_read as f64),
            ("storage.pool_hits", pool.pool_hits as f64),
            ("storage.pool_evictions", pool.pool_evictions as f64),
            ("storage.disk_reads", disk.disk_reads as f64),
            ("storage.disk_read_ns", disk.disk_read_ns as f64),
            ("dispatch.tasks_dispatched", wire.tasks_dispatched as f64),
            ("dispatch.wire_bytes_sent", wire.wire_bytes_sent as f64),
            (
                "dispatch.wire_bytes_received",
                wire.wire_bytes_received as f64,
            ),
            ("dispatch.task_retries", wire.task_retries as f64),
            ("dispatch.deadline_timeouts", wire.deadline_timeouts as f64),
            ("dispatch.worker_respawns", wire.worker_respawns as f64),
        ]);
        if samples.len() != self.reps || samples.iter().any(|x| !x.is_finite()) {
            out.failures.push(format!(
                "{} samples for {} repetitions",
                samples.len(),
                self.reps
            ));
        }
        if self.kind == NaiveKind::Paged && disk.disk_reads == 0 {
            out.failures
                .push("a cold query read nothing from disk".into());
        }
        if wire.task_retries + wire.deadline_timeouts + wire.worker_respawns > 0 {
            out.failures
                .push("a worker was retried, timed out or respawned".into());
        }
        Ok(out)
    }

    fn verify(&self, done: &[Done]) -> Checks {
        let mut checks = Checks::default();
        let reference: Arc<dyn ExecBackend> = Arc::new(InProcessBackend::new());
        // Bit-identity with an in-process run on the in-memory catalog at
        // the same seed and reps, on a spread of the operations (each
        // reference run costs as much as the operation it checks).
        let step = (done.len() / 6).max(1);
        for d in done.iter().step_by(step) {
            let master = self.base.wrapping_add(d.index);
            match self.run_engine(&self.w.catalog, &reference, master) {
                Ok(samples) => {
                    checks.check(checksum(&samples) == d.out.checksum, || {
                        format!(
                            "operation {} differs from the in-process reference",
                            d.index
                        )
                    });
                    if d.index == done[0].index {
                        // The reference itself: its mean must sit where the
                        // analytic oracle says.
                        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                        let tolerance = 6.0 * self.w.oracle.sd() / (samples.len() as f64).sqrt();
                        checks.check((mean - self.w.oracle.mean).abs() <= tolerance, || {
                            format!("sample mean {mean} vs oracle {}", self.w.oracle.mean)
                        });
                    }
                }
                Err(e) => checks.check(false, || format!("reference run failed: {e}")),
            }
        }
        if self.kind == NaiveKind::Paged {
            for name in self.catalog.table_names() {
                let resident = self
                    .catalog
                    .get(name)
                    .map_or(1, Table::resident_sealed_bytes);
                checks.check(resident == 0, || {
                    format!("table {name} keeps {resident} sealed bytes in memory")
                });
            }
        }
        checks
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }
    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
    fn spanned(&self) -> Option<&SpanBackend> {
        Some(&self.spanned)
    }

    fn finish_trace(&self) -> Vec<(&'static str, f64)> {
        if self.kind != NaiveKind::Process2 {
            return Vec::new();
        }
        let backend_ns = |tracer: &Tracer| {
            let spans = tracer.spans();
            let ops = spans.iter().filter(|s| s.name == trace::OP).count().max(1);
            let total: u64 = trace::layer_times(&spans)
                .iter()
                .filter(|(name, _)| {
                    [
                        trace::INSTANTIATE,
                        trace::AGGREGATE,
                        trace::DISPATCH_PREPARE,
                    ]
                    .contains(name)
                })
                .map(|(_, t)| t.total_ns)
                .sum();
            total as f64 / ops as f64
        };
        let mut out = vec![(
            "dispatch.overhead_ns",
            backend_ns(&self.tracer) - backend_ns(&self.ref_tracer),
        )];
        // Wire codec cost on the bundles of one real block: what the
        // workers encode and the coordinator decodes per query.
        let block = SessionCache::new()
            .session(&self.query.plan, &self.catalog, self.base)
            .and_then(|mut session| session.instantiate_block(&self.catalog, 0, self.reps));
        if let Ok(set) = block {
            let start = std::time::Instant::now();
            let frames: Vec<Vec<u8>> = set
                .bundles
                .iter()
                .enumerate()
                .map(|(i, b)| wire::encode_bundle(i, Some(b)))
                .collect();
            let encode_ns = start.elapsed().as_nanos() as f64;
            let start = std::time::Instant::now();
            let decoded = frames
                .iter()
                .filter(|f| wire::decode_frame(f).is_ok())
                .count();
            let decode_ns = start.elapsed().as_nanos() as f64;
            if decoded == frames.len() {
                out.push(("dispatch.encode_ns", encode_ns));
                out.push(("dispatch.decode_ns", decode_ns));
            }
        }
        out
    }
}

impl Drop for Naive {
    fn drop(&mut self) {
        if let Some((_, dir)) = &self.pager {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

// ===== server.* =====

/// One `ServerClient::query_retrying` per operation against an in-process
/// `Server` over loopback; each client is a closed loop on its own
/// connection.
struct ServerLoad {
    catalog: Catalog,
    query: MonteCarloQuery,
    base: u64,
    handle: Option<ServerHandle>,
    clients: Vec<Mutex<ServerClient>>,
    priming_checksum: u64,
    tracer: Arc<Tracer>,
}

impl ServerLoad {
    fn new(seed: u64, clients: usize) -> Result<Self, String> {
        let catalog = customer_losses_catalog(demo::DEMO_CUSTOMERS, (8.0, 12.0), mix(seed, 3))
            .map_err(err)?;
        let query = demo::demo_query();
        let base = mix(seed, 4) >> 1;
        let handle = Server::start(
            catalog.clone(),
            Arc::new(InProcessBackend::new()),
            ServerConfig::default(),
        )
        .map_err(err)?;
        let mut sessions = Vec::new();
        for _ in 0..clients {
            sessions.push(ServerClient::connect(handle.addr()).map_err(err)?);
        }
        // The priming query builds the shared skeleton; every later query
        // must hit it.
        let priming_checksum = match sessions[0]
            .query_retrying(&query, SERVER_REPS, base)
            .map_err(err)?
        {
            QueryReply::Ok { samples, .. } => checksum(samples.single().map_err(err)?),
            QueryReply::Rejected { code, message } => {
                return Err(format!("priming query rejected ({code:?}): {message}"))
            }
        };
        Ok(ServerLoad {
            catalog,
            query,
            base,
            handle: Some(handle),
            clients: sessions.into_iter().map(Mutex::new).collect(),
            priming_checksum,
            tracer: Arc::new(Tracer::default()),
        })
    }
}

impl Workload for ServerLoad {
    fn clients(&self) -> usize {
        self.clients.len()
    }

    fn op(&self, client: usize, index: u64, traced: bool) -> Result<OpOut, String> {
        let master = self.base + 1 + ((client as u64) << 32) + index;
        let mut session = self.clients[client].lock().expect("client");
        let (sent, received) = (session.wire_bytes_sent(), session.wire_bytes_received());
        let start = std::time::Instant::now();
        let reply = if traced {
            self.tracer.op(index, || {
                self.tracer.span(trace::SERVER_QUERY, || {
                    session.query_retrying(&self.query, SERVER_REPS, master)
                })
            })
        } else {
            session.query_retrying(&self.query, SERVER_REPS, master)
        }
        .map_err(err)?;
        let latency_ns = start.elapsed().as_nanos() as f64;
        let (sent, received) = (
            session.wire_bytes_sent() - sent,
            session.wire_bytes_received() - received,
        );
        let mut out = OpOut {
            exact: vec![("wire_bytes_sent", sent), ("wire_bytes_received", received)],
            ..OpOut::default()
        };
        match reply {
            QueryReply::Ok { samples, stats } => {
                let samples = samples.single().map_err(err)?;
                out.checksum = checksum(samples);
                if samples.len() != SERVER_REPS {
                    out.failures
                        .push(format!("{} samples in a reply", samples.len()));
                }
                if !stats.skeleton_hit {
                    out.failures
                        .push("a query after priming missed the skeleton".into());
                }
                out.layer = vec![
                    ("server.queue_wait_ns", stats.queue_wait_ns as f64),
                    ("server.exec_ns", stats.exec_ns as f64),
                    // Frame write and read plus the socket, both ways.
                    ("server.overhead_ns", latency_ns - stats.exec_ns as f64),
                    ("server.wire_bytes_sent", sent as f64),
                    ("server.wire_bytes_received", received as f64),
                    (
                        "exec.skeleton_hits",
                        f64::from(u8::from(stats.skeleton_hit)),
                    ),
                    ("exec.plan_executions", stats.plan_executions as f64),
                ];
            }
            QueryReply::Rejected { code, message } => {
                out.failures
                    .push(format!("query rejected ({code:?}): {message}"));
            }
        }
        Ok(out)
    }

    fn verify(&self, _done: &[Done]) -> Checks {
        let mut checks = Checks::default();
        let local = McdbEngine::new()
            .with_backend(Arc::new(InProcessBackend::new()))
            .run_samples(&self.query, &self.catalog, SERVER_REPS, self.base);
        checks.check(
            local
                .as_ref()
                .ok()
                .and_then(|s| s.single().ok())
                .is_some_and(|s| checksum(s) == self.priming_checksum),
            || "the first server reply differs from a local engine run".into(),
        );
        // A retried `Busy` still counts as refused.
        let stats = self.handle.as_ref().expect("server").stats();
        checks.check(stats.busy_rejections + stats.query_timeouts == 0, || {
            format!(
                "{} busy rejections, {} timeouts",
                stats.busy_rejections, stats.query_timeouts
            )
        });
        checks
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }
    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn finish_trace(&self) -> Vec<(&'static str, f64)> {
        let stats = self.handle.as_ref().expect("server").stats();
        vec![
            ("server.busy_rejections", stats.busy_rejections as f64),
            ("server.query_timeouts", stats.query_timeouts as f64),
        ]
    }
}

impl Drop for ServerLoad {
    fn drop(&mut self) {
        // Close the connections first, then drain and join every thread.
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_plain_and_unique() {
        for (i, spec) in SPECS.iter().enumerate() {
            assert!(!spec.name.is_empty() && spec.name.len() <= 64);
            assert!(spec
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(spec.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
            assert!(SPECS[..i].iter().all(|other| other.name != spec.name));
        }
        assert!(build("no.such_workload", 1).is_err());
    }

    #[test]
    fn neighbouring_seeds_share_no_derived_seeds() {
        let derived: Vec<u64> = (70..90).flat_map(|s| [mix(s, 1), mix(s, 2)]).collect();
        let mut unique = derived.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), derived.len());
        assert_eq!(mix(77, 1), mix(77, 1));
    }

    #[test]
    fn checksum_tells_bits_apart() {
        assert_ne!(checksum(&[0.0]), checksum(&[-0.0]));
        assert_ne!(checksum(&[1.0, 2.0]), checksum(&[2.0, 1.0]));
        assert_eq!(checksum(&[1.5, 2.5]), checksum(&[1.5, 2.5]));
    }
}
