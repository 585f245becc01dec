//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer, and [`SpanBackend`], the `ExecBackend` decorator that
//! records a span and the call's counts around the real backend it wraps.
//!
//! Nothing here reaches into the engine; in-program spans are a later
//! issue.  Spans are kept in memory and written out when the run ends.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcdbr_exec::{
    AggregateSpec, BlockBufferPool, BundleSet, DeterministicPrefix, ExecBackend, Expr, PlanNode,
    QueryResultSamples, ShardStats,
};
use mcdbr_storage::{Catalog, Result};

use crate::json::Json;

/// Span names, one per layer boundary the benchmark can see from outside.
pub const OP: &str = "op";
pub const PREPARE: &str = "exec.prepare";
pub const INSTANTIATE: &str = "exec.instantiate";
pub const AGGREGATE: &str = "exec.aggregate";
pub const TEARDOWN: &str = "exec.teardown";
pub const DISPATCH_PREPARE: &str = "dispatch.prepare";
pub const LOOPER: &str = "core.looper";
pub const SERVER_QUERY: &str = "server.query";

/// One recorded interval.  `parent` is the span that was open on the same
/// thread when this one began; `op` is the operation (query) it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span of this thread and the operation it serves.
    static CURRENT: Cell<(Option<u32>, u64)> = const { Cell::new((None, 0)) };
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of whatever span is open
    /// on this thread.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (parent, op) = CURRENT.get();
        self.record(name, parent, op, f)
    }

    /// Run `f` as the root span of operation `op`.
    pub fn op<T>(&self, op: u64, f: impl FnOnce() -> T) -> T {
        self.record(OP, None, op, f)
    }

    fn record<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let outer = CURRENT.get();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        CURRENT.set((Some(id), op));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.set(outer);
        self.spans.lock().expect("tracer lock").push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = Json::obj([
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(s.op as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.emit())?;
        }
        out.flush()
    }
}

/// Per span name: how many spans, their total duration, and their total
/// **self time** — duration minus the part of the interval that child spans
/// cover (overlapping children are counted once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let layer = out.entry(s.name).or_default();
        layer.spans += 1;
        layer.total_ns += s.duration_ns();
        layer.self_ns += s.duration_ns() - covered;
    }
    out
}

/// Work counts [`SpanBackend`] takes at the backend boundary.
#[derive(Debug, Default)]
pub struct BackendCounts {
    pub blocks: AtomicU64,
    pub values: AtomicU64,
    pub aggregate_reps: AtomicU64,
    pub aggregate_bundles: AtomicU64,
}

/// An `ExecBackend` that forwards every call to `inner` unchanged, inside a
/// span, and counts the work the call was asked for.  It reports `inner`'s
/// name, so code that switches on the backend name behaves as without it.
#[derive(Debug)]
pub struct SpanBackend {
    inner: Arc<dyn ExecBackend>,
    tracer: Arc<Tracer>,
    pub counts: BackendCounts,
}

impl SpanBackend {
    pub fn new(inner: Arc<dyn ExecBackend>, tracer: Arc<Tracer>) -> Self {
        SpanBackend {
            inner,
            tracer,
            counts: BackendCounts::default(),
        }
    }
}

impl ExecBackend for SpanBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn instantiate_block(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<BundleSet> {
        self.counts.blocks.fetch_add(1, Ordering::Relaxed);
        self.counts.values.fetch_add(
            (prefix.num_active_streams() * num_values) as u64,
            Ordering::Relaxed,
        );
        self.tracer.span(INSTANTIATE, || {
            self.inner
                .instantiate_block(prefix, pool, threads, base_pos, num_values)
        })
    }

    fn aggregate(
        &self,
        set: &BundleSet,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
        threads: usize,
    ) -> Result<QueryResultSamples> {
        self.counts
            .aggregate_reps
            .fetch_add(set.num_reps as u64, Ordering::Relaxed);
        self.counts
            .aggregate_bundles
            .fetch_add(set.len() as u64, Ordering::Relaxed);
        self.tracer.span(AGGREGATE, || {
            self.inner
                .aggregate(set, agg, group_by, final_predicate, threads)
        })
    }

    fn shard_stats(&self) -> ShardStats {
        self.inner.shard_stats()
    }

    fn prepare_dispatch(
        &self,
        plan: &PlanNode,
        catalog: &Catalog,
        prefix: &DeterministicPrefix,
    ) -> Result<()> {
        self.tracer.span(DISPATCH_PREPARE, || {
            self.inner.prepare_dispatch(plan, catalog, prefix)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_exec::{InProcessBackend, SessionCache};
    use mcdbr_workloads::{TpchConfig, TpchWorkload};

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, OP, 0, 100),
            // Two siblings under the root, the first with a nested child.
            span(1, Some(0), LOOPER, 10, 60),
            span(2, Some(1), INSTANTIATE, 20, 30),
            span(3, Some(1), INSTANTIATE, 40, 55),
            span(4, Some(0), AGGREGATE, 60, 90),
        ];
        let t = layer_times(&spans);
        assert_eq!(
            t[OP],
            LayerTime {
                spans: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t[LOOPER],
            LayerTime {
                spans: 1,
                total_ns: 50,
                self_ns: 25
            }
        );
        assert_eq!(
            t[INSTANTIATE],
            LayerTime {
                spans: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        assert_eq!(
            t[AGGREGATE],
            LayerTime {
                spans: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        // Self times sum to the root's wall clock: nothing is lost or
        // counted twice.
        assert_eq!(t.values().map(|l| l.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = vec![
            span(0, None, OP, 100, 200),
            span(1, Some(0), INSTANTIATE, 110, 150),
            span(2, Some(0), INSTANTIATE, 130, 170), // overlaps span 1
            span(3, Some(0), AGGREGATE, 190, 230),   // runs past the parent
        ];
        // Covered: 110..170 and 190..200.
        assert_eq!(layer_times(&spans)[OP].self_ns, 100 - 60 - 10);
    }

    #[test]
    fn tracer_links_parents_on_one_thread() {
        let tracer = Tracer::default();
        tracer.op(7, || {
            tracer.span(PREPARE, || ());
            tracer.span(LOOPER, || tracer.span(INSTANTIATE, || ()));
        });
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let root = by_name(OP);
        assert_eq!(root.parent, None);
        assert_eq!(by_name(PREPARE).parent, Some(root.id));
        assert_eq!(by_name(INSTANTIATE).parent, Some(by_name(LOOPER).id));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        // A span opened after the operation ended has no parent again.
        tracer.span(AGGREGATE, || ());
        assert_eq!(tracer.spans().last().unwrap().parent, None);
    }

    #[test]
    fn span_backend_returns_what_the_wrapped_backend_returns() {
        let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
        let query = w.total_loss_query();
        let run = |backend: Arc<dyn ExecBackend>| {
            let mut session = SessionCache::new()
                .session(&query.plan, &w.catalog, 5)
                .unwrap()
                .with_backend(Arc::clone(&backend));
            let set = session.instantiate_block(&w.catalog, 0, 40).unwrap();
            let samples = backend
                .aggregate(&set, &query.aggregate, &query.group_by, None, 2)
                .unwrap();
            (format!("{:?}", set.bundles), samples)
        };
        let tracer = Arc::new(Tracer::default());
        let wrapped = Arc::new(SpanBackend::new(
            Arc::new(InProcessBackend::new()),
            Arc::clone(&tracer),
        ));
        let (plain_set, plain_samples) = run(Arc::new(InProcessBackend::new()));
        let (span_set, span_samples) = run(wrapped.clone());
        // Debug output prints floats exactly enough to tell any bit apart
        // only for finite values that differ; compare the samples by bits.
        assert_eq!(plain_set, span_set);
        let bits = |s: &QueryResultSamples| -> Vec<u64> {
            s.single().unwrap().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&plain_samples), bits(&span_samples));
        assert_eq!(wrapped.name(), "in-process");
        assert_eq!(wrapped.counts.blocks.load(Ordering::Relaxed), 1);
        assert_eq!(wrapped.counts.aggregate_reps.load(Ordering::Relaxed), 40);
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, [DISPATCH_PREPARE, INSTANTIATE, AGGREGATE]);
    }
}
