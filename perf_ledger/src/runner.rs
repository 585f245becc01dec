//! The timed loop: set-up, the time-boxed closed loop, the checks, and the
//! metrics computed from them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mcdbr_storage::BufferPool;

use crate::json::Json;
use crate::stats;
use crate::sys;
use crate::trace;
use crate::workloads::{self, Done, Workload};

/// `(name, unit, better)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("query_p50_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// `(name, unit, better)` of every per-layer metric.  All are means per
/// operation over the traced window unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("storage.scan_ns", "ns", "lower"),
    ("storage.rows", "count", "lower"),
    ("storage.pages_read", "count", "lower"),
    ("storage.pool_hits", "count", "higher"),
    ("storage.pool_evictions", "count", "lower"),
    ("storage.disk_reads", "count", "lower"),
    ("storage.disk_read_ns", "ns", "lower"),
    ("exec.prepare_ns", "ns", "lower"),
    ("exec.plan_executions", "count", "lower"),
    ("exec.skeleton_hits", "count", "higher"),
    ("exec.skeleton_misses", "count", "lower"),
    ("exec.instantiate_ns", "ns", "lower"),
    ("exec.blocks_materialized", "count", "lower"),
    ("exec.values_materialized", "count", "lower"),
    ("exec.bytes_materialized", "bytes", "lower"),
    ("exec.buffer_reuses", "count", "higher"),
    ("exec.aggregate_ns", "ns", "lower"),
    ("exec.aggregate_reps", "count", "lower"),
    ("exec.aggregate_bundles", "count", "lower"),
    ("exec.teardown_ns", "ns", "lower"),
    ("looper.run_ns", "ns", "lower"),
    ("looper.self_ns", "ns", "lower"),
    ("looper.candidates", "count", "lower"),
    ("looper.acceptance_rate", "ratio", "higher"),
    ("looper.replenishments", "count", "lower"),
    ("looper.stream_positions_consumed", "count", "lower"),
    ("looper.stream_utilisation", "ratio", "higher"),
    ("dispatch.overhead_ns", "ns", "lower"),
    ("dispatch.encode_ns", "ns", "lower"),
    ("dispatch.decode_ns", "ns", "lower"),
    ("dispatch.tasks_dispatched", "count", "lower"),
    ("dispatch.wire_bytes_sent", "bytes", "lower"),
    ("dispatch.wire_bytes_received", "bytes", "lower"),
    ("dispatch.task_retries", "count", "lower"),
    ("dispatch.deadline_timeouts", "count", "lower"),
    ("dispatch.worker_respawns", "count", "lower"),
    ("server.queue_wait_ns", "ns", "lower"),
    ("server.exec_ns", "ns", "lower"),
    ("server.overhead_ns", "ns", "lower"),
    ("server.busy_rejections", "count", "lower"),
    ("server.query_timeouts", "count", "lower"),
    ("server.wire_bytes_sent", "bytes", "lower"),
    ("server.wire_bytes_received", "bytes", "lower"),
    ("client.query_tail_ms", "ms", "lower"),
    ("client.query_tail_pct", "pct", "higher"),
    ("client.cpu_ms_per_query", "ms", "lower"),
    ("trace.wall_ns", "ns", "lower"),
    ("trace.unattributed_ns", "ns", "lower"),
    ("trace.overhead_ns", "ns", "lower"),
];

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)`: every end-to-end metric, or with `trace` every
    /// per-layer metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Everything else worth keeping: quartiles, exact counts, failures.
    pub detail: Json,
}

/// The operations of one timed window.
#[derive(Default)]
struct Window {
    latency_ns: Vec<u64>,
    /// Completion times, ns since the window began.
    done_ns: Vec<u64>,
    done: Vec<Done>,
    /// Operations that returned `Err`.
    errors: Vec<String>,
    cpu_ms: f64,
}

impl Window {
    fn attempted(&self) -> u64 {
        (self.done.len() + self.errors.len()) as u64
    }
    fn latencies_ms(&self) -> Vec<f64> {
        self.latency_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// Run the closed loop for `seconds`: every client issues its next
/// operation as soon as the previous one returned, and none starts one
/// after the deadline (but each runs at least one).
fn window(w: &dyn Workload, seconds: f64, traced: bool) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let cpu_before = sys::cpu_ms();
    let per_client: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients())
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Window::default();
                    let mut index = 0u64;
                    let mut errors_in_a_row = 0;
                    while (index == 0 || Instant::now() < deadline) && errors_in_a_row < 10 {
                        let sent = Instant::now();
                        match w.op(client, index, traced) {
                            Ok(out) => {
                                mine.latency_ns.push(sent.elapsed().as_nanos() as u64);
                                mine.done_ns.push(start.elapsed().as_nanos() as u64);
                                mine.done.push(Done { client, index, out });
                                errors_in_a_row = 0;
                            }
                            Err(e) => {
                                mine.errors.push(e);
                                errors_in_a_row += 1;
                            }
                        }
                        index += 1;
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Window {
        cpu_ms: sys::cpu_ms() - cpu_before,
        ..Window::default()
    };
    for mut mine in per_client {
        all.latency_ns.append(&mut mine.latency_ns);
        all.done_ns.append(&mut mine.done_ns);
        all.done.append(&mut mine.done);
        all.errors.append(&mut mine.errors);
    }
    all
}

/// Failures of a window's operations: errors, failures the operations saw
/// in their own replies, and work counts that did not repeat exactly.
fn op_failures(windows: &[&Window]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut first: Option<&Done> = None;
    let mut differing: Vec<&'static str> = Vec::new();
    for w in windows {
        failures.extend(w.errors.iter().cloned());
        for d in &w.done {
            failures.extend(d.out.failures.iter().cloned());
            let reference = *first.get_or_insert(d);
            for (a, b) in reference.out.exact.iter().zip(&d.out.exact) {
                if a != b && !differing.contains(&a.0) {
                    differing.push(a.0);
                    failures.push(format!(
                        "count `{}` did not repeat: {} then {} (client {}, operation {})",
                        a.0, a.1, b.1, d.client, d.index
                    ));
                }
            }
        }
    }
    failures
}

/// Build the workload `trials` times, dropping each before the next; the
/// last one is kept.  Returns it with every set-up time in seconds.
fn set_up(name: &str, seed: u64, trials: usize) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..trials {
        drop(built.take());
        let start = Instant::now();
        built = Some(workloads::build(name, seed)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((built.expect("at least one set-up"), times))
}

fn latency_detail(latencies_ms: &[f64]) -> Json {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (q1, q3) = if sorted.len() >= 2 {
        stats::quartiles(&sorted)
    } else {
        (sorted[0], sorted[0])
    };
    let tail_pct = stats::tail_percentile(sorted.len());
    Json::obj([
        ("samples", Json::Num(sorted.len() as f64)),
        ("q1", Json::Num(q1)),
        ("p50", Json::Num(stats::median(&sorted))),
        ("q3", Json::Num(q3)),
        ("spread", Json::Num(stats::spread(&sorted))),
        ("tail_pct", Json::Num(tail_pct)),
        ("tail", Json::Num(stats::percentile(&sorted, tail_pct))),
    ])
}

fn first_failures(failures: &[String]) -> Json {
    Json::Arr(failures.iter().take(10).map(Json::str).collect())
}

fn exact_detail(done: &[Done]) -> Json {
    Json::obj(
        done.first()
            .map(|d| d.out.exact.clone())
            .unwrap_or_default()
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v as f64))),
    )
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &RunArgs) -> Result<RunResult, String> {
    let (workload, setup_times) = set_up(&args.workload, args.seed, 3)?;
    let w = workload.as_ref();
    let timed = window(w, args.seconds, false);
    // Peak memory of set-up and the timed loop; the reference runs of the
    // checks below are not the workload's.
    let peak_rss_mib = sys::peak_rss_mib();

    let mut failures = op_failures(&[&timed]);
    let checks = w.verify(&timed.done);
    failures.extend(checks.failures);
    let attempted = timed.attempted() + checks.run;
    if timed.done.is_empty() {
        return Err(format!("no operation completed: {}", failures.join("; ")));
    }

    let latencies = timed.latencies_ms();
    let ops = timed.done.len();
    let values = [
        stats::median(&latencies),
        stats::round_rate(&timed.done_ns, (ops / 12).max(1)),
        peak_rss_mib,
        stats::median(&setup_times),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| (name, unit, value))
        .collect();
    let detail = Json::obj([
        ("clients", Json::Num(w.clients() as f64)),
        ("latency_ms", latency_detail(&latencies)),
        ("exact", exact_detail(&timed.done)),
        (
            "setup_s_trials",
            Json::Arr(setup_times.iter().map(|&t| Json::Num(t)).collect()),
        ),
        ("checks_run", Json::Num(checks.run as f64)),
        ("failures", first_failures(&failures)),
    ]);
    Ok(RunResult {
        attempted,
        failed: (failures.len() as u64).min(attempted),
        metrics,
        detail,
    })
}

/// One full scan of every table through the pool the queries read through:
/// `(median ns over three scans, rows)`.
fn storage_probe(w: &dyn Workload) -> (f64, f64) {
    let catalog = w.catalog();
    let mut times = Vec::new();
    let mut rows = 0usize;
    for _ in 0..3 {
        let start = Instant::now();
        rows = catalog
            .table_names()
            .iter()
            .filter_map(|name| catalog.get(name).ok())
            .map(|table| table.iter_with(BufferPool::global()).count())
            .sum();
        times.push(start.elapsed().as_nanos() as f64);
    }
    (stats::median(&times), rows as f64)
}

fn run_traced(args: &RunArgs) -> Result<RunResult, String> {
    let (workload, _) = set_up(&args.workload, args.seed, 1)?;
    let w = workload.as_ref();
    // Half the time untraced, half traced, on the same operations: the
    // difference of the medians is what tracing costs.
    let plain = window(w, args.seconds / 2.0, false);
    let counts_before = w.spanned().map(|s| snapshot(&s.counts));
    let traced = window(w, args.seconds / 2.0, true);
    let counts_after = w.spanned().map(|s| snapshot(&s.counts));

    let mut failures = op_failures(&[&plain, &traced]);
    // The traced operation takes the engine's calls apart; it must still
    // return what the untraced operation returns.
    let untraced: BTreeMap<(usize, u64), u64> = plain
        .done
        .iter()
        .map(|d| ((d.client, d.index), d.out.checksum))
        .collect();
    for d in &traced.done {
        if untraced
            .get(&(d.client, d.index))
            .is_some_and(|&sum| sum != d.out.checksum)
        {
            failures.push(format!(
                "traced operation {} of client {} returned different samples",
                d.index, d.client
            ));
        }
    }
    if traced.done.is_empty() || plain.done.is_empty() {
        return Err(format!("no operation completed: {}", failures.join("; ")));
    }

    let ops = traced.done.len() as f64;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Numbers the operations took from the program's own results.
    for d in &traced.done {
        for &(name, v) in &d.out.layer {
            *values.entry(name).or_default() += v;
        }
    }
    values.values_mut().for_each(|sum| *sum /= ops);
    // Span totals.
    let spans = w.tracer().spans();
    let times = trace::layer_times(&spans);
    let total = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64 / ops);
    let own = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / ops);
    values.insert("exec.prepare_ns", total(trace::PREPARE));
    values.insert("exec.instantiate_ns", total(trace::INSTANTIATE));
    values.insert("exec.aggregate_ns", total(trace::AGGREGATE));
    values.insert("exec.teardown_ns", total(trace::TEARDOWN));
    values.insert("looper.run_ns", total(trace::LOOPER));
    values.insert("looper.self_ns", own(trace::LOOPER));
    values.insert("trace.wall_ns", total(trace::OP));
    values.insert("trace.unattributed_ns", own(trace::OP));
    if let (Some(before), Some(after)) = (counts_before, counts_after) {
        for (name, b, a) in [
            ("exec.blocks_materialized", before[0], after[0]),
            ("exec.values_materialized", before[1], after[1]),
            ("exec.aggregate_reps", before[2], after[2]),
            ("exec.aggregate_bundles", before[3], after[3]),
        ] {
            values.insert(name, (a - b) as f64 / ops);
        }
    }
    let (scan_ns, rows) = storage_probe(w);
    values.insert("storage.scan_ns", scan_ns);
    values.insert("storage.rows", rows);
    values.extend(w.finish_trace());

    let plain_ms = plain.latencies_ms();
    // The traced latency is the operation's root span: the harness's own
    // clock would also count what a workload does between operations (the
    // in-process twin run of the dispatch workload).
    let mut traced_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == trace::OP)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let attempted = plain.attempted() + traced.attempted();
    let mut all = plain.done;
    all.extend(traced.done);
    let checks = w.verify(&all);
    failures.extend(checks.failures);
    let attempted = attempted + checks.run;
    traced_ms.sort_by(f64::total_cmp);
    let tail_pct = stats::tail_percentile(traced_ms.len());
    values.insert("client.query_tail_pct", tail_pct);
    values.insert(
        "client.query_tail_ms",
        stats::percentile(&traced_ms, tail_pct),
    );
    values.insert("client.cpu_ms_per_query", traced.cpu_ms / ops);
    values.insert(
        "trace.overhead_ns",
        (stats::median(&traced_ms) - stats::median(&plain_ms)) * 1e6,
    );

    let trace_file = sys::scratch_dir("trace")
        .map(|dir| dir.join(format!("{}.jsonl", args.workload)))
        .and_then(|path| w.tracer().write_jsonl(&path).map(|()| path));
    let wall = values["trace.wall_ns"];
    let detail = Json::obj([
        ("clients", Json::Num(w.clients() as f64)),
        ("untraced_latency_ms", latency_detail(&plain_ms)),
        ("traced_latency_ms", latency_detail(&traced_ms)),
        ("spans", Json::Num(spans.len() as f64)),
        (
            "attributed_share",
            Json::Num(if wall > 0.0 {
                1.0 - values["trace.unattributed_ns"] / wall
            } else {
                0.0
            }),
        ),
        (
            "span_file",
            trace_file.map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
        ("exact", exact_detail(&all)),
        ("checks_run", Json::Num(checks.run as f64)),
        ("failures", first_failures(&failures)),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    Ok(RunResult {
        attempted,
        failed: (failures.len() as u64).min(attempted),
        metrics,
        detail,
    })
}

fn snapshot(counts: &trace::BackendCounts) -> [u64; 4] {
    use std::sync::atomic::Ordering::Relaxed;
    [
        counts.blocks.load(Relaxed),
        counts.values.load(Relaxed),
        counts.aggregate_reps.load(Relaxed),
        counts.aggregate_bundles.load(Relaxed),
    ]
}
