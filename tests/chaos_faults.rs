//! Chaos suite: deterministic fault plans (`mcdbr_faults`) against the
//! multi-process dispatch path, eight seeds per fault kind.
//!
//! The contract under test is the robustness tentpole's headline: **faults
//! cost time, never answers**.  Every run below — stalled replies, dropped
//! frames, truncated frames, straggler workers — must terminate within the
//! watchdog bound and produce samples bit-identical to a clean in-process
//! run of the same `(query, seed)`.  Recovery is the dispatcher's one
//! failure rule: a unit whose worker fails (EOF, a corrupt reply, the read
//! deadline, ...) runs in the coordinator on the same position-addressable
//! streams, and the worker is replaced at once by a cold one, so a fault
//! costs at most one task deadline per slot per block.  A final scenario
//! drives the *server* deadline path: a query held past its per-query
//! deadline must come back as a typed `Timeout` reply, not a hang and not
//! a corrupt result.
//!
//! The per-kind plans target worker slot 0 (`worker=0`), so the
//! coordinator's send side stays clean and the blast radius is exactly one
//! slot — which is what makes "always recovers, bit-identically" provable
//! rather than probabilistic.  One mixed plan is untargeted: it also drops,
//! truncates and delays the coordinator's own sends, and runs blocks, the
//! MCDB engine and the Gibbs looper through the same faulty backend.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdbr::core::{GibbsLooper, TailSamplingConfig};
use mcdbr::dispatch::ProcessBackend;
use mcdbr::exec::{ExecBackend, ExecSession, InProcessBackend, QueryResultSamples};
use mcdbr::mcdb::{McdbEngine, MonteCarloQuery};
use mcdbr::server::client::{QueryReply, ServerClient};
use mcdbr::server::service::{Server, ServerConfig};
use mcdbr::server::testing::GateBackend;
use mcdbr::storage::Catalog;
use mcdbr::workloads::{customer_losses_catalog, customer_losses_query};

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
const REPS: usize = 12;
/// Short enough that a stalled reply is given up on fast (the stall tests
/// wait out one of these per faulted block), long enough that a healthy
/// worker on a loaded CI box never trips it.
const DEADLINE: Duration = Duration::from_millis(1_000);

/// Aborts the whole test process if the scenario outlives `limit` — the
/// "zero hangs" half of the chaos contract.  Dropping it disarms.
struct Watchdog {
    disarm: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(label: &'static str, limit: Duration) -> Watchdog {
        let disarm = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&disarm);
        std::thread::spawn(move || {
            let deadline = Instant::now() + limit;
            while Instant::now() < deadline {
                if flag.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            if !flag.load(Ordering::SeqCst) {
                eprintln!("chaos watchdog: `{label}` still running after {limit:?} — aborting");
                std::process::abort();
            }
        });
        Watchdog { disarm }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.disarm.store(true, Ordering::SeqCst);
    }
}

fn small_catalog() -> Catalog {
    customer_losses_catalog(10, (2.0, 5.0), 13).unwrap()
}

fn reference(
    query: &MonteCarloQuery,
    catalog: &Catalog,
    reps: usize,
    seed: u64,
) -> QueryResultSamples {
    McdbEngine::new()
        .with_backend(Arc::new(InProcessBackend::new()))
        .run_samples(query, catalog, reps, seed)
        .unwrap()
}

fn assert_samples_bit_identical(got: &QueryResultSamples, want: &QueryResultSamples, ctx: &str) {
    assert_eq!(got.group_columns, want.group_columns, "{ctx}");
    assert_eq!(got.groups.len(), want.groups.len(), "{ctx}");
    for ((ka, va), (kb, vb)) in got.groups.iter().zip(&want.groups) {
        assert_eq!(ka, kb, "{ctx}");
        assert!(
            va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{ctx}: samples differ"
        );
    }
}

/// Run every seed through a 2-worker process backend under `spec`,
/// asserting bit-identity against the clean in-process reference, and
/// return the summed recovery counters for kind-specific audits.
fn chaos_matrix(label: &'static str, spec: &dyn Fn(u64) -> String) -> mcdbr::exec::ShardStats {
    let _watchdog = Watchdog::arm(label, Duration::from_secs(240));
    let catalog = small_catalog();
    let query = customer_losses_query(Some(7));
    let mut totals = mcdbr::exec::ShardStats::default();
    for seed in SEEDS {
        let plan = spec(seed);
        let backend = Arc::new(
            ProcessBackend::new(2)
                .with_fault_spec(&plan)
                .unwrap_or_else(|e| panic!("bad plan `{plan}`: {e}"))
                .with_deadline(DEADLINE),
        );
        let samples = McdbEngine::new()
            .with_backend(backend.clone() as Arc<dyn ExecBackend>)
            .run_samples(&query, &catalog, REPS, seed)
            .unwrap_or_else(|e| panic!("{label}, seed {seed}: query failed: {e}"));
        assert_samples_bit_identical(
            &samples,
            &reference(&query, &catalog, REPS, seed),
            &format!("{label}, seed {seed}"),
        );
        let stats = backend.shard_stats();
        totals.deadline_timeouts += stats.deadline_timeouts;
        totals.task_retries += stats.task_retries;
        totals.worker_respawns += stats.worker_respawns;
    }
    totals
}

#[test]
fn chaos_stalled_replies_recover_bit_identically_on_every_seed() {
    // Worker 0 stalls every task reply far past the deadline: each seed's
    // faulted block waits out one deadline, replaces the worker and runs
    // slot 0's unit here.
    let totals = chaos_matrix("stall", &|seed| {
        format!("seed={seed},worker=0,stall=1:30000")
    });
    assert!(totals.deadline_timeouts > 0, "stalls never hit a deadline");
    assert!(totals.worker_respawns > 0, "stalls never forced a respawn");
}

#[test]
fn chaos_dropped_frames_recover_bit_identically_on_every_seed() {
    // Worker 0 swallows reply frames (probabilistically, so seeds explore
    // different drop positions): a silent peer is indistinguishable from a
    // stall and takes the same rule.
    let totals = chaos_matrix("drop", &|seed| format!("seed={seed},worker=0,drop=0.75"));
    assert!(
        totals.deadline_timeouts + totals.worker_respawns > 0,
        "across 8 seeds at p=0.75, at least one frame must have dropped"
    );
}

#[test]
fn chaos_truncated_frames_recover_bit_identically_on_every_seed() {
    // Worker 0 writes half-frames: the coordinator sees corrupt or
    // truncated streams (fast — no deadline wait), replaces the worker and
    // runs the unit here without poisoning later conversations.
    let totals = chaos_matrix("partial", &|seed| {
        format!("seed={seed},worker=0,partial=0.75")
    });
    assert!(
        totals.worker_respawns > 0,
        "across 8 seeds at p=0.75, at least one truncation must have crashed a read"
    );
}

#[test]
fn chaos_slow_workers_are_latency_only_on_every_seed() {
    // A straggler is not a failure: +10ms per task must never trip
    // deadlines, never respawn, never run a unit here.
    let totals = chaos_matrix("slow", &|seed| format!("seed={seed},worker=0,slow=1:10"));
    assert_eq!(
        totals.deadline_timeouts, 0,
        "slow workers must not time out"
    );
    assert_eq!(totals.worker_respawns, 0, "slow workers must not respawn");
    assert_eq!(
        totals.task_retries, 0,
        "slow workers' units must not run here"
    );
}

#[test]
fn mixed_untargeted_plan_leaves_blocks_engines_and_loopers_bit_identical() {
    // Every fault kind at once, on every worker *and* on the coordinator's
    // own sends.  One backend serves every seed, so the plan's decision
    // streams advance across seeds instead of replaying their first
    // decisions each time.
    const PLAN: &str = "seed=1933,stall=0.02:5000,drop=0.02,partial=0.02,delay=0.05:2,slow=0.05:2";
    let _watchdog = Watchdog::arm("mixed", Duration::from_secs(120));
    let catalog = customer_losses_catalog(12, (1.0, 4.0), 2).unwrap();
    let query = customer_losses_query(Some(9));
    let backend = Arc::new(
        ProcessBackend::new(2)
            .with_fault_spec(PLAN)
            .unwrap()
            .with_deadline(Duration::from_secs(2)),
    );
    let in_process = || Arc::new(InProcessBackend::new()) as Arc<dyn ExecBackend>;
    for seed in [11u64, 12, 13, 14] {
        // Consecutive blocks across a replenishment boundary.
        let mut session = ExecSession::prepare(&query.plan, &catalog, seed)
            .unwrap()
            .with_backend(backend.clone());
        let mut clean = ExecSession::prepare(&query.plan, &catalog, seed)
            .unwrap()
            .with_backend(in_process());
        for (base, n) in [(0u64, 24usize), (24, 24), (48, 24)] {
            let got = session.instantiate_block(&catalog, base, n).unwrap();
            let want = clean.instantiate_block(&catalog, base, n).unwrap();
            assert_eq!(got.schema, want.schema, "seed {seed}, block {base}");
            assert_eq!(got.bundles, want.bundles, "seed {seed}, block {base}");
        }

        // The MCDB engine.
        let samples = McdbEngine::new()
            .with_backend(backend.clone())
            .run_samples(&query, &catalog, REPS, seed)
            .unwrap();
        assert_samples_bit_identical(
            &samples,
            &reference(&query, &catalog, REPS, seed),
            &format!("mixed engine, seed {seed}"),
        );

        // The Gibbs looper, with blocks small enough to replenish.
        let config = TailSamplingConfig::new(0.05, 10, 200)
            .with_m(3)
            .with_block_size(40)
            .with_master_seed(seed);
        let run = |backend: Arc<dyn ExecBackend>| {
            GibbsLooper::new(query.clone(), config.clone())
                .with_backend(backend)
                .run(&catalog)
                .unwrap()
        };
        let want = run(in_process());
        let got = run(backend.clone());
        assert!(want.replenishments > 0, "seed {seed}: {want:?}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.tail_samples),
            bits(&want.tail_samples),
            "seed {seed}"
        );
        assert_eq!(bits(&got.cutoffs), bits(&want.cutoffs), "seed {seed}");
        assert_eq!(got.gibbs, want.gibbs, "seed {seed}");
        assert_eq!(got.replenishments, want.replenishments, "seed {seed}");
        assert_eq!(
            got.values_materialized, want.values_materialized,
            "seed {seed}"
        );
    }
    let stats = backend.shard_stats();
    assert!(
        stats.worker_respawns + stats.deadline_timeouts > 0,
        "the plan never forced a recovery: {stats:?}"
    );
}

#[test]
fn server_query_past_its_deadline_gets_a_typed_timeout_reply() {
    // A query provably held inside the executor past the per-query
    // deadline must be cancelled at the next block boundary and answered
    // with ReplyCode::Timeout — the client keeps a healthy connection and
    // the admission slot is released.
    let _watchdog = Watchdog::arm("server-deadline", Duration::from_secs(120));
    let catalog = small_catalog();
    let query = customer_losses_query(None);
    let gate = Arc::new(GateBackend::new());
    let deadline = Duration::from_millis(300);
    let handle = Server::start(
        catalog.clone(),
        Arc::clone(&gate) as Arc<dyn ExecBackend>,
        ServerConfig {
            workers: 2,
            max_inflight: 2,
            query_deadline: Some(deadline),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let doomed = std::thread::spawn({
        let query = query.clone();
        move || {
            let mut client = ServerClient::connect(addr).unwrap();
            client.query(&query, REPS, 3).unwrap()
        }
    });
    gate.wait_entered(1);
    // Hold the query inside instantiate_block until the deadline is
    // definitely blown, then release it: the *next* boundary (aggregation
    // entry) observes the expired token.
    std::thread::sleep(deadline + Duration::from_millis(200));
    gate.open();

    match doomed.join().unwrap() {
        QueryReply::Rejected { code, message } => {
            assert_eq!(
                code,
                mcdbr::dispatch::wire::ReplyCode::Timeout,
                "expected a typed timeout, got {code:?}: {message}"
            );
            assert!(
                message.contains("deadline"),
                "timeout reply should say why: {message}"
            );
        }
        QueryReply::Ok { .. } => panic!("a query held past its deadline completed"),
    }

    // The connection stays healthy and the slot was released: a fresh
    // query on a new connection completes (the gate is open now, and the
    // work itself is far quicker than the deadline).
    let mut client = ServerClient::connect(addr).unwrap();
    let QueryReply::Ok { samples, .. } = client.query_retrying(&query, REPS, 4).unwrap() else {
        panic!("post-timeout query rejected");
    };
    assert_samples_bit_identical(
        &samples,
        &reference(&query, &catalog, REPS, 4),
        "post-timeout query",
    );

    let stats = handle.shutdown();
    assert_eq!(stats.query_timeouts, 1, "exactly one query timed out");
    assert_eq!(
        stats.queries_served, 1,
        "the timed-out query is not 'served'"
    );
    assert_eq!(stats.inflight, 0, "the timed-out query's slot must release");
}
