//! The concurrency-correctness suite for `mcdbr-server`.
//!
//! The server's contract is the repo's determinism story under load: any
//! number of concurrent clients, any interleaving, any execution backend —
//! every client's samples are *bit-identical* to a single-threaded
//! `McdbEngine` run of the same `(query, reps, master_seed)`.  On top of
//! that, the shared-state counters must be exact, not approximate: one
//! skeleton miss per distinct plan server-wide (single-flight coalescing,
//! even when clients race to prime the cache), `plan_executions == 1`, and
//! admission bookkeeping that returns to zero.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use mcdbr::core::{GibbsLooper, TailSamplingConfig};
use mcdbr::dispatch::{wire, ProcessBackend};
use mcdbr::exec::{
    BlockBufferPool, CancelToken, CellCols, ExecBackend, ExecSession, InProcessBackend,
    QueryResultSamples, SessionCache,
};
use mcdbr::mcdb::{McdbEngine, MonteCarloQuery};
use mcdbr::server::client::{QueryReply, ServerClient};
use mcdbr::server::service::{Server, ServerConfig};
use mcdbr::server::testing::GateBackend;
use mcdbr::server::{FairBackend, FairScheduler};
use mcdbr::storage::Catalog;
use mcdbr::workloads::{customer_losses_catalog, customer_losses_query};

fn small_catalog() -> Catalog {
    customer_losses_catalog(16, (2.0, 6.0), 11).unwrap()
}

fn backends() -> Vec<(&'static str, Arc<dyn ExecBackend>)> {
    vec![
        ("in-process", Arc::new(InProcessBackend::new())),
        ("process", Arc::new(ProcessBackend::new(2))),
    ]
}

/// The single-threaded referee: a fresh engine, one query at a time.
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

/// One query through shared infrastructure, as the server runs it: a
/// session from the shared cache over `backend` and the shared pool, and
/// one sampled block over repetitions `0..reps`.
fn run_shared(
    query: &MonteCarloQuery,
    catalog: &Catalog,
    reps: usize,
    seed: u64,
    cache: &SessionCache,
    pool: &Arc<BlockBufferPool>,
    backend: Arc<dyn ExecBackend>,
) -> (QueryResultSamples, ExecSession) {
    let mut session = cache
        .session(&query.plan, catalog, seed)
        .unwrap()
        .with_backend(backend)
        .with_pool(Arc::clone(pool));
    let pred = query.final_predicate.as_ref();
    let samples = session
        .sample_block(catalog, 0, reps, &query.aggregate, &query.group_by, pred)
        .unwrap();
    (samples, session)
}

fn assert_samples_bit_identical(got: &QueryResultSamples, want: &QueryResultSamples, ctx: &str) {
    assert_eq!(
        got.group_columns, want.group_columns,
        "{ctx}: group columns"
    );
    assert_eq!(got.groups.len(), want.groups.len(), "{ctx}: group count");
    for ((ka, va), (kb, vb)) in got.groups.iter().zip(&want.groups) {
        assert_eq!(ka, kb, "{ctx}: group keys");
        assert_eq!(va.len(), vb.len(), "{ctx}: samples per group");
        for (i, (x, y)) in va.iter().zip(vb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: sample {i} differs ({x} vs {y})"
            );
        }
    }
}

#[test]
fn concurrent_clients_are_bit_identical_to_a_single_threaded_engine_on_every_backend() {
    // 4 clients × 3 queries each, mixed plans (full-sum and filtered),
    // per-query seeds — all samples must equal the serial referee's.
    let catalog = small_catalog();
    let plans = [customer_losses_query(None), customer_losses_query(Some(8))];
    let reps = 24usize;
    for (name, backend) in backends() {
        let handle = Server::start(
            catalog.clone(),
            backend,
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr();
        let threads: Vec<_> = (0..4u64)
            .map(|client_idx| {
                let plans = plans.clone();
                std::thread::spawn(move || {
                    let mut client = ServerClient::connect(addr).unwrap();
                    let mut out = Vec::new();
                    for q in 0..3u64 {
                        let query = &plans[(client_idx + q) as usize % plans.len()];
                        let seed = client_idx * 100 + q;
                        match client.query_retrying(query, reps, seed).unwrap() {
                            QueryReply::Ok { samples, .. } => {
                                out.push((query.clone(), seed, samples))
                            }
                            QueryReply::Rejected { code, message } => {
                                panic!("client {client_idx} rejected: {code:?} {message}")
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for (client_idx, thread) in threads.into_iter().enumerate() {
            for (query, seed, samples) in thread.join().unwrap() {
                let want = reference(&query, &catalog, reps, seed);
                assert_samples_bit_identical(
                    &samples,
                    &want,
                    &format!("backend {name}, client {client_idx}, seed {seed}"),
                );
            }
        }
        let stats = handle.shutdown();
        assert_eq!(stats.queries_served, 12, "backend {name}");
        assert_eq!(stats.inflight, 0, "backend {name}: slots must drain");
        // Two distinct plans: exactly two skeleton builds server-wide, the
        // other ten queries ride the shared cache.
        assert_eq!(stats.skeleton_misses, 2, "backend {name}");
        assert_eq!(stats.skeleton_hits, 10, "backend {name}");
        assert_eq!(stats.plan_executions, 2, "backend {name}");
    }
}

#[test]
fn a_process_inner_backend_runs_each_block_as_one_scheduler_unit() {
    // The process dispatcher fetches its workers' cells and folds them into
    // the aggregate in one call, so a query's block is one scheduler unit —
    // not a bundle set's instantiation plus its aggregation.
    let catalog = small_catalog();
    let query = customer_losses_query(Some(8));
    let sched = FairScheduler::start(3);
    let (cache, pool) = (SessionCache::new(), Arc::new(BlockBufferPool::new()));
    for seed in [3u64, 4] {
        let fair = Arc::new(FairBackend::new(
            Arc::new(ProcessBackend::new(2)),
            Arc::clone(&sched),
            Arc::clone(&pool),
            seed,
            CancelToken::unbounded(),
        ));
        let (samples, session) =
            run_shared(&query, &catalog, 24, seed, &cache, &pool, fair.clone());
        assert_eq!(session.blocks_materialized(), 1, "seed {seed}");
        assert_eq!(fair.units_spawned(), 1, "seed {seed}: one unit per block");
        let want = reference(&query, &catalog, 24, seed);
        assert_samples_bit_identical(&samples, &want, &format!("seed {seed}"));
    }
    sched.shutdown();
}

#[test]
fn an_in_process_inner_backend_splits_each_block_across_the_scheduler() {
    // Behind the scheduler, an in-process block's cells are one generation
    // unit per pool thread (at most one per active stream), each run on one
    // thread; the caller folds them once.  The cells, and the samples folded
    // from them, equal a plain in-process run bit for bit.
    let catalog = small_catalog();
    let query = customer_losses_query(Some(8));
    let (cache, pool) = (SessionCache::new(), Arc::new(BlockBufferPool::new()));
    let session = cache.session(&query.plan, &catalog, 5).unwrap();
    let prefix = session.prefix().unwrap();
    let active = prefix.num_active_streams();
    assert!(active > 3, "{active} streams");
    let bytes = |cells: &[CellCols]| -> Vec<Vec<u8>> {
        (cells.iter().enumerate())
            .map(|(idx, c)| wire::encode_cells(idx, c))
            .collect()
    };
    let plain = InProcessBackend::new();
    let want_cells = bytes(&plain.instantiate_cells(prefix, &pool, 1, 3, 24).unwrap());
    let want = reference(&query, &catalog, 24, 5);
    for workers in [1usize, 2, 3] {
        let sched = FairScheduler::start(workers);
        let fair = |qid| {
            Arc::new(FairBackend::new(
                Arc::new(InProcessBackend::new()),
                Arc::clone(&sched),
                Arc::clone(&pool),
                qid,
                CancelToken::unbounded(),
            ))
        };
        let direct = fair(1);
        let cells = direct.instantiate_cells(prefix, &pool, 4, 3, 24).unwrap();
        assert_eq!(
            direct.units_spawned(),
            workers.min(active),
            "{workers} workers"
        );
        assert_eq!(bytes(&cells), want_cells, "{workers} workers: cells");

        let shared = fair(2);
        let (samples, session) = run_shared(&query, &catalog, 24, 5, &cache, &pool, shared.clone());
        assert_eq!(session.blocks_materialized(), 1, "{workers} workers");
        assert_eq!(
            shared.units_spawned(),
            workers.min(active),
            "{workers} workers"
        );
        assert_samples_bit_identical(&samples, &want, &format!("{workers} workers"));
        sched.shutdown();
    }
}

#[test]
fn every_phase_two_call_reaches_an_open_gate() {
    // `GateBackend` gates cell generation, which the Gibbs looper's draw
    // and a session's sampled block both go through.
    let catalog = small_catalog();
    let query = customer_losses_query(None);
    let gate = Arc::new(GateBackend::new());
    gate.open();
    let config = TailSamplingConfig::new(0.1, 4, 40).with_block_size(50);
    let tail = |backend: Arc<dyn ExecBackend>| {
        let looper = GibbsLooper::new(query.clone(), config.clone()).with_backend(backend);
        looper.run(&catalog).unwrap()
    };
    let (got, want) = (tail(gate.clone()), tail(Arc::new(InProcessBackend::new())));
    assert!(gate.entered() >= 1, "the looper's draw passes the gate");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.tail_samples), bits(&want.tail_samples));

    let entered = gate.entered();
    let samples = McdbEngine::new()
        .with_backend(gate.clone())
        .run_samples(&query, &catalog, 24, 5)
        .unwrap();
    assert_eq!(gate.entered(), entered + 1, "one sampled block, one pass");
    let want = reference(&query, &catalog, 24, 5);
    assert_samples_bit_identical(&samples, &want, "gated engine");
}

#[test]
fn racing_cache_primes_coalesce_to_one_skeleton_build() {
    // The hardest interleaving: N clients release at a barrier and submit
    // the *same* plan simultaneously against a cold cache.  Single-flight
    // coalescing must yield exactly one miss + one plan execution
    // server-wide; the N-1 racers wait and land as hits.  Every result
    // still matches the serial referee.
    let catalog = small_catalog();
    let query = customer_losses_query(Some(8));
    let reps = 16usize;
    for (name, backend) in backends() {
        let handle = Server::start(catalog.clone(), backend, ServerConfig::default()).unwrap();
        let addr = handle.addr();
        let clients = 6u64;
        let barrier = Arc::new(Barrier::new(clients as usize));
        let hits = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..clients)
            .map(|seed| {
                let query = query.clone();
                let barrier = Arc::clone(&barrier);
                let hits = Arc::clone(&hits);
                std::thread::spawn(move || {
                    // Connect + handshake first so the barrier releases the
                    // Query frames themselves as close together as possible.
                    let mut client = ServerClient::connect(addr).unwrap();
                    barrier.wait();
                    match client.query_retrying(&query, reps, seed).unwrap() {
                        QueryReply::Ok { samples, stats } => {
                            if stats.skeleton_hit {
                                hits.fetch_add(1, Ordering::SeqCst);
                            }
                            assert_eq!(
                                stats.plan_executions + u64::from(stats.skeleton_hit),
                                1,
                                "a hit skips phase 1; a miss runs it exactly once"
                            );
                            (seed, samples)
                        }
                        QueryReply::Rejected { code, message } => {
                            panic!("seed {seed} rejected: {code:?} {message}")
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            let (seed, samples) = thread.join().unwrap();
            let want = reference(&query, &catalog, reps, seed);
            assert_samples_bit_identical(&samples, &want, &format!("backend {name}, seed {seed}"));
        }
        assert_eq!(
            hits.load(Ordering::SeqCst) as u64,
            clients - 1,
            "backend {name}: exactly one racer may build the skeleton"
        );
        let stats = handle.shutdown();
        assert_eq!(stats.skeleton_misses, 1, "backend {name}");
        assert_eq!(stats.skeleton_hits, clients - 1, "backend {name}");
        assert_eq!(
            stats.plan_executions, 1,
            "backend {name}: racing primes must not duplicate phase 1"
        );
    }
}

#[test]
fn second_client_rides_the_first_clients_skeleton() {
    // The ISSUE's shared-cache acceptance criterion, in its simplest form:
    // client B's identical plan is a skeleton hit even though client A (a
    // different connection) primed the cache.
    let catalog = small_catalog();
    let query = customer_losses_query(None);
    let handle = Server::start(
        catalog.clone(),
        Arc::new(InProcessBackend::new()),
        ServerConfig::default(),
    )
    .unwrap();

    let mut a = ServerClient::connect(handle.addr()).unwrap();
    let QueryReply::Ok {
        stats: sa,
        samples: ra,
    } = a.query(&query, 12, 1).unwrap()
    else {
        panic!("client A rejected");
    };
    assert!(!sa.skeleton_hit, "cold cache: A must miss");
    assert_eq!(sa.plan_executions, 1);

    let mut b = ServerClient::connect(handle.addr()).unwrap();
    let QueryReply::Ok {
        stats: sb,
        samples: rb,
    } = b.query(&query, 12, 2).unwrap()
    else {
        panic!("client B rejected");
    };
    assert!(sb.skeleton_hit, "B must ride A's skeleton");
    assert_eq!(sb.plan_executions, 0, "a hit skips phase 1 entirely");

    // Different seeds, shared skeleton: still the serial engine's bits.
    assert_samples_bit_identical(&ra, &reference(&query, &catalog, 12, 1), "client A");
    assert_samples_bit_identical(&rb, &reference(&query, &catalog, 12, 2), "client B");

    let stats = b.server_stats().unwrap();
    assert_eq!(stats.plan_executions, 1, "one plan execution server-wide");
    assert_eq!((stats.skeleton_misses, stats.skeleton_hits), (1, 1));
    handle.shutdown();
}

#[test]
fn admission_cap_rejects_with_typed_busy_while_a_query_is_provably_in_flight() {
    // GateBackend holds client A's query inside the executor; with
    // max_inflight = 1 the server must answer client B `Busy` — a typed,
    // deterministic rejection, not a queue or a hang — and B's retry after
    // the gate opens must succeed with bit-exact samples.
    let catalog = small_catalog();
    let query = customer_losses_query(None);
    let gate = Arc::new(GateBackend::new());
    let handle = Server::start(
        catalog.clone(),
        Arc::clone(&gate) as Arc<dyn ExecBackend>,
        ServerConfig {
            workers: 2,
            max_inflight: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let a = std::thread::spawn({
        let query = query.clone();
        move || {
            let mut client = ServerClient::connect(addr).unwrap();
            client.query(&query, 12, 7).unwrap()
        }
    });
    // Only proceed once A is *inside* instantiate_block holding the slot.
    gate.wait_entered(1);

    let mut b = ServerClient::connect(addr).unwrap();
    match b.query(&query, 12, 8).unwrap() {
        QueryReply::Rejected { code, .. } => {
            assert_eq!(code, mcdbr::dispatch::wire::ReplyCode::Busy)
        }
        QueryReply::Ok { .. } => panic!("B must be turned away while A holds the only slot"),
    }

    gate.open();
    let QueryReply::Ok { samples: ra, .. } = a.join().unwrap() else {
        panic!("A rejected");
    };
    let QueryReply::Ok { samples: rb, .. } = b.query_retrying(&query, 12, 8).unwrap() else {
        panic!("B rejected after gate opened");
    };
    assert_samples_bit_identical(&ra, &reference(&query, &catalog, 12, 7), "client A");
    assert_samples_bit_identical(&rb, &reference(&query, &catalog, 12, 8), "client B");

    let stats = handle.shutdown();
    assert_eq!(stats.busy_rejections, 1, "exactly the one gated rejection");
    assert_eq!(stats.inflight, 0);
    assert_eq!(stats.queries_served, 2);
}

#[test]
fn shared_counters_stay_exact_under_load() {
    // The counter-audit satellite: SessionCache and BlockBufferPool totals
    // observed through the handle must be *exact* after M clients × Q
    // queries — lost updates under concurrency would show up as drift.
    let catalog = small_catalog();
    let query = customer_losses_query(Some(8));
    let (clients, per_client, reps) = (5u64, 4u64, 8usize);
    let handle = Server::start(
        catalog.clone(),
        Arc::new(InProcessBackend::new()),
        ServerConfig {
            workers: 3,
            max_inflight: 64, // never Busy: keeps queries_served exact
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let query = query.clone();
            std::thread::spawn(move || {
                let mut client = ServerClient::connect(addr).unwrap();
                let mut shards = 0;
                for q in 0..per_client {
                    match client.query(&query, reps, c * 10 + q).unwrap() {
                        QueryReply::Ok { stats, .. } => shards += stats.shards_spawned,
                        QueryReply::Rejected { code, message } => {
                            panic!("rejected under cap: {code:?} {message}")
                        }
                    }
                }
                shards
            })
        })
        .collect();
    let shards: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();

    let total = clients * per_client;
    assert_eq!(handle.cache().skeleton_misses() as u64, 1);
    assert_eq!(handle.cache().skeleton_hits() as u64, total - 1);
    assert!(
        handle.pool().buffer_reuses() > 0,
        "repeated blocks over the shared pool must recycle buffers"
    );

    let stats = handle.shutdown();
    assert_eq!(stats.queries_served, total);
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.plan_executions, 1);
    assert_eq!(stats.inflight, 0);
    assert_eq!(stats.connections, clients, "one connection per client");
    assert!(shards >= total, "every query spawned units");
    assert_eq!(
        stats.shards_spawned, shards,
        "the server's units are the sum of the queries'"
    );
}
