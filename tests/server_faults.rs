//! Fault injection for `mcdbr-server`: dead clients, dead workers, and
//! shutdown racing in-flight queries.
//!
//! Each scenario is made deterministic with the crate's own instruments —
//! [`GateBackend`] holds a query provably inside the executor while the
//! fault is injected, and [`ProcessBackend::kill_worker`] kills real
//! worker OS processes — so the suite asserts exact outcomes (slot
//! reclaimed, bit-identical recovery, drained-not-dropped) rather than
//! sleeping and hoping.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdbr::dispatch::wire::{self, Frame};
use mcdbr::dispatch::ProcessBackend;
use mcdbr::exec::{ExecBackend, InProcessBackend, QueryResultSamples};
use mcdbr::mcdb::{McdbEngine, MonteCarloQuery};
use mcdbr::server::client::{QueryReply, ServerClient};
use mcdbr::server::service::{Server, ServerConfig, ServerHandle};
use mcdbr::server::testing::GateBackend;
use mcdbr::storage::Catalog;
use mcdbr::workloads::{customer_losses_catalog, customer_losses_query};

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

/// A hand-rolled client that can send a query and then *die* without
/// waiting for the reply — the part `ServerClient`'s blocking API can't do.
fn handshake_raw(handle: &ServerHandle) -> TcpStream {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    wire::write_frame(&mut stream, &wire::encode_hello()).unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let (reply, _) = wire::read_frame(&mut reader).unwrap().unwrap();
    assert!(matches!(
        wire::decode_frame(&reply).unwrap(),
        Frame::Hello { .. }
    ));
    stream
}

fn send_query_raw(stream: &mut TcpStream, query: &MonteCarloQuery, reps: u64, seed: u64) {
    let payload = wire::encode_query(
        &query.plan,
        &query.aggregate,
        query.final_predicate.as_ref(),
        &query.group_by,
        reps,
        seed,
    )
    .unwrap();
    wire::write_frame(stream, &payload).unwrap();
    stream.flush().unwrap();
}

#[test]
fn killed_client_mid_query_has_its_slot_reclaimed() {
    // Client A is admitted into the only slot and provably inside the
    // executor when its process "dies" (socket dropped).  The server must
    // finish or abandon the work, fail the response write, and release the
    // slot — client B's next query must be admitted, not Busy forever.
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

    let mut doomed = handshake_raw(&handle);
    send_query_raw(&mut doomed, &query, 12, 5);
    gate.wait_entered(1);
    // A holds the slot inside instantiate_block; verify B is turned away...
    let mut b = ServerClient::connect(handle.addr()).unwrap();
    assert!(matches!(
        b.query(&query, 12, 6).unwrap(),
        QueryReply::Rejected {
            code: wire::ReplyCode::Busy,
            ..
        }
    ));
    // ...then kill A while its query is in flight.
    drop(doomed);
    gate.open();

    // B must eventually be admitted: the dead client's slot is reclaimed
    // when the server's response write fails.  (Bounded retry: a leaked
    // slot would spin this to the deadline and fail.)
    let deadline = Instant::now() + Duration::from_secs(30);
    let samples = loop {
        match b.query(&query, 12, 6).unwrap() {
            QueryReply::Ok { samples, .. } => break samples,
            QueryReply::Rejected {
                code: wire::ReplyCode::Busy,
                ..
            } => {
                assert!(
                    Instant::now() < deadline,
                    "slot never reclaimed after client death"
                );
                std::thread::yield_now();
            }
            QueryReply::Rejected { code, message } => {
                panic!("unexpected rejection: {code:?} {message}")
            }
        }
    };
    assert_samples_bit_identical(&samples, &reference(&query, &catalog, 12, 6), "client B");

    let stats = handle.shutdown();
    assert_eq!(stats.inflight, 0, "no slot may leak");
}

#[test]
fn killed_workers_under_server_routed_queries_recover_bit_identically() {
    // The dispatch crate's crash-recovery contract, driven through the
    // server path: kill worker OS processes between server-routed
    // queries; the next query's tasks hit broken pipes, their units run
    // here, the workers are replaced — and the samples stay bit-identical.
    let catalog = small_catalog();
    let query = customer_losses_query(Some(7));
    let backend = Arc::new(ProcessBackend::new(2));
    let handle = Server::start(
        catalog.clone(),
        Arc::clone(&backend) as Arc<dyn ExecBackend>,
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = ServerClient::connect(handle.addr()).unwrap();

    for (round, seed) in [1u64, 2, 3].into_iter().enumerate() {
        if round > 0 {
            backend.kill_worker(0);
            if round == 2 {
                backend.kill_worker(1);
            }
        }
        let QueryReply::Ok { samples, .. } = client.query_retrying(&query, 16, seed).unwrap()
        else {
            panic!("round {round} rejected");
        };
        assert_samples_bit_identical(
            &samples,
            &reference(&query, &catalog, 16, seed),
            &format!("round {round}"),
        );
    }
    assert!(
        backend.shard_stats().worker_respawns >= 3,
        "every kill must surface as a respawn: {:?}",
        backend.shard_stats()
    );
    let stats = handle.shutdown();
    assert_eq!(stats.queries_served, 3);
    assert_eq!(stats.inflight, 0);
}

#[test]
fn fault_plan_stalled_worker_under_server_routed_queries_audits_exactly() {
    // Deterministic fault plan instead of kill_worker: worker slot 0
    // perma-stalls every task reply (`stall=1:30000`) while the read
    // deadline is short.  Under the dispatcher's one failure rule each
    // query's block is fully determined, so the counters can be audited
    // *exactly*, not `>=`: slot 0's reply misses the deadline (one
    // deadline_timeout), its worker is replaced at once by a cold one (one
    // worker_respawn, whose replacement inherits the plan and stalls the
    // next query the same way), and its unit runs here (one task_retry).
    // Three queries = 3 / 3 / 3.  Every query must still be bit-identical
    // to the in-process reference — the local run re-derives the same
    // position-addressable streams.
    let catalog = small_catalog();
    let query = customer_losses_query(Some(7));
    let backend = Arc::new(
        ProcessBackend::new(2)
            .with_fault_spec("seed=9,worker=0,stall=1:30000")
            .unwrap()
            .with_deadline(Duration::from_millis(2_000)),
    );
    let handle = Server::start(
        catalog.clone(),
        Arc::clone(&backend) as Arc<dyn ExecBackend>,
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = ServerClient::connect(handle.addr()).unwrap();

    for seed in [11u64, 12, 13] {
        let QueryReply::Ok { samples, .. } = client.query_retrying(&query, 16, seed).unwrap()
        else {
            panic!("seed {seed} rejected");
        };
        assert_samples_bit_identical(
            &samples,
            &reference(&query, &catalog, 16, seed),
            &format!("seed {seed}"),
        );
    }

    let stats = backend.shard_stats();
    assert_eq!(
        stats.deadline_timeouts, 3,
        "one timeout per stalled query: {stats:?}"
    );
    assert_eq!(
        stats.task_retries, 3,
        "one unit re-run here per stalled query: {stats:?}"
    );
    assert_eq!(
        stats.worker_respawns, 3,
        "one replacement per stalled query: {stats:?}"
    );

    let server_stats = handle.shutdown();
    assert_eq!(server_stats.queries_served, 3);
    assert_eq!(
        server_stats.query_timeouts, 0,
        "a unit run here is not a timeout"
    );
    assert_eq!(server_stats.inflight, 0);
}

#[test]
fn shutdown_with_a_query_in_flight_drains_it_not_drops_it() {
    // Client A's query is provably inside the executor when client B
    // requests shutdown.  The drain must (1) refuse new queries with a
    // typed ShuttingDown reply — even on connections opened before the
    // drain — (2) let A's query finish and deliver its complete,
    // bit-identical response, and only then (3) let shutdown complete.
    let catalog = small_catalog();
    let query = customer_losses_query(None);
    let gate = Arc::new(GateBackend::new());
    let handle = Server::start(
        catalog.clone(),
        Arc::clone(&gate) as Arc<dyn ExecBackend>,
        ServerConfig {
            workers: 2,
            max_inflight: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // C connects *before* the drain so its connection is live throughout.
    let mut late = ServerClient::connect(addr).unwrap();

    let a = std::thread::spawn({
        let query = query.clone();
        move || {
            let mut client = ServerClient::connect(addr).unwrap();
            client.query(&query, 12, 9).unwrap()
        }
    });
    gate.wait_entered(1);

    // B asks for shutdown while A is mid-query; wait until the server has
    // actually processed the frame so the refusal below is deterministic.
    ServerClient::connect(addr).unwrap().shutdown().unwrap();
    while !handle.is_draining() {
        std::thread::yield_now();
    }

    // A query on the pre-existing connection is refused with a typed,
    // retry-meaningful code — not an abrupt close, not a hang.
    match late.query(&query, 12, 10).unwrap() {
        QueryReply::Rejected { code, .. } => {
            assert_eq!(code, wire::ReplyCode::ShuttingDown)
        }
        QueryReply::Ok { .. } => panic!("admitted a query during drain"),
    }

    // Release A: its full response must arrive despite the drain.
    gate.open();
    let QueryReply::Ok { samples, stats } = a.join().unwrap() else {
        panic!("in-flight query dropped by shutdown");
    };
    assert_samples_bit_identical(
        &samples,
        &reference(&query, &catalog, 12, 9),
        "drained query",
    );
    assert_eq!(stats.plan_executions, 1);

    handle.wait_drained();
    let final_stats = handle.shutdown();
    assert_eq!(
        final_stats.queries_served, 1,
        "exactly the drained query was served"
    );
    assert_eq!(final_stats.inflight, 0);
}

#[test]
fn plans_without_a_cached_prefix_still_observe_the_query_deadline() {
    // A `Split` over a random column has no cached prefix: its session runs
    // the executor and aggregates the set itself.  That aggregate must
    // still go through the server's backend, where the query's deadline is
    // checked — a zero deadline answers Timeout, as it does for the
    // cacheable form of the same query.
    let catalog = customer_losses_catalog(16, (2.0, 6.0), 11).unwrap();
    let mut query = customer_losses_query(None);
    query.plan = query.plan.split("val");
    let handle = Server::start(
        catalog,
        Arc::new(InProcessBackend::new()),
        ServerConfig {
            workers: 2,
            query_deadline: Some(Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    match client.query(&query, 8, 3).unwrap() {
        QueryReply::Rejected { code, message } => {
            assert_eq!(code, wire::ReplyCode::Timeout, "{message}");
        }
        QueryReply::Ok { .. } => panic!("a split query ignored its deadline"),
    }
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.query_timeouts, 1);
}
