//! Protocol fuzz for `mcdbr-server` over real sockets.
//!
//! Extends `wire_roundtrip.rs`'s seeded-generator approach (no registry
//! access, so no `proptest`; each case seed is carried in failure
//! messages) from in-memory byte buffers to live TCP connections: random
//! garbage, truncated frames, bit-flipped query payloads, oversized length
//! prefixes, and magic/version handshake mismatches must each yield a
//! typed error reply or a clean disconnect — never a panic, and never a
//! wedged accept loop.  After every hostile connection, a well-behaved
//! client must still be served correctly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use mcdbr::dispatch::wire::{self, Frame, ReplyCode, WIRE_MAGIC, WIRE_VERSION};
use mcdbr::exec::plan::OutputColumn;
use mcdbr::exec::{
    AggregateSpec, Expr, InProcessBackend, PlanNode, RandomTableSpec, MAX_BLOCK_CELLS,
};
use mcdbr::mcdb::{McdbEngine, MonteCarloQuery};
use mcdbr::prng::Pcg64;
use mcdbr::server::client::{QueryReply, ServerClient};
use mcdbr::server::demo::{demo_catalog, demo_query};
use mcdbr::server::service::{Server, ServerConfig, ServerHandle, MAX_QUERY_REPS};
use mcdbr::vg::MultiNormalVg;
use mcdbr::workloads::{customer_losses_catalog, customer_losses_query};

const CASES: u64 = 48;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn start_server() -> ServerHandle {
    let catalog = customer_losses_catalog(8, (2.0, 5.0), 11).unwrap();
    Server::start(
        catalog,
        Arc::new(InProcessBackend::new()),
        ServerConfig::default(),
    )
    .unwrap()
}

/// A raw socket with finite timeouts, so a wedged server fails the test
/// instead of hanging it.
fn raw_conn(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(IO_TIMEOUT)).unwrap();
    stream
}

/// Drain whatever the server sends until it closes the connection,
/// asserting the conversation ends (EOF or error) rather than hanging.
fn read_until_close(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => return out, // reset/timeout: the conversation is over
        }
    }
}

/// The liveness probe: a clean client served end to end, samples matching
/// the serial engine.
fn assert_server_still_healthy(handle: &ServerHandle, seed: u64) {
    let catalog = customer_losses_catalog(8, (2.0, 5.0), 11).unwrap();
    let query = customer_losses_query(None);
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    let QueryReply::Ok { samples, .. } = client.query(&query, 8, seed).unwrap() else {
        panic!("healthy client rejected after fuzz traffic (seed {seed})");
    };
    let want = McdbEngine::new()
        .with_backend(Arc::new(InProcessBackend::new()))
        .run_samples(&query, &catalog, 8, seed)
        .unwrap();
    assert_eq!(samples.group_columns, want.group_columns);
    for ((ka, va), (kb, vb)) in samples.groups.iter().zip(&want.groups) {
        assert_eq!(ka, kb);
        assert!(va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}

#[test]
fn random_garbage_never_wedges_the_accept_loop() {
    let handle = start_server();
    for case in 0..CASES {
        let mut rng = Pcg64::new(0x6675_7a7a ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut stream = raw_conn(handle.addr());
        let len = (rng.next_u64() % 512 + 1) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        // A write error just means the server already hung up — also fine.
        let _ = stream.write_all(&garbage);
        let _ = stream.flush();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = read_until_close(&mut stream);
    }
    // The accept loop survived 48 hostile connections.
    assert_server_still_healthy(&handle, 1);
    handle.shutdown();
}

#[test]
fn truncated_query_frames_close_only_their_own_connection() {
    let handle = start_server();
    let query = customer_losses_query(None);
    let payload = wire::encode_query(
        &query.plan,
        &query.aggregate,
        query.final_predicate.as_ref(),
        &query.group_by,
        8,
        3,
    )
    .unwrap();
    for case in 0..CASES {
        let mut rng = Pcg64::new(0x7472_756e ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut stream = raw_conn(handle.addr());
        // Legitimate handshake first...
        wire::write_frame(&mut stream, &wire::encode_hello()).unwrap();
        stream.flush().unwrap();
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &payload).unwrap();
        // ...then a strict prefix of a real Query frame, cut anywhere
        // (inside the length prefix, the tag, or the plan body), then EOF.
        let cut = (rng.next_u64() % framed.len() as u64) as usize;
        let _ = stream.write_all(&framed[..cut]);
        let _ = stream.flush();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let bytes = read_until_close(&mut stream);
        // Whatever came back (the Hello reply, possibly an error frame),
        // the connection must terminate without wedging the server.
        assert!(
            bytes.len() < 1 << 20,
            "case {case}: unbounded reply to a truncated frame"
        );
    }
    assert_server_still_healthy(&handle, 2);
    handle.shutdown();
}

#[test]
fn corrupted_query_frames_yield_typed_replies_or_clean_disconnects() {
    let handle = start_server();
    let query = customer_losses_query(Some(5));
    let payload = wire::encode_query(
        &query.plan,
        &query.aggregate,
        query.final_predicate.as_ref(),
        &query.group_by,
        8,
        3,
    )
    .unwrap();
    for case in 0..CASES {
        let mut rng = Pcg64::new(0x636f_7272 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut corrupt = payload.clone();
        // Flip a byte of the plan/aggregate body.  Byte 0 (the frame tag)
        // is exempt — a flipped tag is a *different*, well-formed request
        // (tag 7 is Shutdown) — as are the trailing reps/seed words, where
        // a high-bit flip forms a valid query for ~2^60 repetitions: a
        // resource-exhaustion case, not a protocol-robustness one.
        let at = 1 + (rng.next_u64() % (corrupt.len() as u64 - 17)) as usize;
        corrupt[at] ^= (rng.next_u64() % 255 + 1) as u8;

        let mut stream = raw_conn(handle.addr());
        wire::write_frame(&mut stream, &wire::encode_hello()).unwrap();
        stream.flush().unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let (hello, _) = wire::read_frame(&mut reader).unwrap().unwrap();
        assert!(matches!(
            wire::decode_frame(&hello).unwrap(),
            Frame::Hello { .. }
        ));

        if wire::write_frame(&mut stream, &corrupt).is_err() {
            continue; // server already dropped us: a clean disconnect
        }
        let _ = stream.flush();
        // Three legal outcomes, all typed: the corruption decoded into a
        // *valid* query (single bit flips can land in payload data) and
        // ran; it was rejected with an ErrorReply; or the connection
        // closed.  A panic upstream would surface as a test failure when
        // the health probe below runs.
        // `Ok(None)` / `Err(_)` both mean a clean disconnect.
        if let Ok(Some((reply, _))) = wire::read_frame(&mut reader) {
            match wire::decode_frame(&reply) {
                Ok(Frame::QueryResult(_) | Frame::ErrorReply { .. }) => {}
                Ok(other) => panic!("case {case}: unexpected reply {other:?}"),
                Err(err) => panic!("case {case}: undecodable reply: {err}"),
            }
        }
    }
    assert_server_still_healthy(&handle, 3);
    handle.shutdown();
}

#[test]
fn oversized_length_prefixes_are_rejected_without_allocation() {
    let handle = start_server();
    for raw_len in [u32::MAX, u32::MAX - 1, wire::MAX_FRAME_LEN + 1] {
        let mut stream = raw_conn(handle.addr());
        wire::write_frame(&mut stream, &wire::encode_hello()).unwrap();
        stream.flush().unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let (hello, _) = wire::read_frame(&mut reader).unwrap().unwrap();
        assert!(matches!(
            wire::decode_frame(&hello).unwrap(),
            Frame::Hello { .. }
        ));
        // A length prefix far beyond MAX_FRAME_LEN: the server must refuse
        // it at the frame layer (no multi-gigabyte buffer) and hang up.
        stream.write_all(&raw_len.to_le_bytes()).unwrap();
        let _ = stream.flush();
        let bytes = read_until_close(&mut stream);
        assert!(bytes.len() < 1 << 20, "unbounded reply to bogus length");
    }
    assert_server_still_healthy(&handle, 4);
    handle.shutdown();
}

#[test]
fn oversized_repetition_counts_are_invalid_before_admission() {
    let handle = start_server();
    let query = customer_losses_query(None);
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    // One past the cap first, which a server without it would simply run;
    // 2^40 would make it reserve 8 TiB for the first block.
    for reps in [MAX_QUERY_REPS + 1, 1 << 40] {
        match client.query(&query, reps as usize, 1).unwrap() {
            QueryReply::Rejected { code, message } => {
                assert_eq!(code, ReplyCode::Invalid, "{message}");
                assert!(message.contains("repetitions"), "{message}");
            }
            QueryReply::Ok { .. } => panic!("{reps} repetitions were admitted"),
        }
    }
    // The connection stays usable, and nothing was admitted.
    assert!(matches!(
        client.query(&query, 8, 6).unwrap(),
        QueryReply::Ok { .. }
    ));
    let stats = handle.stats();
    assert_eq!((stats.queries_served, stats.inflight), (1, 0));
    assert_server_still_healthy(&handle, 6);
    handle.shutdown();
}

/// The widest `MultiNormal` a plan may carry: 4 096 rows of 2 fields a
/// position, one stream per customer.
fn widest_multinormal() -> PlanNode {
    PlanNode::random_table(RandomTableSpec {
        name: "Correlated".into(),
        param_table: "means".into(),
        vg: Arc::new(MultiNormalVg::new(4_096, 0.5)),
        vg_params: vec![Expr::col("m"), Expr::lit(1.0)],
        columns: vec![OutputColumn::Vg {
            vg_col: 1,
            as_name: "val".into(),
        }],
        table_tag: 3,
    })
}

#[test]
fn blocks_over_the_cell_budget_are_invalid_before_any_cell_is_allocated() {
    // 4 096 × 2 cells a position for each of the catalog's 8 customers.
    let query = MonteCarloQuery::new(
        widest_multinormal(),
        AggregateSpec::sum(Expr::col("val"), "total"),
    );
    let cells_per_position = 8 * 4_096 * 2;
    let handle = start_server();
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    // 2^36 cells at the repetition cap (512 GiB): without the budget the
    // first block's allocation aborts the server.
    for reps in [
        MAX_QUERY_REPS as usize,
        1 + (MAX_BLOCK_CELLS / cells_per_position) as usize,
    ] {
        match client.query(&query, reps, 1).unwrap() {
            QueryReply::Rejected { code, message } => {
                assert_eq!(code, ReplyCode::Invalid, "{message}");
                assert!(message.contains("budget"), "{message}");
            }
            QueryReply::Ok { .. } => panic!("a block of {reps} repetitions was served"),
        }
    }
    // The same query at a few repetitions fits, and the connection is
    // still usable.
    let QueryReply::Ok { samples, .. } = client.query(&query, 4, 2).unwrap() else {
        panic!("a block inside the budget was refused");
    };
    let catalog = customer_losses_catalog(8, (2.0, 5.0), 11).unwrap();
    let want = McdbEngine::new()
        .run_samples(&query, &catalog, 4, 2)
        .unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&samples.groups[0].1), bits(&want.groups[0].1));
    let stats = handle.stats();
    assert_eq!((stats.queries_served, stats.inflight), (1, 0));
    assert_server_still_healthy(&handle, 7);
    handle.shutdown();
}

#[test]
fn split_plans_over_the_cell_budget_are_invalid_and_the_connection_still_serves() {
    // A `Split` over a random attribute runs the whole plan per block,
    // outside the cached path: the budget holds there too.
    let catalog = demo_catalog().unwrap();
    let handle = Server::start(
        catalog.clone(),
        Arc::new(InProcessBackend::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = ServerClient::connect(handle.addr()).unwrap();
    let split = |plan: PlanNode| {
        MonteCarloQuery::new(
            plan.split("val"),
            AggregateSpec::sum(Expr::col("val"), "total"),
        )
    };
    // 2^33 VG cells at the repetition cap, refused before the first stream
    // is generated past its first position; and the demo query's 250
    // Normal streams, one variant per bundle and repetition (2^32 presence
    // flags), refused as its variants are enumerated.
    for (query, reps) in [
        (split(widest_multinormal()), MAX_QUERY_REPS as usize),
        (split(demo_query().plan), 4_096),
    ] {
        match client.query(&query, reps, 1).unwrap() {
            QueryReply::Rejected { code, message } => {
                assert_eq!(code, ReplyCode::Invalid, "{message}");
                assert!(message.contains("budget"), "{message}");
            }
            QueryReply::Ok { .. } => panic!("a split of {reps} repetitions was served"),
        }
    }
    let query = demo_query();
    let QueryReply::Ok { samples, .. } = client.query(&query, 64, 3).unwrap() else {
        panic!("the demo query was refused after the split refusals");
    };
    let want = McdbEngine::new()
        .run_samples(&query, &catalog, 64, 3)
        .unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&samples.groups[0].1), bits(&want.groups[0].1));
    handle.shutdown();
}

#[test]
fn handshake_magic_and_version_mismatches_are_rejected_with_an_error_frame() {
    let handle = start_server();
    for (magic, version, expect) in [
        (WIRE_MAGIC, WIRE_VERSION + 7, "version mismatch"),
        (0x0BAD_F00D, WIRE_VERSION, "bad handshake magic"),
    ] {
        let mut stream = raw_conn(handle.addr());
        wire::write_frame(&mut stream, &wire::encode_hello_with(magic, version)).unwrap();
        stream.flush().unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let (reply, _) = wire::read_frame(&mut reader).unwrap().unwrap();
        match wire::decode_frame(&reply).unwrap() {
            Frame::Error { message } => {
                assert!(message.contains(expect), "unexpected rejection: {message}")
            }
            other => panic!("expected an Error frame, got {other:?}"),
        }
        // And the server closes the connection after the rejection.
        assert!(wire::read_frame(&mut reader).unwrap().is_none());
    }
    // A query before any handshake is also a handshake failure.
    let query = customer_losses_query(None);
    let mut stream = raw_conn(handle.addr());
    let payload =
        wire::encode_query(&query.plan, &query.aggregate, None, &query.group_by, 4, 1).unwrap();
    wire::write_frame(&mut stream, &payload).unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let (reply, _) = wire::read_frame(&mut reader).unwrap().unwrap();
    match wire::decode_frame(&reply).unwrap() {
        Frame::Error { message } => {
            assert!(message.contains("Hello"), "unexpected rejection: {message}")
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert_server_still_healthy(&handle, 5);
    handle.shutdown();
}
