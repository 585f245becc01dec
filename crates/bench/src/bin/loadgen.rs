//! `loadgen` — drive a running `mcdbr-server` with concurrent clients
//! and print latency percentiles and throughput.
//!
//! ```text
//! loadgen --addr HOST:PORT [--clients N] [--queries N] [--reps N] [--shutdown]
//! ```
//!
//! Each client runs `--queries` demo queries (the same customer-losses
//! query `mcdbr-server` serves) with distinct master seeds, so the
//! workload exercises the shared skeleton cache without repeating
//! results.  `Busy` rejections are retried until admitted, under a
//! capped-exponential, seeded-jitter backoff.
//! `--shutdown` sends the server a `Shutdown` frame after the run,
//! draining it — handy for CI smoke scripts.

use std::process::ExitCode;

use mcdbr_server::client::ServerClient;
use mcdbr_server::demo;
use mcdbr_server::run_load;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--clients N] [--queries N] [--reps N] [--shutdown]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut clients = 4usize;
    let mut queries = 16usize;
    let mut reps = 64usize;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_missing(flag));
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--clients" => clients = parse_count(&value("--clients"), "--clients"),
            "--queries" => queries = parse_count(&value("--queries"), "--queries"),
            "--reps" => reps = parse_count(&value("--reps"), "--reps"),
            "--shutdown" => shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("loadgen: unknown argument `{other}`");
                usage();
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("loadgen: --addr is required");
        usage();
    };

    let query = demo::demo_query();
    eprintln!("loadgen: {clients} clients x {queries} queries x {reps} reps against {addr}");
    let report = match run_load(addr.clone(), &query, clients, queries, reps) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen: load run failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "queries={} p50_ms={:.3} p99_ms={:.3} qps={:.1} skeleton_hits={} \
         wire_bytes_sent={} wire_bytes_received={}",
        report.queries,
        report.p50_ms,
        report.p99_ms,
        report.qps,
        report.skeleton_hits,
        report.wire_bytes_sent,
        report.wire_bytes_received
    );

    if shutdown {
        match ServerClient::connect(addr.as_str()).and_then(|c| c.shutdown()) {
            Ok(()) => eprintln!("loadgen: shutdown requested"),
            Err(err) => {
                eprintln!("loadgen: shutdown request failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage_missing(flag: &str) -> ! {
    eprintln!("loadgen: {flag} requires a value");
    usage();
}

fn parse_count(value: &str, flag: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("loadgen: {flag} must be a positive integer, got `{value}`");
            usage();
        }
    }
}
