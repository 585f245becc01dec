//! `mcdbr-server` — a resident MCDB-R query service over the demo
//! customer-losses catalog.
//!
//! ```text
//! mcdbr-server [--addr HOST:PORT] [--workers N] [--max-inflight N]
//!              [--port-file PATH]
//! ```
//!
//! Queries run in process on `--workers` scheduler threads.
//! `--addr 127.0.0.1:0` binds an
//! ephemeral port; `--port-file` writes the bound `host:port` so scripts
//! (CI, loadgen) can find it.  The process exits after a client sends the
//! `Shutdown` frame and every in-flight query has drained.

use std::process::ExitCode;
use std::sync::Arc;

use mcdbr_exec::InProcessBackend;
use mcdbr_server::demo;
use mcdbr_server::service::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: mcdbr-server [--addr HOST:PORT] [--workers N] [--max-inflight N] \
         [--port-file PATH]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut port_file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_missing(flag));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = parse_count(&value("--workers"), "--workers"),
            "--max-inflight" => {
                config.max_inflight = parse_count(&value("--max-inflight"), "--max-inflight")
            }
            "--port-file" => port_file = Some(value("--port-file")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("mcdbr-server: unknown argument `{other}`");
                usage();
            }
        }
    }

    let catalog = match demo::demo_catalog() {
        Ok(catalog) => catalog,
        Err(err) => {
            eprintln!("mcdbr-server: failed to build demo catalog: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "mcdbr-server: demo catalog ready ({} customers), {} scheduler workers, \
         {} in-flight slots",
        demo::DEMO_CUSTOMERS,
        config.workers,
        config.max_inflight
    );

    let handle = match Server::start(catalog, Arc::new(InProcessBackend::new()), config) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("mcdbr-server: failed to start: {err}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr().to_string();
    println!("listening on {addr}");
    if let Some(path) = port_file {
        if let Err(err) = std::fs::write(&path, &addr) {
            eprintln!("mcdbr-server: failed to write port file {path}: {err}");
            return ExitCode::FAILURE;
        }
    }

    // Block until a client asks for shutdown, then drain and report.
    handle.wait_drained();
    let stats = handle.shutdown();
    eprintln!(
        "mcdbr-server: drained; served {} queries over {} connections \
         ({} skeleton hits, {} plan executions, {} busy rejections)",
        stats.queries_served,
        stats.connections,
        stats.skeleton_hits,
        stats.plan_executions,
        stats.busy_rejections
    );
    ExitCode::SUCCESS
}

fn usage_missing(flag: &str) -> ! {
    eprintln!("mcdbr-server: {flag} requires a value");
    usage();
}

fn parse_count(value: &str, flag: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("mcdbr-server: {flag} must be a positive integer, got `{value}`");
            usage();
        }
    }
}
