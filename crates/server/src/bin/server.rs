//! `mcdbr-server` — a resident MCDB-R query service over the demo
//! customer-losses catalog.
//!
//! ```text
//! mcdbr-server [--addr HOST:PORT] [--workers N] [--max-inflight N]
//!              [--port-file PATH] [--backend inprocess|process]
//! ```
//!
//! `--backend` picks the execution backend (default `inprocess`); a
//! process backend is `--workers` wide.  `--addr 127.0.0.1:0` binds an
//! ephemeral port; `--port-file` writes the bound `host:port` so scripts
//! (CI, loadgen) can find it.  The process exits after a client sends the
//! `Shutdown` frame and every in-flight query has drained.

use std::process::ExitCode;

use mcdbr_server::demo;
use mcdbr_server::service::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: mcdbr-server [--addr HOST:PORT] [--workers N] [--max-inflight N] \
         [--port-file PATH] [--backend inprocess|process]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut port_file: Option<String> = None;
    let mut backend_name = "inprocess".to_string();

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
            "--backend" => backend_name = value("--backend"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("mcdbr-server: unknown argument `{other}`");
                usage();
            }
        }
    }

    let backend = match mcdbr_dispatch::backend_named(&backend_name, config.workers) {
        Ok(backend) => backend,
        Err(err) => {
            eprintln!("mcdbr-server: --backend: {err}");
            usage();
        }
    };
    let catalog = match demo::demo_catalog() {
        Ok(catalog) => catalog,
        Err(err) => {
            eprintln!("mcdbr-server: failed to build demo catalog: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "mcdbr-server: demo catalog ready ({} customers), backend `{}`, {} scheduler workers, \
         {} in-flight slots",
        demo::DEMO_CUSTOMERS,
        backend.name(),
        config.workers,
        config.max_inflight
    );

    let handle = match Server::start(catalog, backend, config) {
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
         ({} skeleton hits, {} plan executions, {} tasks dispatched, {} busy rejections)",
        stats.queries_served,
        stats.connections,
        stats.skeleton_hits,
        stats.plan_executions,
        stats.tasks_dispatched,
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
