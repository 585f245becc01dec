//! `perf_ledger`: the one benchmark every performance claim about this
//! repository is measured with.  See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! perf_ledger --workload <name> [--seed S] [--seconds N] [--trace 0|1]
//! perf_ledger --all [--seed S] [--seconds N]        > summary.json
//! perf_ledger --agree <summaryA.json> <summaryB.json>
//! perf_ledger --list
//! ```
//!
//! One workload runs per process, so peak memory is attributable.  The last
//! line of standard output is the result as one JSON object.

mod json;
mod ledger;
mod runner;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;
use runner::RunArgs;

/// Set (by `ProcessBackend::with_worker_env`) in the environment of the
/// worker processes the process-backend workload spawns: this executable
/// then serves as `mcdbr-worker`.
pub const WORKER_ENV: &str = "PERF_LEDGER_WORKER";

pub const DEFAULT_SEED: u64 = 77;
pub const DEFAULT_SECONDS: f64 = 8.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf_ledger --workload <name> [--seed S] [--seconds N] [--trace 0|1]\n\
         \x20      perf_ledger --all [--seed S] [--seconds N]\n\
         \x20      perf_ledger --agree <summaryA.json> <summaryB.json>\n\
         \x20      perf_ledger --list"
    );
    ExitCode::from(2)
}

fn worker_main() -> ExitCode {
    // Exactly what the `mcdbr-worker` binary does.
    let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
    let faults = mcdbr_faults::env_injector();
    match mcdbr_dispatch::worker::run_worker_with_faults(
        &mut stdin.lock(),
        &mut stdout.lock(),
        faults.as_deref(),
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf_ledger worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// glibc gives every new thread its own malloc arena, up to eight per core,
/// and the engine's fan-out spawns short-lived threads all the time: which
/// arenas they land in differs from run to run, and `VmHWM` with it (72 to
/// 111 MiB for the identical work of `tail.join_small`, 596 to 781 MiB for
/// `tail.join_laptop`).  Fewer arenas repeat better but contend: with one
/// arena `naive.join_laptop` is 40 % slower, with one per core
/// `naive.join_process2` 12 %.  At two per core no timing moves and peak
/// memory repeats within 1 % (laptop) to 20 % (small), so every run happens
/// in a child of this process started with `MALLOC_ARENA_MAX` = 2 x cores;
/// worker processes inherit it.  Returns the child's exit code, or `None`
/// in the child itself.
fn rerun_with_two_arenas_per_core() -> Option<ExitCode> {
    const ARENA_MAX: &str = "MALLOC_ARENA_MAX";
    let arenas = (2 * std::thread::available_parallelism().ok()?.get()).to_string();
    if std::env::var(ARENA_MAX).as_ref() == Ok(&arenas) {
        return None;
    }
    let status = std::process::Command::new(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(ARENA_MAX, arenas)
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().map_or(1, |code| code as u8)))
}

fn main() -> ExitCode {
    if std::env::var_os(WORKER_ENV).is_some() {
        return worker_main();
    }
    if let Some(code) = rerun_with_two_arenas_per_core() {
        return code;
    }

    let mut workload: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut all = false;
    let mut agree: Option<(String, String)> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).filter(|v| !v.starts_with("--"));
        match args[i].as_str() {
            "--workload" => match value(i) {
                Some(v) => workload = Some(v.clone()),
                None => return usage(),
            },
            "--seed" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--seconds" => match value(i).and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v <= 3600.0 => seconds = v,
                _ => return usage(),
            },
            // `--trace` alone means `--trace 1`.
            "--trace" => match value(i).map(String::as_str) {
                Some("1") => trace = true,
                Some("0") => trace = false,
                Some(_) => return usage(),
                None => {
                    trace = true;
                    i += 1;
                    continue;
                }
            },
            "--all" => {
                all = true;
                i += 1;
                continue;
            }
            "--agree" => match (args.get(i + 1), args.get(i + 2)) {
                (Some(a), Some(b)) => {
                    agree = Some((a.clone(), b.clone()));
                    i += 3;
                    continue;
                }
                _ => return usage(),
            },
            "--list" => {
                for spec in &workloads::SPECS {
                    println!("{:<22} {}", spec.name, spec.why);
                }
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
        i += 2;
    }

    if let Some((a, b)) = agree {
        return ledger::agree(&a, &b);
    }

    // Ambient knobs must not change what is measured.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MCDBR_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perf_ledger: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }

    if all {
        return ledger::all(seed, seconds);
    }
    let Some(workload) = workload else {
        return usage();
    };
    println!(
        "# perf_ledger workload={workload} seed={seed} seconds={seconds} trace={} nproc={} threads={} commit={}",
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        mcdbr_exec::par::default_threads(),
        sys::git_commit(),
    );
    let result = match runner::run(&RunArgs {
        workload,
        seed,
        seconds,
        trace,
    }) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::FAILURE;
        }
    };

    for (name, unit, value) in &result.metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    println!("detail {}", result.detail.emit());
    let correct = result.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            (
                "metrics",
                Json::obj(result.metrics.iter().map(|&(name, unit, value)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
        .emit()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
