//! What the operating system knows about this process: peak memory, CPU
//! time, and a scratch directory inside the build output.

use std::path::PathBuf;

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
/// Worker child processes are not counted.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(pid's parent, utime + stime in clock ticks)` from `/proc/<pid>/stat`.
fn stat_of(pid: &str) -> Option<(u32, u64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; fields resume after the
    // last `)`.  After it: state ppid ... with utime, stime at 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ppid = fields.get(1)?.parse().ok()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((ppid, utime + stime))
}

/// CPU milliseconds (user + system, every thread, exited ones too) consumed
/// so far by this process and by its live children — the worker processes
/// of the process-backend workload.  Linux accounts in ticks of 10 ms, so
/// take differences over seconds, not over single operations.
pub fn cpu_ms() -> f64 {
    let me = std::process::id();
    let mut ticks = stat_of("self").map_or(0, |(_, t)| t);
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(pid) = name
                .to_str()
                .filter(|n| n.bytes().all(|b| b.is_ascii_digit()))
            else {
                continue;
            };
            if let Some((ppid, t)) = stat_of(pid) {
                if ppid == me {
                    ticks += t;
                }
            }
        }
    }
    // USER_HZ is 100 on every Linux the toolchain targets.
    ticks as f64 * 10.0
}

/// A directory for files the run writes (spill heaps, span dumps), next to
/// the running executable — that is, inside the build output directory and
/// so inside the checkout the benchmark runs from.
pub fn scratch_dir(label: &str) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default()
        .join("perf_ledger_scratch")
        .join(label);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The commit the checkout is at, read from `.git` by hand (the benchmark
/// also runs from checkouts that are not git repositories).
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}
