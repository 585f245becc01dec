//! `--all`: run every workload, untraced then traced, each as a child
//! process of this executable, and emit one summary document.
//! `--agree`: compare two such summaries against the bounds `BENCHMARK.json`
//! fixes and the exact-count columns.

use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::workloads::{NAIVE_REPS, SPECS};

/// Run one workload in a child process; returns `(result, detail)` parsed
/// from the last two lines of its standard output.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .ok_or("child printed no detail line")?;
    let result = Json::parse(result)?;
    if !output.status.success() {
        eprintln!(
            "perf_ledger: {workload} (trace={trace}) exited with {}",
            output.status
        );
    }
    Ok((result, Json::parse(detail)?))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn all(seed: u64, seconds: f64) -> ExitCode {
    let mut workloads = Vec::new();
    let mut clean = true;
    for spec in &SPECS {
        let mut entry = Vec::new();
        for (trace, key, detail_key) in [
            (false, "end_to_end", "detail"),
            (true, "per_layer", "trace_detail"),
        ] {
            eprintln!("perf_ledger: {} trace={}", spec.name, u8::from(trace));
            match child(spec.name, seed, seconds, trace) {
                Ok((result, detail)) => {
                    clean &= result.get("correct") == Some(&Json::Bool(true));
                    entry.push((key, result));
                    entry.push((detail_key, detail));
                }
                Err(e) => {
                    eprintln!("perf_ledger: {} failed: {e}", spec.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        workloads.push((spec.name, Json::obj(entry)));
    }
    let workloads = Json::obj(workloads);

    // The paper's E3 ratio: naive repetitions needed for l tail samples
    // (l / p) at the measured naive rate, over one MCDB-R tail query.
    let e2e = |workload: &str, name: &str| {
        workloads
            .get(workload)
            .and_then(|w| metric(w.get("end_to_end")?, name))
    };
    let speedup = match (
        e2e("tail.join_laptop", "query_p50_ms"),
        e2e("naive.join_laptop", "queries_per_s"),
    ) {
        (Some(tail_ms), Some(qps)) => {
            let naive_s = 100.0 / 0.25f64.powi(5) / (NAIVE_REPS as f64 * qps);
            Json::Num(naive_s / (tail_ms / 1e3))
        }
        _ => Json::Null,
    };
    println!(
        "{}",
        Json::obj([
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("commit", Json::str(crate::sys::git_commit())),
            (
                "nproc",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("workloads", workloads),
            ("derived", Json::obj([("speedup_vs_naive", speedup)])),
        ])
        .emit()
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How `b` compares with `a` on one metric.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Within,
    Outside,
    Unresolved,
}

/// `b` may be worse than `a` by at most `bound` (a share of `a`).  A pair
/// outside the bound is *unresolved*, not a regression, when `a`'s own
/// spread — the interquartile range of its operations as a share of their
/// median — is wider than the bound.
pub fn verdict(a: f64, b: f64, lower_is_better: bool, bound: f64, spread_of_a: f64) -> Verdict {
    let worse_by = if lower_is_better { b - a } else { a - b } / a.abs();
    if worse_by <= bound {
        Verdict::Within
    } else if spread_of_a > bound {
        Verdict::Unresolved
    } else {
        Verdict::Outside
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // A summary is the last line of what `--all` printed.
    Json::parse(text.trim().lines().last().unwrap_or("")).or_else(|_| Json::parse(&text))
}

pub fn agree(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b, bench) = match (load(path_a), load(path_b), load("BENCHMARK.json")) {
        (Ok(a), Ok(b), Ok(bench)) => (a, b, bench),
        (a, b, bench) => {
            for e in [a.err(), b.err(), bench.err()].into_iter().flatten() {
                eprintln!("perf_ledger: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let bounds: Vec<(&str, bool, f64)> = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?,
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();

    let mut outside = 0;
    println!(
        "{:<22} {:<26} {:>14} {:>14}  verdict",
        "workload", "metric", "A", "B"
    );
    for spec in &SPECS {
        let side = |doc: &Json, key: &str| doc.get("workloads")?.get(spec.name)?.get(key).cloned();
        let (Some(ra), Some(rb)) = (side(&a, "end_to_end"), side(&b, "end_to_end")) else {
            println!("{:<22} missing from a summary", spec.name);
            outside += 1;
            continue;
        };
        let spread_of_a = side(&a, "detail")
            .and_then(|d| d.get("latency_ms")?.get("spread")?.as_f64())
            .unwrap_or(0.0);
        for &(name, lower, bound) in &bounds {
            let (Some(va), Some(vb)) = (metric(&ra, name), metric(&rb, name)) else {
                continue;
            };
            // Memory and set-up are one number per run: they have no
            // within-run spread to hide behind.
            let spread = if name == "peak_rss_mib" || name == "setup_s" {
                0.0
            } else {
                spread_of_a
            };
            let v = verdict(va, vb, lower, bound, spread);
            outside += usize::from(v == Verdict::Outside);
            let note = match v {
                Verdict::Within => "within".to_string(),
                Verdict::Outside => format!("outside {bound}"),
                Verdict::Unresolved => format!("unresolved (spread of A {spread:.3} > {bound})"),
            };
            println!(
                "{:<22} {:<26} {:>14.4} {:>14.4}  {note}",
                spec.name, name, va, vb
            );
        }
        // Exact-count columns must be identical.
        let exact = |doc: &Json| side(doc, "detail").and_then(|d| d.get("exact").cloned());
        if let (Some(ea), Some(eb)) = (exact(&a), exact(&b)) {
            for (name, va) in ea.as_obj().unwrap_or_default() {
                let vb = eb.get(name);
                let same = vb == Some(va);
                outside += usize::from(!same);
                println!(
                    "{:<22} {:<26} {:>14} {:>14}  {}",
                    spec.name,
                    name,
                    va.emit(),
                    vb.map_or("-".into(), Json::emit),
                    if same {
                        "identical"
                    } else {
                        "outside (counts differ)"
                    }
                );
            }
        }
    }
    if outside == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf_ledger: {outside} rows outside");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{END_TO_END, PER_LAYER};

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Lower is better: 8 % worse is within 10 %, 20 % worse is outside.
        assert_eq!(verdict(100.0, 108.0, true, 0.10, 0.02), Verdict::Within);
        assert_eq!(verdict(100.0, 120.0, true, 0.10, 0.02), Verdict::Outside);
        // ... unless A's own operations spread wider than the bound.
        assert_eq!(verdict(100.0, 120.0, true, 0.10, 0.30), Verdict::Unresolved);
        // Better is always within; higher-is-better flips the sign.
        assert_eq!(verdict(100.0, 50.0, true, 0.10, 0.0), Verdict::Within);
        assert_eq!(verdict(100.0, 85.0, false, 0.10, 0.0), Verdict::Outside);
        assert_eq!(verdict(100.0, 130.0, false, 0.10, 0.0), Verdict::Within);
    }

    /// `BENCHMARK.json` is written by hand; it must name exactly the
    /// workloads and metrics the code produces.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| m.get(f).and_then(Json::as_str).unwrap().to_string())
                        .collect()
                })
                .collect()
        };
        let expect = |table: &[(&str, &str, &str)]| -> Vec<Vec<String>> {
            table
                .iter()
                .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()])
                .collect()
        };
        assert_eq!(
            names("end_to_end", &["name", "unit", "better"]),
            expect(END_TO_END)
        );
        assert_eq!(
            names("per_layer", &["name", "unit", "better"]),
            expect(PER_LAYER)
        );
        let specs: Vec<Vec<String>> = SPECS
            .iter()
            .map(|s| vec![s.name.to_string(), s.why.to_string()])
            .collect();
        assert_eq!(names("workloads", &["name", "why"]), specs);
        for m in bench.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
