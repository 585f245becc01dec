//! The `mcdbr-server` binary, driven as a real child process: its answers
//! are a function of the query, the catalog and the master seed, whatever
//! `MCDBR_*` variables its environment holds, and no argument selects a
//! backend.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use mcdbr_mcdb::McdbEngine;
use mcdbr_server::client::{QueryReply, ServerClient};
use mcdbr_server::demo::{demo_catalog, demo_query};

/// Kills the server if the test fails before it drains.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Environment variables earlier versions read as settings: a 1 ms
/// per-query deadline, a 1 ms worker-task deadline and one thread.
const RETIRED_KNOBS: [(&str, &str); 3] = [
    ("QUERY_DEADLINE_MS", "1"),
    ("TASK_DEADLINE_MS", "1"),
    ("THREADS", "1"),
];

#[test]
fn environment_knobs_change_neither_the_deadline_nor_the_answer() {
    // The retired knobs and a reply-delay fault plan in the environment:
    // none of them is a server setting, so a query that takes far longer
    // than 1 ms still comes back whole.
    let mut command = Command::new(env!("CARGO_BIN_EXE_mcdbr-server"));
    command
        .args(["--addr", "127.0.0.1:0"])
        .env(mcdbr_faults::FAULTS_ENV, "seed=77,delay=1:5")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (name, value) in RETIRED_KNOBS {
        command.env(format!("MCDBR_{name}"), value);
    }
    let mut server = Reap(command.spawn().expect("spawn mcdbr-server"));
    // The first stdout line is `listening on HOST:PORT`.
    let mut line = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    let (query, reps, seed) = (demo_query(), 2_000, 5);
    let mut client = ServerClient::connect(addr.as_str()).unwrap();
    let samples = match client.query_retrying(&query, reps, seed).unwrap() {
        QueryReply::Ok { samples, .. } => samples,
        QueryReply::Rejected { code, message } => {
            panic!("query rejected with {code:?}: {message}")
        }
    };
    let want = McdbEngine::new()
        .run_samples(&query, &demo_catalog().unwrap(), reps, seed)
        .unwrap();
    assert_eq!(samples.group_columns, want.group_columns);
    assert_eq!(samples.groups.len(), want.groups.len());
    for ((ka, va), (kb, vb)) in samples.groups.iter().zip(&want.groups) {
        assert_eq!(ka, kb);
        assert!(
            va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()),
            "server samples differ from a local engine run"
        );
    }

    client.shutdown().unwrap();
    let status = server.0.wait().expect("wait for mcdbr-server");
    assert!(status.success(), "mcdbr-server exited with {status}");
}

#[test]
fn unknown_backend_names_exit_2() {
    // `--backend` selected a backend in earlier versions; the server runs
    // in process and the flag is an unknown argument, whatever it names.
    for name in ["inprocess", "process"] {
        let status = Command::new(env!("CARGO_BIN_EXE_mcdbr-server"))
            .args(["--addr", "127.0.0.1:0", "--backend", name])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("run mcdbr-server");
        assert_eq!(status.code(), Some(2), "--backend {name}");
    }
}
