//! The `mcdbr-worker` binary, driven as a real child process.
//!
//! This is also what makes `cargo test` build the worker: cargo only builds
//! a package's binaries for that package's *integration* tests, and every
//! `ProcessBackend` test in the workspace spawns the debug `mcdbr-worker`
//! sitting next to its own test executable.

use std::io::{BufReader, Write};
use std::process::{Command, Stdio};

use mcdbr_dispatch::wire::{self, Frame};

#[test]
fn worker_binary_completes_the_handshake_and_exits_cleanly_on_pipe_close() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mcdbr-worker"))
        // The worker reads a fault plan from its environment; this test
        // wants none.
        .env_remove(mcdbr_faults::FAULTS_ENV)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn mcdbr-worker");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));

    wire::write_frame(&mut stdin, &wire::encode_hello()).unwrap();
    stdin.flush().unwrap();
    let (payload, _) = wire::read_frame(&mut stdout)
        .unwrap()
        .expect("a Hello reply, not EOF");
    match wire::decode_frame(&payload).unwrap() {
        Frame::Hello { magic, version } => {
            assert_eq!(magic, wire::WIRE_MAGIC);
            assert_eq!(version, wire::WIRE_VERSION);
        }
        _ => panic!("expected Hello from the worker"),
    }

    drop(stdin);
    let status = child.wait().expect("wait for mcdbr-worker");
    assert!(status.success(), "worker exited with {status}");
}
