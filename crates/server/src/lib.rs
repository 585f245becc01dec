//! `mcdbr-server`: the resident, concurrent Monte Carlo query service.
//!
//! Everything below PR 6 is a one-shot binary: build an engine, run a
//! query, exit — the warm [`mcdbr_exec::SessionCache`], the
//! [`mcdbr_exec::BlockBufferPool`], and the spawned worker processes all
//! die with the process.  This crate keeps them **resident** and shares
//! them across many concurrent clients:
//!
//! * [`service`] — the TCP listener ([`Server`] / [`ServerHandle`]):
//!   MCDW-framed request/response (`Hello`, `Query`, `QueryResult` +
//!   `QueryStats`, `ErrorReply`, `StatsRequest`/`ServerStats`,
//!   `Shutdown`), admission control with typed `Busy` replies, and a
//!   graceful drain that finishes in-flight queries before exit.
//! * [`sched`] — [`FairScheduler`]: a bounded worker pool whose
//!   round-robin ring interleaves work *units* from concurrent queries,
//!   so one big query cannot starve the rest.
//! * [`backend`] — [`FairBackend`]: the per-query [`mcdbr_exec::ExecBackend`]
//!   adapter that places a query's cell-generation units on that
//!   scheduler; composes bit-identically with the inner backend
//!   [`Server::start`] is given (`mcdbr-server` passes the in-process one;
//!   the tests also run it over `ProcessBackend`).
//! * [`client`] — [`ServerClient`]: the blocking client the loadgen
//!   binary, benches, and test suites speak.
//! * [`load`] — [`load::run_load`]: N concurrent connections measuring
//!   p50/p99 latency and queries/sec.
//! * [`demo`] — the canonical customer-losses workload the binary and
//!   loadgen agree on.
//! * [`testing`] — deterministic gates for concurrency tests.
//!
//! The correctness story is the repo's usual one, extended to
//! concurrency: every result a client receives is **bit-identical** to a
//! single-threaded `McdbEngine` run of the same `(query, seed)`, for any
//! interleaving of clients, any backend, and any scheduler width —
//! proven by `tests/server_concurrency.rs`, fuzzed at the protocol layer
//! by `tests/server_fuzz.rs`, and exercised under faults (killed
//! clients, killed workers, shutdown with queries in flight) by
//! `tests/server_faults.rs`.

#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod demo;
pub mod load;
pub mod sched;
pub mod service;
pub mod testing;

pub use backend::FairBackend;
pub use client::{QueryReply, ServerClient};
pub use load::{run_load, LoadReport};
pub use sched::FairScheduler;
pub use service::{Server, ServerConfig, ServerHandle};

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::client::busy_backoff;

    #[test]
    fn backoff_is_capped_exponential_with_deterministic_jitter() {
        for attempt in 0..12 {
            let bound = 2u64.saturating_mul(1 << attempt).min(200);
            let d = busy_backoff(attempt, 7);
            assert!(
                d <= Duration::from_millis(bound),
                "attempt {attempt}: {d:?} > {bound}ms"
            );
            assert_eq!(d, busy_backoff(attempt, 7), "jitter must be deterministic");
        }
        assert_ne!(busy_backoff(2, 0), busy_backoff(2, 1), "salts decorrelate");
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let d = busy_backoff(u32::MAX, 42);
        assert!(d <= Duration::from_millis(200));
    }
}
