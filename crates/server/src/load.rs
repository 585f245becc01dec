//! The load generator: N concurrent client connections hammering one
//! server with the demo query, measuring per-query latency percentiles
//! and aggregate throughput — the engine of the `loadgen` binary.

use std::net::ToSocketAddrs;
use std::time::Instant;

use mcdbr_dispatch::wire::{WireError, WireResult};
use mcdbr_mcdb::MonteCarloQuery;

use crate::client::{QueryReply, ServerClient};

/// One load run's results.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries completed successfully (Busy replies are retried, not
    /// counted).
    pub queries: usize,
    /// Median per-query latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-query latency, milliseconds.
    pub p99_ms: f64,
    /// Aggregate throughput over the run's wall clock, queries/second.
    pub qps: f64,
    /// Queries whose `QueryStats` reported a shared-cache skeleton hit.
    pub skeleton_hits: usize,
    /// Wire bytes written by all clients over the run (length prefixes
    /// included; handshakes too).  Divide by `queries` for the per-query
    /// average.
    pub wire_bytes_sent: u64,
    /// Wire bytes read by all clients over the run.
    pub wire_bytes_received: u64,
}

/// Drive `clients` concurrent connections, each running
/// `queries_per_client` demo queries of `reps` repetitions (distinct
/// master seeds per query, so results differ while the plan skeleton is
/// shared).  `Busy` replies are retried by
/// [`ServerClient::query_retrying`].  Latencies are measured per query,
/// client-side.
pub fn run_load(
    addr: impl ToSocketAddrs + Clone + Send + 'static,
    query: &MonteCarloQuery,
    clients: usize,
    queries_per_client: usize,
    reps: usize,
) -> WireResult<LoadReport> {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|client_idx| {
            let addr = addr.clone();
            let query = query.clone();
            std::thread::spawn(move || -> WireResult<(Vec<f64>, usize, u64, u64)> {
                let mut session = ServerClient::connect(addr)?;
                let mut latencies = Vec::with_capacity(queries_per_client);
                let mut hits = 0usize;
                for q in 0..queries_per_client {
                    let seed = (client_idx as u64) << 32 | q as u64;
                    let sent = Instant::now();
                    match session.query_retrying(&query, reps, seed)? {
                        QueryReply::Ok { stats, .. } => {
                            latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                            if stats.skeleton_hit {
                                hits += 1;
                            }
                        }
                        QueryReply::Rejected { code, message } => {
                            return Err(WireError::Remote(format!(
                                "query rejected ({code:?}): {message}"
                            )))
                        }
                    }
                }
                Ok((
                    latencies,
                    hits,
                    session.wire_bytes_sent(),
                    session.wire_bytes_received(),
                ))
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::new();
    let mut skeleton_hits = 0usize;
    let (mut wire_bytes_sent, mut wire_bytes_received) = (0u64, 0u64);
    for handle in handles {
        let (ls, hits, sent, received) = handle
            .join()
            .map_err(|_| WireError::Remote("load client panicked".into()))??;
        latencies.extend(ls);
        skeleton_hits += hits;
        wire_bytes_sent += sent;
        wire_bytes_received += received;
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let queries = latencies.len();
    Ok(LoadReport {
        queries,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        qps: if elapsed > 0.0 {
            queries as f64 / elapsed
        } else {
            0.0
        },
        skeleton_hits,
        wire_bytes_sent,
        wire_bytes_received,
    })
}

/// Nearest-rank percentile over an ascending-sorted slice (0.0 for empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
