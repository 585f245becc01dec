//! Bits pinned across commits.
//!
//! Every other bit-identity test compares two code paths of the same build;
//! a change that moves both sides at once (the sampler, the PRNG, seed
//! derivation, a merge order) passes them all.  This test hashes what the
//! four paper workloads produce at three master seeds — the Gibbs tail run
//! and a naive Monte Carlo run — and compares each digest with the one
//! committed in `tests/golden_digests.txt`, on the in-process backend and
//! on two worker processes.
//!
//! A deliberate re-pin replaces that file with the one the failing test
//! prints, in the same change that moves the bits.

use std::fmt::Write as _;
use std::sync::Arc;

use mcdbr::core::{GibbsLooper, TailSampleResult, TailSamplingConfig};
use mcdbr::dispatch::ProcessBackend;
use mcdbr::exec::{ExecBackend, InProcessBackend, QueryResultSamples};
use mcdbr::mcdb::{McdbEngine, MonteCarloQuery};
use mcdbr::storage::Catalog;
use mcdbr::workloads::{
    customer_losses_catalog, customer_losses_query, portfolio_catalog, portfolio_loss_query,
    salary_inversion_catalog, salary_inversion_query, TpchConfig, TpchWorkload,
};

const GOLDEN: &str = include_str!("golden_digests.txt");
const SEEDS: [u64; 3] = [2, 77, 79];
/// Monte Carlo repetitions of each naive run.
const NAIVE_REPS: usize = 40;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }
}

fn tail_digest(r: &TailSampleResult) -> u64 {
    let mut h = Fnv::new();
    h.f64s(&r.tail_samples);
    h.f64s(&r.cutoffs);
    h.u64(r.quantile_estimate.to_bits());
    h.u64(r.gibbs.candidates());
    h.u64(r.gibbs.exhausted);
    h.u64(r.stream_positions_consumed);
    h.u64(r.values_materialized);
    h.0
}

fn naive_digest(s: &QueryResultSamples) -> u64 {
    let mut h = Fnv::new();
    h.u64(s.groups.len() as u64);
    for (key, samples) in &s.groups {
        h.bytes(format!("{key:?}").as_bytes());
        h.f64s(samples);
    }
    h.0
}

struct Workload {
    name: &'static str,
    catalog: Catalog,
    query: MonteCarloQuery,
    config: TailSamplingConfig,
}

/// The §2 losses, the Appendix D join at test scale, the §5 salary
/// inversion and the portfolio, each with a budget small enough for a debug
/// build.  A small `max_candidates` keeps a hard update (the test-scale join
/// at seed 77 can burn 100 000 candidates on one) cheap while still pinning
/// `exhausted`.
fn workloads() -> Vec<Workload> {
    let tpch = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let capped = |config: TailSamplingConfig| TailSamplingConfig {
        max_candidates: 400,
        ..config
    };
    vec![
        Workload {
            name: "losses",
            catalog: customer_losses_catalog(100, (1.0, 5.0), 42).unwrap(),
            query: customer_losses_query(None),
            config: capped(TailSamplingConfig::new(0.05, 10, 120).with_block_size(40)),
        },
        Workload {
            name: "tpch",
            query: tpch.total_loss_query(),
            catalog: tpch.catalog,
            config: capped(
                TailSamplingConfig::new(0.25f64.powi(3), 10, 60)
                    .with_m(3)
                    .with_block_size(100),
            ),
        },
        Workload {
            name: "salary",
            catalog: salary_inversion_catalog(40, 99).unwrap(),
            query: salary_inversion_query(90.0, 25.0, 16.0),
            config: capped(TailSamplingConfig::new(0.05, 10, 100).with_block_size(50)),
        },
        Workload {
            name: "portfolio",
            catalog: portfolio_catalog(20, 1.0, 2024).unwrap(),
            query: portfolio_loss_query(8),
            config: capped(TailSamplingConfig::new(0.05, 10, 100).with_block_size(50)),
        },
    ]
}

/// The digest file `backend` produces: one `name seed kind digest` line per
/// workload, seed and run kind.
fn digests(workloads: &[Workload], backend: &Arc<dyn ExecBackend>) -> String {
    let mut out = String::new();
    for w in workloads {
        for seed in SEEDS {
            let config = TailSamplingConfig {
                master_seed: seed,
                ..w.config.clone()
            };
            let tail = GibbsLooper::new(w.query.clone(), config)
                .with_backend(Arc::clone(backend))
                .run(&w.catalog)
                .unwrap();
            let naive = McdbEngine::new()
                .with_backend(Arc::clone(backend))
                .run_samples(&w.query, &w.catalog, NAIVE_REPS, seed)
                .unwrap();
            let name = w.name;
            writeln!(out, "{name} {seed} tail {:016x}", tail_digest(&tail)).unwrap();
            writeln!(out, "{name} {seed} naive {:016x}", naive_digest(&naive)).unwrap();
        }
    }
    out
}

#[test]
fn every_backend_reproduces_the_committed_digests() {
    let expected: String = GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| format!("{line}\n"))
        .collect();
    let workloads = workloads();
    for backend in [
        Arc::new(InProcessBackend::new()) as Arc<dyn ExecBackend>,
        Arc::new(ProcessBackend::new(2)),
    ] {
        let got = digests(&workloads, &backend);
        if got != expected {
            let header: String = GOLDEN
                .lines()
                .take_while(|line| line.starts_with('#'))
                .map(|line| format!("{line}\n"))
                .collect();
            panic!(
                "the {} backend's digests differ from tests/golden_digests.txt; \
                 this build computes the file as:\n{header}{got}",
                backend.name()
            );
        }
        if backend.name() == "process" {
            assert!(backend.shard_stats().tasks_dispatched > 0);
        }
    }
}
