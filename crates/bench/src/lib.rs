//! Shared harness code for the MCDB-R experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! experiment (see `DESIGN.md` §3, "Experiment index").  The binaries under
//! `src/bin/` regenerate them; this library holds the pieces they share.
//! Timing lives in the standalone `perf_ledger` benchmark, not here.

use mcdbr_core::{GibbsLooper, TailSampleResult, TailSamplingConfig};
use mcdbr_mcdb::MonteCarloQuery;
use mcdbr_storage::{Catalog, Result};

/// The Appendix D looper parameterization (`m = 5`, `p^{1/m} = 0.25`,
/// `l = 100`) for a given budget `N` and master seed.
pub fn appendix_d_config(total_samples: usize, master_seed: u64) -> TailSamplingConfig {
    TailSamplingConfig::new(0.25f64.powi(5), 100, total_samples)
        .with_m(5)
        .with_block_size(1000)
        .with_master_seed(master_seed)
}

/// Run one MCDB-R tail-sampling pass over a workload.
pub fn run_tail_sampling(
    query: &MonteCarloQuery,
    catalog: &Catalog,
    config: TailSamplingConfig,
) -> Result<TailSampleResult> {
    GibbsLooper::new(query.clone(), config).run(catalog)
}

/// Format a table row of `columns` with a fixed width, for the experiment
/// binaries' stdout reports.
pub fn row(columns: &[String]) -> String {
    columns
        .iter()
        .map(|c| format!("{c:>18}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_workloads::{TpchConfig, TpchWorkload};

    #[test]
    fn appendix_d_config_matches_the_paper() {
        let config = appendix_d_config(500, 1);
        let params = config.staged();
        assert_eq!(params.m, 5);
        assert!((params.p_per_step - 0.25).abs() < 1e-12);
        assert_eq!(config.l, 100);
    }

    #[test]
    fn tail_sampling_runs_on_the_test_workload() {
        let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
        let config = TailSamplingConfig::new(0.05, 10, 100)
            .with_m(2)
            .with_block_size(200)
            .with_master_seed(3);
        let result = run_tail_sampling(&w.total_loss_query(), &w.catalog, config).unwrap();
        assert_eq!(result.tail_samples.len(), 10);
        // The tail must lie above the workload's analytic mean.
        assert!(result.quantile_estimate > w.oracle.mean);
    }

    #[test]
    fn row_formatting_is_fixed_width() {
        let r = row(&["a".into(), "bb".into()]);
        assert!(r.contains("a") && r.contains("bb"));
        assert!(r.len() >= 36);
    }
}
