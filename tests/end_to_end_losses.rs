//! Cross-crate integration test: the §2 customer-loss query end to end —
//! parse the query text, run plain MCDB, run MCDB-R tail sampling, and check
//! the two agree with each other and with the analytic answer.

use mcdbr::core::{GibbsLooper, TailSamplingConfig};
use mcdbr::mcdb::{McdbEngine, MonteCarloQuery};
use mcdbr::query::parse_risk_query;
use mcdbr::risk::TailSummary;
use mcdbr::server::demo::{demo_catalog, demo_query};
use mcdbr::storage::Error;
use mcdbr::vg::math::std_normal_quantile;
use mcdbr::workloads::{customer_losses_catalog, customer_losses_query};

#[test]
fn a_split_over_a_random_attribute_fits_the_block_budget_or_is_refused() {
    // `Split(val)` over the demo query's 250 Normal streams makes one variant
    // per bundle and repetition, each with a presence flag per repetition:
    // 250 × reps² cells, past the budget at 2 048 repetitions.
    let catalog = demo_catalog().unwrap();
    let query = demo_query();
    let split = MonteCarloQuery {
        plan: query.plan.clone().split("val"),
        ..query.clone()
    };
    let err = McdbEngine::new()
        .run_samples(&split, &catalog, 2_048, 9)
        .unwrap_err();
    assert!(matches!(err, Error::Invalid(_)), "{err}");
    assert!(err.to_string().contains("budget"), "{err}");
    // Inside the budget each repetition keeps one variant of every bundle,
    // in bundle order, so the sum is the unsplit query's, bit for bit.
    let bits = |q: &MonteCarloQuery| -> Vec<u64> {
        let samples = McdbEngine::new().run_samples(q, &catalog, 512, 9).unwrap();
        samples
            .single()
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    assert_eq!(bits(&split), bits(&query));
}

#[test]
fn section2_query_from_text_to_tail_samples() {
    let catalog = customer_losses_catalog(200, (2.0, 4.0), 13).unwrap();
    let query = customer_losses_query(None);
    let spec = parse_risk_query(
        "SELECT SUM(val) AS totalLoss FROM Losses \
         WITH RESULTDISTRIBUTION MONTECARLO(60) \
         DOMAIN totalLoss >= QUANTILE(0.95)",
    )
    .unwrap();
    let p = spec.domain.as_ref().unwrap().tail_probability();

    // Analytic truth: the sum of 200 Normal(m_i, 1) is Normal(Σ m_i, 200).
    let means = catalog.get("means").unwrap().column_f64("m").unwrap();
    let mu: f64 = means.iter().sum();
    let sd = (200f64).sqrt();
    let true_quantile = mu + sd * std_normal_quantile(1.0 - p);

    // MCDB body estimate.
    let mut engine = McdbEngine::new();
    let dist = engine.run(&query, &catalog, 800, 3).unwrap().remove(0).1;
    assert!((dist.mean() - mu).abs() < 4.0 * sd / (800f64).sqrt() + 1.0);

    // MCDB-R tail estimate.
    let config = TailSamplingConfig::new(p, spec.monte_carlo_samples, 400).with_master_seed(3);
    let tail = GibbsLooper::new(query, config).run(&catalog).unwrap();
    assert_eq!(tail.tail_samples.len(), 60);
    let summary = TailSummary::from_tail_samples(&tail.tail_samples).unwrap();
    // The tail-sampling quantile estimate should be within a few standard
    // errors of the analytic quantile.
    assert!(
        (tail.quantile_estimate - true_quantile).abs() < 0.15 * sd + 3.0,
        "estimate {} vs analytic {true_quantile}",
        tail.quantile_estimate
    );
    // Expected shortfall lies above the VaR.
    assert!(summary.expected_shortfall >= summary.value_at_risk);
    // And the MCDB empirical 0.95-quantile roughly agrees as well.
    let naive_quantile = dist.quantile(0.95).unwrap();
    assert!((naive_quantile - tail.quantile_estimate).abs() < 0.25 * sd + 3.0);
}
