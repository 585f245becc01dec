//! The Appendix D TPC-H-like workload.
//!
//! The paper's benchmark query is
//!
//! ```sql
//! SELECT SUM(val) AS totalLoss
//! FROM random_ord, lineitem
//! WHERE o_orderkey = l_orderkey AND (o_yr = '1994' OR o_yr = '1995')
//! ```
//!
//! where `random_ord` attaches a `Normal(o_mean, o_var)` loss to each order.
//! The accuracy experiment (Figure 5) modifies the generator: 100 000 orders
//! whose means and variances are themselves drawn from inverse-gamma
//! distributions (shape 3, scale 1 and shape 3, scale 0.5), and one million
//! lineitem rows that join some order with a *linearly decaying* probability
//! across order keys — order `i` is chosen with probability
//! `2·(10⁻⁵ − 10⁻¹⁰) · (1 − i/(10⁵−1)) + 10⁻¹⁰` (so early orders get roughly
//! twice the average fanout and the last order almost none).
//!
//! [`TpchWorkload`] reproduces exactly that structure at configurable scale
//! and, because the per-order join fanout is known at generation time, also
//! carries the [`NormalSumOracle`] giving the true query-result distribution
//! used to draw Figure 5's analytic curves.

use std::sync::Arc;

use mcdbr_exec::plan::{OutputColumn, RandomTableSpec};
use mcdbr_exec::{AggregateSpec, Expr, PlanNode};
use mcdbr_mcdb::MonteCarloQuery;
use mcdbr_prng::Pcg64;
use mcdbr_risk::NormalSumOracle;
use mcdbr_storage::{Catalog, Field, Result, Schema, TableBuilder, Value};
use mcdbr_vg::{Distribution, NormalVg};

/// Configuration of the TPC-H-like generator.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Number of orders (the paper uses 100 000).
    pub num_orders: usize,
    /// Number of lineitem rows that join some order (the paper uses 1 000 000).
    pub num_lineitems: usize,
    /// Shape/scale of the inverse-gamma prior on per-order means (paper: 3, 1).
    pub mean_prior: (f64, f64),
    /// Shape/scale of the inverse-gamma prior on per-order variances (paper: 3, 0.5).
    pub var_prior: (f64, f64),
    /// Master seed for data generation.
    pub seed: u64,
}

impl TpchConfig {
    /// The paper's full-scale configuration (Appendix D accuracy experiment).
    pub fn paper_scale() -> Self {
        TpchConfig {
            num_orders: 100_000,
            num_lineitems: 1_000_000,
            mean_prior: (3.0, 1.0),
            var_prior: (3.0, 0.5),
            seed: 0x7c9,
        }
    }

    /// A laptop-scale configuration preserving the same structure (the ratio
    /// of lineitems to orders, the skewed fanout, and the hyper-priors).
    pub fn laptop_scale() -> Self {
        TpchConfig {
            num_orders: 2_000,
            num_lineitems: 20_000,
            mean_prior: (3.0, 1.0),
            var_prior: (3.0, 0.5),
            seed: 0x7c9,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn test_scale() -> Self {
        TpchConfig {
            num_orders: 100,
            num_lineitems: 800,
            mean_prior: (3.0, 1.0),
            var_prior: (3.0, 0.5),
            seed: 0x7c9,
        }
    }
}

/// The generated workload: catalog, per-order join fanouts, and the analytic
/// oracle for the query-result distribution.
#[derive(Debug, Clone)]
pub struct TpchWorkload {
    /// Catalog containing `orders(o_orderkey, o_mean, o_var)` and
    /// `lineitem(l_orderkey)`.
    pub catalog: Catalog,
    /// Join fanout of each order (how many lineitem rows reference it).
    pub fanouts: Vec<u64>,
    /// The analytic query-result distribution (paper's validation query).
    pub oracle: NormalSumOracle,
    /// The configuration used.
    pub config: TpchConfig,
}

impl TpchWorkload {
    /// Generate the workload.
    pub fn generate(config: TpchConfig) -> Result<Self> {
        assert!(config.num_orders >= 2, "need at least two orders");
        let mut gen = Pcg64::new(config.seed);
        let mean_prior = Distribution::InverseGamma {
            shape: config.mean_prior.0,
            scale: config.mean_prior.1,
        };
        let var_prior = Distribution::InverseGamma {
            shape: config.var_prior.0,
            scale: config.var_prior.1,
        };

        // orders(o_orderkey, o_mean, o_var): hyper-priors on the per-order
        // normal parameters.
        let mut means = Vec::with_capacity(config.num_orders);
        let mut vars = Vec::with_capacity(config.num_orders);
        let mut orders = TableBuilder::new(Schema::new(vec![
            Field::int64("o_orderkey"),
            Field::float64("o_mean"),
            Field::float64("o_var"),
        ]));
        for key in 0..config.num_orders {
            let m = mean_prior.sample(&mut gen);
            let v = var_prior.sample(&mut gen);
            means.push(m);
            vars.push(v);
            orders = orders.row([
                Value::Int64(key as i64),
                Value::Float64(m),
                Value::Float64(v),
            ]);
        }

        // lineitem(l_orderkey): each row picks an order with a linearly
        // decaying probability across order keys (the paper's skew).
        let n = config.num_orders as f64;
        let weights: Vec<f64> = (0..config.num_orders).map(|i| n - i as f64).collect();
        let total_weight: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(config.num_orders);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total_weight;
            cumulative.push(acc);
        }
        let mut fanouts = vec![0u64; config.num_orders];
        let mut lineitem = TableBuilder::new(Schema::new(vec![Field::int64("l_orderkey")]));
        for _ in 0..config.num_lineitems {
            let u = gen.next_f64();
            let key = cumulative
                .partition_point(|&c| c < u)
                .min(config.num_orders - 1);
            fanouts[key] += 1;
            lineitem = lineitem.row([Value::Int64(key as i64)]);
        }

        // The analytic oracle, exactly as the paper computes it:
        // mean = Σ g_i μ_i, variance = Σ g_i² σ_i².
        let groups: Vec<(u64, f64, f64)> = fanouts
            .iter()
            .zip(&means)
            .zip(&vars)
            .map(|((&g, &m), &v)| (g, m, v))
            .collect();
        let oracle = NormalSumOracle::from_join_groups(&groups)?;

        let mut catalog = Catalog::new();
        catalog.register("orders", orders.build()?)?;
        catalog.register("lineitem", lineitem.build()?)?;
        Ok(TpchWorkload {
            catalog,
            fanouts,
            oracle,
            config,
        })
    }

    /// The uncertain-table specification for `random_ord`: one
    /// `Normal(o_mean, o_var)` loss per order.
    pub fn random_ord_spec(&self) -> RandomTableSpec {
        RandomTableSpec {
            name: "random_ord".into(),
            param_table: "orders".into(),
            vg: Arc::new(NormalVg),
            vg_params: vec![Expr::col("o_mean"), Expr::col("o_var")],
            columns: vec![
                OutputColumn::Param {
                    source: "o_orderkey".into(),
                    as_name: "o_orderkey".into(),
                },
                OutputColumn::Vg {
                    vg_col: 0,
                    as_name: "val".into(),
                },
            ],
            table_tag: 10,
        }
    }

    /// The Appendix D benchmark query:
    /// `SELECT SUM(val) FROM random_ord ⋈ lineitem ON o_orderkey = l_orderkey`.
    pub fn total_loss_query(&self) -> MonteCarloQuery {
        let plan = PlanNode::random_table(self.random_ord_spec()).join(
            PlanNode::scan("lineitem"),
            vec![("o_orderkey", "l_orderkey")],
        );
        MonteCarloQuery::new(plan, AggregateSpec::sum(Expr::col("val"), "totalLoss"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_mcdb::McdbEngine;

    #[test]
    fn generation_matches_the_configured_sizes() {
        let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
        assert_eq!(w.catalog.get("orders").unwrap().len(), 100);
        assert_eq!(w.catalog.get("lineitem").unwrap().len(), 800);
        assert_eq!(w.fanouts.iter().sum::<u64>(), 800);
        assert_eq!(w.fanouts.len(), 100);
    }

    #[test]
    fn fanout_skew_decays_across_order_keys() {
        let mut config = TpchConfig::test_scale();
        config.num_orders = 200;
        config.num_lineitems = 40_000;
        let w = TpchWorkload::generate(config).unwrap();
        // The first decile of orders should receive roughly twice the traffic
        // of the last decile (linear decay from 2x average to ~0).
        let first: u64 = w.fanouts[..20].iter().sum();
        let last: u64 = w.fanouts[180..].iter().sum();
        assert!(
            first > 5 * last.max(1),
            "fanout should be heavily skewed: first decile {first}, last decile {last}"
        );
    }

    #[test]
    fn hyper_prior_means_match_appendix_d() {
        let mut config = TpchConfig::test_scale();
        config.num_orders = 4_000;
        config.num_lineitems = 4_000;
        let w = TpchWorkload::generate(config).unwrap();
        let means = w
            .catalog
            .get("orders")
            .unwrap()
            .column_f64("o_mean")
            .unwrap();
        let vars = w
            .catalog
            .get("orders")
            .unwrap()
            .column_f64("o_var")
            .unwrap();
        let avg_mean: f64 = means.iter().sum::<f64>() / means.len() as f64;
        let avg_var: f64 = vars.iter().sum::<f64>() / vars.len() as f64;
        // InverseGamma(3,1) has mean 0.5; InverseGamma(3,0.5) has mean 0.25.
        assert!((avg_mean - 0.5).abs() < 0.05, "avg mean = {avg_mean}");
        assert!((avg_var - 0.25).abs() < 0.03, "avg var = {avg_var}");
        assert!(means.iter().all(|&m| m > 0.0));
        assert!(vars.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn oracle_matches_monte_carlo_on_a_small_instance() {
        let w = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
        let mut engine = McdbEngine::new();
        let results = engine
            .run(&w.total_loss_query(), &w.catalog, 400, 5)
            .unwrap();
        let dist = &results[0].1;
        // The Monte Carlo mean and sd must agree with the analytic oracle.
        assert!(
            (dist.mean() - w.oracle.mean).abs() < 4.0 * w.oracle.sd() / (400f64).sqrt() + 1e-9,
            "MC mean {} vs oracle {}",
            dist.mean(),
            w.oracle.mean
        );
        assert!(
            (dist.std_dev() - w.oracle.sd()).abs() < 0.15 * w.oracle.sd(),
            "MC sd {} vs oracle {}",
            dist.std_dev(),
            w.oracle.sd()
        );
    }

    #[test]
    fn generation_is_reproducible() {
        let a = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
        let b = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
        assert_eq!(a.fanouts, b.fanouts);
        assert_eq!(a.oracle.mean, b.oracle.mean);
    }
}
