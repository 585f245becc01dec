//! The naive-MCDB query engine.
//!
//! [`McdbEngine`] runs a [`MonteCarloQuery`] — a plan, an aggregate, an
//! optional final selection predicate and optional grouping — for `n` Monte
//! Carlo repetitions using the tuple-bundle executor, and summarizes the
//! per-repetition results.  It also implements the *naive tail sampling*
//! strategy that MCDB-R is compared against in Appendix D: keep generating
//! batches of repetitions until `l` of them fall beyond a target quantile.

use std::sync::Arc;

use mcdbr_exec::{
    AggregateSpec, BlockBufferPool, ExecBackend, ExecSession, Expr, InProcessBackend, PlanNode,
    QueryResultSamples, SessionCache, ShardStats,
};
use mcdbr_storage::{Catalog, Result, Value};

use crate::result::ResultDistribution;

/// A Monte Carlo aggregation query: the plan-level form of the §2 query
/// surface (`SELECT agg(...) FROM ... WHERE ... GROUP BY ... WITH
/// RESULTDISTRIBUTION MONTECARLO(n)`).
#[derive(Debug, Clone)]
pub struct MonteCarloQuery {
    /// The plan producing the tuples to aggregate.
    pub plan: PlanNode,
    /// The aggregate to compute.
    pub aggregate: AggregateSpec,
    /// Optional final selection predicate (applied per repetition before
    /// aggregation; this is where predicates over multi-stream random
    /// attributes live).
    pub final_predicate: Option<Expr>,
    /// Grouping columns (must be deterministic).
    pub group_by: Vec<String>,
}

impl MonteCarloQuery {
    /// An ungrouped query with no final predicate.
    pub fn new(plan: PlanNode, aggregate: AggregateSpec) -> Self {
        MonteCarloQuery {
            plan,
            aggregate,
            final_predicate: None,
            group_by: Vec::new(),
        }
    }

    /// Attach a final selection predicate.
    pub fn with_final_predicate(mut self, predicate: Expr) -> Self {
        self.final_predicate = Some(predicate);
        self
    }

    /// Attach grouping columns.
    pub fn with_group_by(mut self, columns: Vec<String>) -> Self {
        self.group_by = columns;
        self
    }

    /// This query's samples over positions `base_pos .. base_pos + n` of
    /// `session`'s plan: one [`ExecSession::sample_block`] call.
    fn sample(
        &self,
        session: &mut ExecSession,
        catalog: &Catalog,
        base_pos: u64,
        n: usize,
    ) -> Result<QueryResultSamples> {
        let pred = self.final_predicate.as_ref();
        session.sample_block(catalog, base_pos, n, &self.aggregate, &self.group_by, pred)
    }
}

/// Report from a naive tail-sampling run (the MCDB baseline for the
/// Appendix D comparison).
#[derive(Debug, Clone)]
pub struct NaiveTailReport {
    /// The quantile estimate used to define the tail.
    pub quantile_estimate: f64,
    /// Samples that landed in the tail.
    pub tail_samples: Vec<f64>,
    /// Total Monte Carlo repetitions generated.
    pub repetitions: usize,
    /// Number of times deterministic plan work ran.  The whole tail hunt
    /// shares one execution session, so for cacheable plans this is at most
    /// 1 — and 0 when the engine's session cache already held the plan's
    /// skeleton.
    pub plan_executions: usize,
    /// Number of repetition blocks materialized (calibration + batches).
    pub blocks_materialized: usize,
    /// Whether the hunt's session skipped phase 1 because the engine's
    /// [`SessionCache`] already held the plan's skeleton.
    pub skeleton_hit: bool,
    /// Logical bytes written into pooled columnar block buffers during the
    /// hunt (calibration + batches).
    pub bytes_materialized: u64,
    /// Columnar buffer acquisitions the hunt served by reusing a block shell
    /// from its session's pool instead of allocating — every batch past
    /// calibration reuses them.
    pub buffer_reuses: u64,
    /// The hunt's window of the engine's execution backend's counters:
    /// shard tasks, worker-process dispatch and its failures — all zero
    /// where the backend has nothing to report.
    pub backend: ShardStats,
}

/// The naive-MCDB engine.
///
/// Every entry point runs through a two-phase [`ExecSession`] obtained from
/// the engine's plan-keyed [`SessionCache`]: deterministic plan work (scans,
/// joins, constant predicates) happens once per *distinct* `(plan, catalog)`
/// pair, not once per query — a repeated query under a fresh master seed
/// skips phase 1 entirely and only re-derives stream seeds.  Repetitions are
/// blocks of stream positions against the cached prefix, each sampled by
/// one [`ExecSession::sample_block`] call on the engine's pluggable
/// [`ExecBackend`] ([`McdbEngine::with_backend`]) — in-process threads by
/// default, shard-partitioned when asked — with bit-identical results
/// either way.  The engine accumulates all counters
/// across sessions so the experiment binaries can report the cost structure
/// directly.
#[derive(Debug)]
pub struct McdbEngine {
    cache: SessionCache,
    backend: Arc<dyn ExecBackend>,
    /// One buffer pool shared by every session this engine creates, so a
    /// repeated query reuses the previous query's block shells
    /// (sessions report windowed counters, so per-query attribution stays
    /// correct).
    pool: Arc<BlockBufferPool>,
    /// The backend's cumulative stats when this engine adopted it.  A
    /// backend passed to `with_backend` may already have run other work, so
    /// engine-level counters report activity *since adoption* — this
    /// engine's own work.
    backend_baseline: ShardStats,
    plans_executed: usize,
    blocks_materialized: usize,
    bytes_materialized: u64,
    buffer_reuses: u64,
}

impl Default for McdbEngine {
    fn default() -> Self {
        let backend: Arc<dyn ExecBackend> = Arc::new(InProcessBackend::new());
        let backend_baseline = backend.shard_stats();
        McdbEngine {
            cache: SessionCache::new(),
            backend,
            pool: Arc::new(BlockBufferPool::new()),
            backend_baseline,
            plans_executed: 0,
            blocks_materialized: 0,
            bytes_materialized: 0,
            buffer_reuses: 0,
        }
    }
}

impl McdbEngine {
    /// Create a new engine with an empty session cache, running on the
    /// in-process backend ([`McdbEngine::with_backend`] picks another).
    pub fn new() -> Self {
        McdbEngine::default()
    }

    /// Run every entry point — [`McdbEngine::run`],
    /// [`McdbEngine::run_samples`], [`McdbEngine::naive_tail_sample`] — on
    /// an explicit execution backend.  Results are bit-identical for every
    /// backend and shard count; only the shard counters differ.
    pub fn with_backend(mut self, backend: Arc<dyn ExecBackend>) -> Self {
        self.backend_baseline = backend.shard_stats();
        self.backend = backend;
        self
    }

    /// The execution backend block materialization and aggregation run on.
    pub fn backend(&self) -> &Arc<dyn ExecBackend> {
        &self.backend
    }

    /// This engine's window of its backend's counters: activity since the
    /// engine adopted the backend, so a shared backend's earlier work is not
    /// misattributed here.  (Concurrent users of a
    /// deliberately shared backend still blur the window; see the
    /// [`ShardStats`] caveat.)
    pub fn backend_stats(&self) -> ShardStats {
        self.backend.shard_stats().since(self.backend_baseline)
    }

    /// Total plan executions performed through this engine.  With the
    /// session cache this stays flat across repeated queries: only the first
    /// session per `(plan, catalog)` pair pays the skeleton pass.
    pub fn plans_executed(&self) -> usize {
        self.plans_executed
    }

    /// Total repetition blocks materialized through this engine.
    pub fn blocks_materialized(&self) -> usize {
        self.blocks_materialized
    }

    /// Total logical bytes written into pooled columnar block buffers
    /// through this engine's sessions.
    pub fn bytes_materialized(&self) -> u64 {
        self.bytes_materialized
    }

    /// Total columnar buffer acquisitions served by reusing a block shell
    /// from a session pool instead of allocating.
    pub fn buffer_reuses(&self) -> u64 {
        self.buffer_reuses
    }

    /// Number of sessions that skipped phase 1 because the plan's skeleton
    /// was already cached.
    pub fn skeleton_hits(&self) -> usize {
        self.cache.skeleton_hits()
    }

    /// Number of sessions that had to run the deterministic skeleton pass.
    pub fn skeleton_misses(&self) -> usize {
        self.cache.skeleton_misses()
    }

    /// The engine's plan-keyed session cache.
    pub fn cache(&self) -> &SessionCache {
        &self.cache
    }

    fn absorb(&mut self, session: &ExecSession) {
        self.plans_executed += session.plan_executions();
        self.blocks_materialized += session.blocks_materialized();
        self.bytes_materialized += session.bytes_materialized();
        self.buffer_reuses += session.buffer_reuses();
    }

    /// Run `query` for `n` Monte Carlo repetitions, returning the raw
    /// per-group, per-repetition samples.
    pub fn run_samples(
        &mut self,
        query: &MonteCarloQuery,
        catalog: &Catalog,
        n: usize,
        master_seed: u64,
    ) -> Result<QueryResultSamples> {
        let mut session = self
            .cache
            .session(&query.plan, catalog, master_seed)?
            .with_backend(Arc::clone(&self.backend))
            .with_pool(Arc::clone(&self.pool));
        let samples = query.sample(&mut session, catalog, 0, n);
        self.absorb(&session);
        samples
    }

    /// Run `query` for `n` repetitions and summarize each group's result
    /// distribution.
    pub fn run(
        &mut self,
        query: &MonteCarloQuery,
        catalog: &Catalog,
        n: usize,
        master_seed: u64,
    ) -> Result<Vec<(Vec<Value>, ResultDistribution)>> {
        let samples = self.run_samples(query, catalog, n, master_seed)?;
        Ok(samples
            .groups
            .into_iter()
            .map(|(key, xs)| (key, ResultDistribution::from_samples(&xs)))
            .collect())
    }

    /// Naive tail sampling (the Appendix D baseline): generate repetitions in
    /// batches of `batch` until `l` samples exceed the `(1-p)`-quantile.
    ///
    /// The quantile itself is estimated from an initial calibration block of
    /// `calibration_reps` repetitions (naive MCDB has no other way to locate
    /// the tail), then batches continue until enough tail samples are
    /// collected.  The whole hunt shares one [`ExecSession`]: batch `i`
    /// materializes stream positions `calibration_reps + i·batch ..` against
    /// the cached prefix, so even the naive strategy pays for scans and joins
    /// only once — the remaining (huge) cost Appendix D charges it is the
    /// `l / p` repetitions it must generate and aggregate.  `max_repetitions`
    /// bounds the total work so tests and benchmarks terminate (the last
    /// batch is clipped to it, so `repetitions` never exceeds it unless the
    /// calibration block alone does); hitting the bound is reported, not an
    /// error.
    #[allow(clippy::too_many_arguments)]
    pub fn naive_tail_sample(
        &mut self,
        query: &MonteCarloQuery,
        catalog: &Catalog,
        p: f64,
        l: usize,
        calibration_reps: usize,
        batch: usize,
        max_repetitions: usize,
        master_seed: u64,
    ) -> Result<NaiveTailReport> {
        let backend_stats_before = self.backend.shard_stats();
        let mut session = self
            .cache
            .session(&query.plan, catalog, master_seed)?
            .with_backend(Arc::clone(&self.backend))
            .with_pool(Arc::clone(&self.pool));
        // Absorb the session's counters whether the hunt succeeds or errors
        // mid-way: plan work that ran is plan work the engine must report.
        let hunt = Self::tail_hunt(
            &mut session,
            query,
            catalog,
            p,
            l,
            calibration_reps,
            batch,
            max_repetitions,
        );
        self.absorb(&session);
        let (quantile_estimate, tail_samples, repetitions) = hunt?;
        Ok(NaiveTailReport {
            quantile_estimate,
            tail_samples,
            repetitions,
            plan_executions: session.plan_executions(),
            blocks_materialized: session.blocks_materialized(),
            skeleton_hit: session.skeleton_hit(),
            bytes_materialized: session.bytes_materialized(),
            buffer_reuses: session.buffer_reuses(),
            backend: self.backend.shard_stats().since(backend_stats_before),
        })
    }

    /// The fallible body of [`McdbEngine::naive_tail_sample`], split out so
    /// counter absorption can happen regardless of where an error surfaces.
    #[allow(clippy::too_many_arguments)]
    fn tail_hunt(
        session: &mut ExecSession,
        query: &MonteCarloQuery,
        catalog: &Catalog,
        p: f64,
        l: usize,
        calibration_reps: usize,
        batch: usize,
        max_repetitions: usize,
    ) -> Result<(f64, Vec<f64>, usize)> {
        // Step 1: estimate the (1-p)-quantile from a calibration block.
        let calib = query.sample(session, catalog, 0, calibration_reps)?;
        let calib_dist = ResultDistribution::from_samples(calib.single()?);
        let quantile_estimate = calib_dist.quantile(1.0 - p)?;

        // Step 2: keep materializing batches (fresh stream positions) until
        // l tail samples are found.
        let mut tail_samples: Vec<f64> = calib_dist
            .samples()
            .iter()
            .copied()
            .filter(|&x| x >= quantile_estimate)
            .collect();
        let mut repetitions = calibration_reps;
        let mut next_pos = calibration_reps as u64;
        while tail_samples.len() < l && repetitions < max_repetitions {
            // The last batch stops at the cap.
            let reps = batch.min(max_repetitions - repetitions);
            let samples = query.sample(session, catalog, next_pos, reps)?;
            next_pos += reps as u64;
            repetitions += reps;
            tail_samples.extend(
                samples
                    .single()?
                    .iter()
                    .copied()
                    .filter(|&x| x >= quantile_estimate),
            );
        }
        tail_samples.truncate(l);
        Ok((quantile_estimate, tail_samples, repetitions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_exec::plan::scalar_random_table;
    use mcdbr_storage::{Field, Schema, TableBuilder};
    use mcdbr_vg::NormalVg;
    use std::sync::Arc;

    /// Catalog with a `means` parameter table of 20 customers, mean loss i.
    fn catalog(n_customers: usize) -> Catalog {
        let mut b = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]));
        for i in 0..n_customers {
            b = b.row([Value::Int64(i as i64), Value::Float64(i as f64)]);
        }
        let mut catalog = Catalog::new();
        catalog.register("means", b.build().unwrap()).unwrap();
        catalog
    }

    fn losses_query() -> MonteCarloQuery {
        let plan = PlanNode::random_table(scalar_random_table(
            "Losses",
            "means",
            Arc::new(NormalVg),
            vec![Expr::col("m"), Expr::lit(1.0)],
            &["cid"],
            "val",
            1,
        ));
        MonteCarloQuery::new(plan, AggregateSpec::sum(Expr::col("val"), "totalLoss"))
    }

    #[test]
    fn sum_query_distribution_matches_theory() {
        // SUM of 20 independent Normal(i, 1) is Normal(190, 20).
        let catalog = catalog(20);
        let mut engine = McdbEngine::new();
        let results = engine.run(&losses_query(), &catalog, 2000, 42).unwrap();
        assert_eq!(results.len(), 1);
        let dist = &results[0].1;
        assert_eq!(dist.len(), 2000);
        assert!((dist.mean() - 190.0).abs() < 0.5, "mean = {}", dist.mean());
        assert!(
            (dist.variance() - 20.0).abs() < 2.5,
            "var = {}",
            dist.variance()
        );
    }

    #[test]
    fn results_are_reproducible_per_seed() {
        let catalog = catalog(5);
        let mut engine = McdbEngine::new();
        let a = engine
            .run_samples(&losses_query(), &catalog, 50, 7)
            .unwrap();
        let b = engine
            .run_samples(&losses_query(), &catalog, 50, 7)
            .unwrap();
        let c = engine
            .run_samples(&losses_query(), &catalog, 50, 8)
            .unwrap();
        assert_eq!(a.single().unwrap(), b.single().unwrap());
        assert_ne!(a.single().unwrap(), c.single().unwrap());
        // The session cache means the deterministic skeleton ran once for
        // all three queries — including the one under a fresh master seed.
        assert_eq!(engine.plans_executed(), 1);
        assert_eq!(engine.skeleton_misses(), 1);
        assert_eq!(engine.skeleton_hits(), 2);
        // The engine-level buffer pool means the second and third queries
        // recycled the first query's warm buffers (5 streams each).
        assert_eq!(engine.backend().name(), "in-process");
        assert!(engine.buffer_reuses() >= 10);
    }

    #[test]
    fn where_clause_restricts_the_sum() {
        // §2 query: WHERE CID < 10010 — here, cid < 3 keeps means 0, 1, 2.
        let catalog = catalog(20);
        let mut engine = McdbEngine::new();
        let mut query = losses_query();
        query.plan = query.plan.filter(Expr::col("cid").lt(Expr::lit(3i64)));
        let results = engine.run(&query, &catalog, 1500, 11).unwrap();
        let dist = &results[0].1;
        assert!((dist.mean() - 3.0).abs() < 0.2, "mean = {}", dist.mean());
        assert!(
            (dist.variance() - 3.0).abs() < 0.4,
            "var = {}",
            dist.variance()
        );
    }

    #[test]
    fn final_predicate_changes_the_aggregand_set() {
        // Only count losses above 10: with means 0..20 and sd 1, roughly half
        // of the customers (those with mean > 10) contribute.
        let catalog = catalog(20);
        let mut engine = McdbEngine::new();
        let query = losses_query().with_final_predicate(Expr::col("val").gt(Expr::lit(10.0)));
        let results = engine.run(&query, &catalog, 500, 3).unwrap();
        let unrestricted = McdbEngine::new()
            .run(&losses_query(), &catalog, 500, 3)
            .unwrap();
        assert!(results[0].1.mean() < unrestricted[0].1.mean());
        assert!(results[0].1.mean() > 100.0, "most of the mass is above 10");
    }

    #[test]
    fn grouped_query_produces_one_distribution_per_group() {
        let mut catalog = catalog(6);
        // Attach a region table: customers 0-2 EU, 3-5 US.
        let regions = TableBuilder::new(Schema::new(vec![
            Field::int64("rcid"),
            Field::utf8("region"),
        ]))
        .row([Value::Int64(0), Value::str("EU")])
        .row([Value::Int64(1), Value::str("EU")])
        .row([Value::Int64(2), Value::str("EU")])
        .row([Value::Int64(3), Value::str("US")])
        .row([Value::Int64(4), Value::str("US")])
        .row([Value::Int64(5), Value::str("US")])
        .build()
        .unwrap();
        catalog.register("regions", regions).unwrap();
        let mut query = losses_query();
        query.plan = query
            .plan
            .join(PlanNode::scan("regions"), vec![("cid", "rcid")]);
        query.group_by = vec!["region".to_string()];
        let mut engine = McdbEngine::new();
        let results = engine.run(&query, &catalog, 1200, 19).unwrap();
        assert_eq!(results.len(), 2);
        let eu = results
            .iter()
            .find(|(k, _)| k[0] == Value::str("EU"))
            .unwrap();
        let us = results
            .iter()
            .find(|(k, _)| k[0] == Value::str("US"))
            .unwrap();
        assert!((eu.1.mean() - 3.0).abs() < 0.3, "EU mean = {}", eu.1.mean());
        assert!(
            (us.1.mean() - 12.0).abs() < 0.4,
            "US mean = {}",
            us.1.mean()
        );
    }

    #[test]
    fn naive_tail_sampling_is_expensive() {
        // With p = 0.05 and a modest workload, naive tail sampling needs on
        // the order of l / p repetitions beyond calibration.
        let catalog = catalog(10);
        let mut engine = McdbEngine::new();
        let report = engine
            .naive_tail_sample(&losses_query(), &catalog, 0.05, 25, 400, 200, 20_000, 123)
            .unwrap();
        assert!(
            report.tail_samples.len() >= 25,
            "found {}",
            report.tail_samples.len()
        );
        assert!(
            report.repetitions >= 25_usize.saturating_mul(10),
            "reps = {}",
            report.repetitions
        );
        // Even the naive strategy shares one session: many blocks, one
        // deterministic plan execution.
        assert!(report.blocks_materialized > 1);
        assert_eq!(report.plan_executions, 1);
        // Every batch past calibration recycles the session's columnar
        // buffers: 10 streams per block, reused per extra block.
        assert!(report.buffer_reuses >= (10 * (report.blocks_materialized - 1)) as u64);
        assert!(report.bytes_materialized >= (report.repetitions * 10 * 8) as u64);
        assert_eq!(engine.bytes_materialized(), report.bytes_materialized);
        assert_eq!(engine.buffer_reuses(), report.buffer_reuses);
        // Every reported tail sample really lies beyond the estimated quantile.
        assert!(report
            .tail_samples
            .iter()
            .all(|&x| x >= report.quantile_estimate));
    }

    #[test]
    fn naive_tail_sampling_respects_the_repetition_cap() {
        let catalog = catalog(10);
        let mut engine = McdbEngine::new();
        // Asking for many tail samples under a tiny cap stops at the cap.
        let report = engine
            .naive_tail_sample(&losses_query(), &catalog, 0.001, 1_000, 200, 100, 600, 9)
            .unwrap();
        assert_eq!(report.repetitions, 600);
        assert!(report.tail_samples.len() < 1_000);
    }

    #[test]
    fn naive_tail_sampling_clips_the_last_batch_to_the_cap() {
        let catalog = catalog(10);
        let mut engine = McdbEngine::new();
        // 200 calibration repetitions and four full batches leave 50 under
        // the cap: the fifth batch runs 50, not 100.
        let report = engine
            .naive_tail_sample(&losses_query(), &catalog, 0.001, 1_000, 200, 100, 650, 9)
            .unwrap();
        assert_eq!(report.repetitions, 650);
        assert_eq!(report.blocks_materialized, 6);
    }
}
