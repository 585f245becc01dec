//! The MCDB baseline: naive Monte Carlo over tuple bundles.
//!
//! MCDB (Jampani et al., SIGMOD 2008) estimates features of a query-result
//! distribution by executing the query over `n` pseudorandomly generated
//! database instances — materialized cheaply through tuple bundles — and
//! treating the `n` query answers as i.i.d. samples.  MCDB-R keeps this
//! machinery for everything *except* tail exploration, and the paper's
//! headline comparison (Appendix D: ~18 hours of naive MCDB vs ~11 minutes of
//! MCDB-R for 100 samples beyond the 0.999-quantile) is against exactly this
//! baseline.
//!
//! This crate provides:
//!
//! * [`result`] — [`result::ResultDistribution`]: moments, quantiles with
//!   probabilistic (CLT / order-statistic) error bounds, frequency tables and
//!   empirical CDFs computed from Monte Carlo samples, plus conditioning on a
//!   `DOMAIN` restriction (paper §2).
//! * [`engine`] — [`engine::McdbEngine`] / [`engine::MonteCarloQuery`]: run an
//!   aggregation query plan for `n` Monte Carlo repetitions over bundles and
//!   return per-group samples.  The engine also supports the *naive tail
//!   sampling* strategy (keep generating repetitions until `l` of them land in
//!   the tail) so the Appendix D timing comparison can be measured rather
//!   than asserted.
//! * [`naive_cost`] — the closed-form cost model behind the introduction's
//!   motivating numbers (≈3.5 million repetitions per tail hit at μ+5σ,
//!   ≈130 billion repetitions to estimate the tail area to ±1%, ≈10 million
//!   to locate the 0.999-quantile).

#![warn(missing_docs)]

pub mod engine;
pub mod naive_cost;
pub mod result;

pub use engine::{McdbEngine, MonteCarloQuery, NaiveTailReport};
pub use naive_cost::NaiveCostModel;
pub use result::ResultDistribution;
