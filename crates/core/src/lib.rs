//! MCDB-R's contribution: tail sampling in the database.
//!
//! This crate implements everything the paper adds on top of MCDB:
//!
//! * [`params`] — the Appendix C theory: the mean-squared relative error
//!   (MSRE) of the staged quantile estimator, the `g_m` / `h_c` functions,
//!   Theorem 1's optimal choice of the number of bootstrapping steps `m*`
//!   (with `n_i = N/m` and `p_i = p^{1/m}`), and the `w(N)` curve used to
//!   pick the total sample budget `N` for a target MSRE.
//! * [`gibbs`] — Algorithms 1 and 2: the systematic Gibbs sampler for a
//!   vector of independent components conditioned on `Q(X) ≥ c`, with the
//!   rejection-based conditional generator and acceptance accounting (used
//!   directly by the Appendix B applicability experiments).
//! * [`cloner`] — Algorithm 3 in its statistical (non-database) form: purge
//!   the non-elite particles, clone the elites, re-establish independence via
//!   Gibbs updates.  This is the reference implementation that the
//!   database-level Gibbs Looper is validated against.
//! * [`ts_seed`] — TS-seeds (paper §6): the PRNG seed plus the bookkeeping
//!   that maps each DB version to its currently assigned stream position
//!   and records the highest position ever used by the rejection sampler.
//! * [`looper`] — the `GibbsLooper` operator (paper §7 and Appendix A): runs
//!   an aggregation-query plan once over Gibbs tuples, then performs the
//!   bootstrapped purge/clone/perturb iterations seed-major (amortizing data
//!   access exactly as the paper's disk-based priority queue does), pulling
//!   up multi-stream selection predicates, drawing one stream's values by
//!   position past the initial block instead of re-running the plan (§9),
//!   and finally emitting `l` samples from the tail together with the
//!   extreme-quantile estimate.

#![warn(missing_docs)]

pub mod cloner;
pub mod gibbs;
pub mod looper;
pub mod params;
pub mod ts_seed;

pub use cloner::{ScalarCloner, ScalarClonerReport};
pub use gibbs::{GibbsStats, IndependentSumModel};
pub use looper::{GibbsLooper, TailSampleResult, TailSamplingConfig};
pub use params::{optimal_m, staged_parameters, StagedParameters};
pub use ts_seed::TsSeed;
