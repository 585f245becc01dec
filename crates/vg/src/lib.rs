//! Variable-generation (VG) functions and the distribution machinery behind
//! them.
//!
//! In MCDB / MCDB-R an uncertain table is *defined* by a VG function: a
//! pseudorandom procedure that, given a row of parameters (from an ordinary
//! "parameter table") and a source of randomness, produces one or more
//! correlated data values (paper §1, §2).  The engine never stores the
//! uncertain values; it stores the parameters and a PRNG seed, and calls the
//! VG function whenever an instantiation is needed.
//!
//! This crate provides:
//!
//! * [`math`] — special functions implemented from scratch (error function,
//!   normal CDF and quantile, log-gamma, regularized incomplete gamma), used
//!   both by the samplers and by the analytic oracles in `mcdbr-risk`.
//! * [`dist`] — scalar distribution samplers and densities (Normal, Uniform,
//!   Exponential, Lognormal, Pareto, Gamma, Inverse-Gamma, Poisson,
//!   Bernoulli, Discrete), all driven by the repository's own
//!   [`mcdbr_prng::Pcg64`] so stream semantics stay deterministic.
//! * [`function`] — the [`VgFunction`] trait plus the built-in VG functions
//!   the paper uses or motivates: `Normal` (§2), the inverse-gamma
//!   hyper-prior generator of Appendix D, a Bayesian demand model, a
//!   correlated multivariate normal, and an Euler-discretized geometric
//!   Brownian motion for financial-asset scenarios (§1).  A VG function's
//!   [`VgFunction::cache_token`] is its identity in plan keys and on the
//!   wire; [`from_token`] rebuilds a built-in from it.

pub mod dist;
pub mod function;
pub mod math;

pub use dist::Distribution;
pub use function::{
    from_token, BayesianDemandVg, DiscreteVg, GbmTerminalVg, MultiNormalVg, NormalVg, PoissonVg,
    UniformVg, VgFunction, MAX_TOKEN_SIZE,
};
