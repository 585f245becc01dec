//! # MCDB-R — Risk Analysis in the Database
//!
//! Facade crate for the MCDB-R reproduction (Arumugam, Jampani, Perez, Xu,
//! Jermaine, Haas: *MCDB-R: Risk Analysis in the Database*, PVLDB 3(1), 2010).
//!
//! The implementation is split across focused workspace crates; this crate
//! re-exports them under stable module names so downstream users (and the
//! examples under `examples/`) can depend on a single package:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`storage`] | values, schemas, tuples, tables, catalog |
//! | [`prng`] | deterministic position-addressable random streams |
//! | [`vg`] | VG (variable-generation) functions: Normal, Gamma, Poisson, ... |
//! | [`faults`] | deterministic fault injection (seeded plans armed by `ProcessBackend::with_fault_spec`) |
//! | [`exec`] | tuple-bundle query plans and operators (Seed, Instantiate, Split, joins, aggregation) |
//! | [`dispatch`] | multi-process shard dispatch: wire protocol, `mcdbr-worker` binary, `ProcessBackend` (a plan and its tables ship once per worker per `(plan fingerprint, catalog epoch)`) |
//! | [`mcdb`] | the MCDB baseline: naive Monte Carlo over bundles + result-distribution statistics |
//! | [`core`] | the MCDB-R contribution: Gibbs sampler, Gibbs cloner, TS-seeds, GibbsLooper, parameter selection |
//! | [`risk`] | risk measures: VaR, expected shortfall, empirical/analytic CDFs, frequency tables |
//! | [`query`] | the SQL-ish dialect of §2 compiled to plans |
//! | [`workloads`] | synthetic workload generators (customer losses, TPC-H-like join, portfolio, logistics) |
//! | [`server`] | the resident concurrent query service: `mcdbr-server` binary, fair scheduler, wire client, load generator |
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the full system
//! inventory and experiment index.

pub use mcdbr_core as core;
pub use mcdbr_dispatch as dispatch;
pub use mcdbr_exec as exec;
pub use mcdbr_faults as faults;
pub use mcdbr_mcdb as mcdb;
pub use mcdbr_prng as prng;
pub use mcdbr_query as query;
pub use mcdbr_risk as risk;
pub use mcdbr_server as server;
pub use mcdbr_storage as storage;
pub use mcdbr_vg as vg;
pub use mcdbr_workloads as workloads;
