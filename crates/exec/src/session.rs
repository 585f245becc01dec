//! Two-phase execution sessions: run deterministic plan work once,
//! re-instantiate streams per block — and share the deterministic part
//! across master seeds.
//!
//! MCDB-R's central performance claim (paper §1, §9) is that deterministic
//! query work — scans, joins on deterministic attributes, constant-only
//! predicates — happens *exactly once*, no matter how many Monte Carlo
//! repetitions or Gibbs replenishment blocks are run.  [`Executor`] keeps
//! that promise within a single execution but not across executions; this
//! module closes the gap with a three-layer split:
//!
//! * **[`PlanSkeleton`]** — the *seed-independent* result of running the
//!   deterministic skeleton of a plan over a catalog: the output schema, a
//!   [`SkeletonRegistry`] (every stream keyed by its `(table_tag, row)`
//!   [`StreamKey`] with its VG function and bound parameter row), and one
//!   *symbolic bundle* per output tuple.  A symbolic bundle's random
//!   attributes are lineage-only — `(stream key, vg_row, vg_col)` with no
//!   materialized values — and its value-dependent residue (predicates over
//!   random attributes, computed projections) is recorded as small
//!   expression closures to replay per block.  Nothing in the skeleton
//!   mentions a concrete PRNG seed, so one skeleton serves every master
//!   seed; [`crate::SessionCache`] exploits exactly this.
//! * **[`DeterministicPrefix`]** — a skeleton *bound* to one master seed:
//!   every stream key is mapped to its concrete [`mcdbr_prng::SeedId`] via
//!   [`mcdbr_prng::seed_for`].  Binding costs one hash mix per stream — no
//!   catalog reads, no VG probes, no plan traversal.
//! * **[`ExecSession`]** — the two-phase driver.  **Phase 1**
//!   ([`ExecSession::prepare`]) builds the skeleton and binds it.  **Phase
//!   2** ([`ExecSession::instantiate_block`]) materializes the stream
//!   values for positions `base_pos .. base_pos + num_values` against the
//!   prefix: per-stream VG blocks are generated (in parallel — the
//!   position-addressable streams of `mcdbr-prng` make any split of the
//!   work bit-identical), the symbolic residue is evaluated, and a full
//!   [`BundleSet`] comes back.  No scan, join, or deterministic predicate
//!   is ever re-evaluated.
//!
//! The output of `instantiate_block(catalog, b, n)` is bit-identical to
//! `Executor::execute` with `ExecOptions { base_pos: b, num_values: n, .. }`
//! — the determinism suite in `tests/session_determinism.rs` asserts this
//! bundle-for-bundle, including across replenishment boundaries, thread
//! counts, and skeleton re-binding to fresh master seeds.
//!
//! **Cacheability.** One plan shape makes bundle *structure* depend on stream
//! *values*: `Split` applied to a column that is random in some bundle
//! (paper §8) — the number of output bundles equals the number of distinct
//! values in the block.  Such plans have no block-invariant deterministic
//! prefix; skeleton construction detects this and the session falls back to
//! re-running the full plan per block through an inner [`Executor`],
//! reporting the cost honestly via [`ExecSession::plan_executions`].
//! Everything else — scans, random tables, filters (deterministic or
//! random), projections, joins, `Split` over already-deterministic columns —
//! is prefix-cacheable.
//!
//! **Seed-independence contract.** The skeleton probes each VG function once
//! (under a fixed probe seed) to learn its output-row count, because that
//! count shapes the bundle structure.  The executor contract — enforced at
//! every block materialization — is that a VG function's output-row count
//! depends only on its parameters and construction-time configuration, never
//! on the random draw; all built-in VG functions satisfy this, and a
//! violation surfaces as an explicit error, never as silently wrong data.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcdbr_prng::{SeedId, StreamKey};
use mcdbr_storage::{Catalog, ColumnBlock, Error, Mask, Result, Schema, SelVec, Value};

use crate::backend::{ExecBackend, InProcessBackend};
use crate::bundle::{BundleSet, BundleValue, TupleBundle, ValueChain};
use crate::executor::{join_key, ExecOptions, Executor, JoinKey};
use crate::expr::Expr;
use crate::kernels::{self, Lane};
use crate::par;
use crate::plan::{OutputColumn, PlanNode};
use crate::pool::BlockBufferPool;
use crate::stream_registry::{SkeletonRegistry, StreamRegistry, StreamSource};

/// The master seed used only to probe VG output-row counts during skeleton
/// construction (the probed values are discarded; only the row count is
/// kept, and it must be seed-independent — see the module docs).
const PROBE_MASTER_SEED: u64 = 0;

/// A symbolic attribute value: what the skeleton pass knows about an output
/// column before any stream values exist.
#[derive(Debug, Clone)]
enum SymValue {
    /// Deterministic: the same value in every DB instance.
    Const(Value),
    /// A random attribute with seed-independent lineage only; phase 2 reads
    /// the materialized block of the bound stream.
    Stream {
        key: StreamKey,
        vg_row: usize,
        vg_col: usize,
    },
    /// A projected expression over (possibly random) inputs; phase 2
    /// evaluates it once per block offset.
    Expr(Box<SymExpr>),
}

/// A deferred expression: the operator's input schema, one symbolic value per
/// input column, and the expression itself.
#[derive(Debug, Clone)]
struct SymExpr {
    schema: Schema,
    inputs: Vec<SymValue>,
    expr: Expr,
}

/// A deferred presence predicate (a `Filter` over random attributes,
/// paper §5): evaluated per block offset into an `isPres` mask.
#[derive(Debug, Clone)]
struct SymPred {
    schema: Schema,
    inputs: Vec<SymValue>,
    predicate: Expr,
}

/// One output tuple of the deterministic skeleton.
#[derive(Debug, Clone)]
pub(crate) struct SymBundle {
    values: Vec<SymValue>,
    preds: Vec<SymPred>,
}

impl SymBundle {
    fn constant(values: Vec<Value>) -> Self {
        SymBundle {
            values: values.into_iter().map(SymValue::Const).collect(),
            preds: Vec::new(),
        }
    }

    fn concat(&self, other: &SymBundle) -> SymBundle {
        let mut values = self.values.clone();
        values.extend(other.values.iter().cloned());
        let mut preds = self.preds.clone();
        preds.extend(other.preds.iter().cloned());
        SymBundle { values, preds }
    }
}

/// The seed-independent result of the deterministic skeleton pass: everything
/// about a plan execution that depends only on the plan and the catalog —
/// never on the master seed or on which stream positions are materialized.
///
/// A skeleton is the unit [`crate::SessionCache`] stores: binding it to a
/// master seed ([`DeterministicPrefix`]) costs one seed derivation per
/// stream, so a cache hit skips scans, joins, constant predicates, and VG
/// probes entirely.
#[derive(Debug, Clone)]
pub struct PlanSkeleton {
    schema: Schema,
    registry: SkeletonRegistry,
    pub(crate) bundles: Vec<SymBundle>,
    /// Streams actually referenced by surviving bundles.  Deterministic
    /// filters (paper §2's `WHERE CID < 10010`) drop bundles during the
    /// skeleton pass; phase 2 never generates values for the dropped streams
    /// — a structural saving the one-shot executor (which instantiates before
    /// filtering) cannot make.
    active_keys: Vec<StreamKey>,
    /// Per-active-key generation recipe — the registry source plus the
    /// per-invocation row count probed once during the skeleton pass and
    /// validated against every materialized block — aligned with
    /// `active_keys`.  Precomputed once here so the per-block generation
    /// fan-out indexes a slice instead of probing two `BTreeMap`s per stream
    /// per block (the registry may hold thousands of streams while only a
    /// filtered few are active).
    active_sources: Vec<(StreamSource, Option<usize>)>,
    /// Per-bundle sorted stream keys (first key = the bundle's shard anchor),
    /// computed once here so shard ownership decisions never re-walk the
    /// symbolic bundles per shard per block.
    pub(crate) bundle_keys: Vec<Vec<StreamKey>>,
    /// The distinct bundle anchors, sorted — what the shard planner
    /// partitions.  Partitioning anchors (rather than all active keys)
    /// balances the work shards actually *own*: on a multi-table join every
    /// bundle anchors at its smallest key, so ranges drawn over non-anchor
    /// keys would own nothing.
    anchor_keys: Vec<StreamKey>,
}

impl PlanSkeleton {
    /// The output schema of the plan.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The seed-independent stream registry: every `(table_tag, row)` key
    /// with its VG function and bound parameter row.
    pub fn registry(&self) -> &SkeletonRegistry {
        &self.registry
    }

    /// Number of symbolic bundles in the skeleton.
    pub fn num_bundles(&self) -> usize {
        self.bundles.len()
    }

    /// Number of registered random streams.
    pub fn num_streams(&self) -> usize {
        self.registry.len()
    }

    /// Number of streams referenced by surviving bundles — the streams a
    /// block materialization actually generates values for.
    pub fn num_active_streams(&self) -> usize {
        self.active_keys.len()
    }

    /// The streams referenced by surviving bundles, in increasing
    /// `(table_tag, row)` order — the streams a block materialization
    /// generates values for.
    pub fn active_keys(&self) -> &[StreamKey] {
        &self.active_keys
    }

    /// The distinct bundle anchor keys (each surviving bundle's smallest
    /// stream key), sorted — the key list a sharded backend's planner
    /// partitions into [`mcdbr_prng::StreamKeyRange`]s so every range owns
    /// an even share of bundles.
    pub fn anchor_keys(&self) -> &[StreamKey] {
        &self.anchor_keys
    }

    /// Bind this skeleton to a master seed, deriving every stream's concrete
    /// [`SeedId`] via [`mcdbr_prng::seed_for`].  This is the whole per-seed
    /// cost of reusing a skeleton: no catalog reads, no VG probes, no plan
    /// traversal.
    pub fn bind(self: &Arc<Self>, master_seed: u64) -> DeterministicPrefix {
        DeterministicPrefix {
            skeleton: Arc::clone(self),
            master_seed,
            registry: self.registry.bind(master_seed),
        }
    }

    /// Bind this skeleton for shard-internal use, with an **empty** bound
    /// registry: the whole shard path derives seeds purely
    /// (`key.bind(master_seed)`) and reads VG recipes from the skeleton
    /// registry, so a shard never consults a bound registry — paying
    /// per-block binding for state nothing reads would be waste.  The
    /// merged [`BundleSet`]'s registry comes from the session's own fully
    /// bound prefix; this prefix never escapes the shard.
    pub(crate) fn bind_for_shard(self: &Arc<Self>, master_seed: u64) -> DeterministicPrefix {
        DeterministicPrefix {
            skeleton: Arc::clone(self),
            master_seed,
            registry: StreamRegistry::new(),
        }
    }
}

/// A [`PlanSkeleton`] bound to one master seed: the cached result of phase 1
/// that phase 2 materializes blocks against.
///
/// The prefix holds the concrete seed of every stream (the skeleton's keys
/// mapped through [`mcdbr_prng::seed_for`]) and the seed-addressed
/// [`StreamRegistry`] carried by every emitted [`BundleSet`].
#[derive(Debug, Clone)]
pub struct DeterministicPrefix {
    skeleton: Arc<PlanSkeleton>,
    master_seed: u64,
    registry: StreamRegistry,
}

impl DeterministicPrefix {
    /// The output schema of the plan.
    pub fn schema(&self) -> &Schema {
        self.skeleton.schema()
    }

    /// The bound stream registry: every concrete seed with its VG function
    /// and parameters.
    pub fn registry(&self) -> &StreamRegistry {
        &self.registry
    }

    /// The seed-independent skeleton this prefix binds.
    pub fn skeleton(&self) -> &Arc<PlanSkeleton> {
        &self.skeleton
    }

    /// The master seed the skeleton is bound to.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Number of symbolic bundles in the skeleton.
    pub fn num_bundles(&self) -> usize {
        self.skeleton.num_bundles()
    }

    /// Number of registered random streams.
    pub fn num_streams(&self) -> usize {
        self.skeleton.num_streams()
    }

    /// Number of streams referenced by surviving bundles — the streams a
    /// block materialization actually generates values for.
    pub fn num_active_streams(&self) -> usize {
        self.skeleton.num_active_streams()
    }

    /// The concrete seed `key`'s stream is bound to — a pure function of
    /// `(master_seed, key)`, so no per-binding map is needed.
    fn seed_of(&self, key: StreamKey) -> SeedId {
        key.bind(self.master_seed)
    }
}

/// Collect every stream key reachable from a symbolic bundle: its direct
/// attributes, plus streams referenced inside deferred expressions and
/// presence predicates.
fn collect_keys(bundle: &SymBundle, out: &mut std::collections::BTreeSet<StreamKey>) {
    fn walk(value: &SymValue, out: &mut std::collections::BTreeSet<StreamKey>) {
        match value {
            SymValue::Const(_) => {}
            SymValue::Stream { key, .. } => {
                out.insert(*key);
            }
            SymValue::Expr(e) => {
                for input in &e.inputs {
                    walk(input, out);
                }
            }
        }
    }
    for value in &bundle.values {
        walk(value, out);
    }
    for pred in &bundle.preds {
        for input in &pred.inputs {
            walk(input, out);
        }
    }
}

/// Why phase 1 ran the plan through the fallback path instead of caching.
#[derive(Debug)]
enum Mode {
    /// The deterministic prefix is cached; blocks only materialize streams.
    Cached(Box<DeterministicPrefix>),
    /// The plan's bundle structure depends on stream values; every block
    /// re-runs the full plan through an inner executor.
    Fallback { executor: Executor, reason: String },
}

/// A two-phase execution session over one `(plan, catalog, master_seed)`.
///
/// ```text
/// let mut session = ExecSession::prepare(&plan, &catalog, seed)?;   // phase 1: once
/// let b0 = session.instantiate_block(&catalog, 0, 1000)?;           // phase 2: per block
/// let b1 = session.instantiate_block(&catalog, 1000, 1000)?;        // ... no plan re-run
/// ```
///
/// Sessions are usually obtained from a [`crate::SessionCache`], which skips
/// phase 1 entirely when a structurally identical `(plan, catalog)` pair was
/// prepared before — even under a different master seed.
#[derive(Debug)]
pub struct ExecSession {
    plan: PlanNode,
    master_seed: u64,
    threads: usize,
    backend: Arc<dyn ExecBackend>,
    pool: Arc<BlockBufferPool>,
    /// The pool's `(bytes_materialized, buffer_reuses)` when this session
    /// adopted it, so a shared pool's earlier work is not misattributed to
    /// this session (the `ShardStats::since` windowing pattern).
    pool_baseline: (u64, u64),
    mode: Mode,
    skeleton_hit: bool,
    plan_executions: usize,
    blocks_materialized: usize,
    values_materialized: u64,
}

impl ExecSession {
    /// Phase 1: run the deterministic skeleton of `plan` once and bind it to
    /// `master_seed`, caching the resulting [`DeterministicPrefix`] inside
    /// the session.  Plans whose bundle structure depends on stream values
    /// (a `Split` over a random column) fall back to per-block full
    /// execution; see the module docs.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use mcdbr_exec::plan::scalar_random_table;
    /// use mcdbr_exec::{ExecSession, Expr, PlanNode};
    /// use mcdbr_storage::{Catalog, Field, Schema, TableBuilder, Value};
    /// use mcdbr_vg::NormalVg;
    ///
    /// # fn main() -> mcdbr_storage::Result<()> {
    /// let mut catalog = Catalog::new();
    /// let means =
    ///     TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
    ///         .row([Value::Int64(1), Value::Float64(3.0)])
    ///         .row([Value::Int64(2), Value::Float64(4.0)])
    ///         .build()?;
    /// catalog.register("means", means)?;
    /// // SELECT cid, val FROM Losses — val ~ Normal(m, 1) per customer.
    /// let plan = PlanNode::random_table(scalar_random_table(
    ///     "Losses",
    ///     "means",
    ///     Arc::new(NormalVg),
    ///     vec![Expr::col("m"), Expr::lit(1.0)],
    ///     &["cid"],
    ///     "val",
    ///     1,
    /// ));
    ///
    /// // Phase 1 runs the deterministic plan work exactly once...
    /// let mut session = ExecSession::prepare(&plan, &catalog, 42)?;
    /// // ...and every phase-2 block materializes stream values only.
    /// let block = session.instantiate_block(&catalog, 0, 100)?;
    /// assert_eq!(block.len(), 2);
    /// let _next = session.instantiate_block(&catalog, 100, 100)?;
    /// assert_eq!(session.plan_executions(), 1);
    /// assert_eq!(session.blocks_materialized(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn prepare(plan: &PlanNode, catalog: &Catalog, master_seed: u64) -> Result<Self> {
        match build_skeleton(plan, catalog) {
            Ok(skeleton) => Ok(Self::from_skeleton(
                plan,
                Arc::new(skeleton),
                master_seed,
                false,
            )),
            Err(PrepError::Uncacheable(reason)) => {
                Ok(Self::fallback(plan, master_seed, reason, false))
            }
            Err(PrepError::Fail(e)) => Err(e),
        }
    }

    /// Build a session from an already-constructed skeleton.  `cache_hit`
    /// records whether the skeleton came out of a [`crate::SessionCache`]
    /// (in which case no deterministic plan work ran for this session).
    pub(crate) fn from_skeleton(
        plan: &PlanNode,
        skeleton: Arc<PlanSkeleton>,
        master_seed: u64,
        cache_hit: bool,
    ) -> Self {
        let prefix = skeleton.bind(master_seed);
        ExecSession {
            plan: plan.clone(),
            master_seed,
            threads: par::default_threads(),
            backend: Arc::new(InProcessBackend::new()),
            pool: Arc::new(BlockBufferPool::new()),
            pool_baseline: (0, 0),
            mode: Mode::Cached(Box::new(prefix)),
            skeleton_hit: cache_hit,
            // The deterministic skeleton ran exactly once — during this
            // session's prepare, or not at all on a cache hit.
            plan_executions: usize::from(!cache_hit),
            blocks_materialized: 0,
            values_materialized: 0,
        }
    }

    /// Build a fallback session for an uncacheable plan.  `cache_hit`
    /// records whether the (cached) uncacheability verdict spared this
    /// session the detection pass.
    pub(crate) fn fallback(
        plan: &PlanNode,
        master_seed: u64,
        reason: String,
        cache_hit: bool,
    ) -> Self {
        ExecSession {
            plan: plan.clone(),
            master_seed,
            threads: par::default_threads(),
            backend: Arc::new(InProcessBackend::new()),
            pool: Arc::new(BlockBufferPool::new()),
            pool_baseline: (0, 0),
            mode: Mode::Fallback {
                executor: Executor::new(),
                reason,
            },
            skeleton_hit: cache_hit,
            plan_executions: 0,
            blocks_materialized: 0,
            values_materialized: 0,
        }
    }

    /// Override the worker-thread count used by phase 2 (defaults to
    /// `MCDBR_THREADS` / available parallelism).  Results are bit-identical
    /// for every thread count.  The count applies to whichever
    /// [`ExecBackend`] the session runs on: workers for the in-process pool,
    /// concurrent shard slots for a sharded backend.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run phase 2 on an explicit [`ExecBackend`] (defaults to
    /// [`InProcessBackend`], the in-process thread pool).  Results are
    /// bit-identical for every backend and shard count.
    pub fn with_backend(mut self, backend: Arc<dyn ExecBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The execution backend phase 2 runs on.
    pub fn backend(&self) -> &Arc<dyn ExecBackend> {
        &self.backend
    }

    /// Use an explicit [`BlockBufferPool`] for phase-2 columnar buffers —
    /// engines share one across queries so repeated queries reuse warm
    /// buffers.  The session's `bytes_materialized` / `buffer_reuses`
    /// counters report activity *since adoption*, so a shared pool's
    /// earlier work is not misattributed (sessions running concurrently on
    /// one pool still blur each other's windows, like [`ShardStats`](crate::ShardStats)).
    pub fn with_pool(mut self, pool: Arc<BlockBufferPool>) -> Self {
        self.pool_baseline = (pool.bytes_materialized(), pool.buffer_reuses());
        self.pool = pool;
        self
    }

    /// The columnar buffer pool phase 2 materializes blocks through.
    pub fn pool(&self) -> &Arc<BlockBufferPool> {
        &self.pool
    }

    /// Logical bytes this session wrote into columnar block buffers (pool
    /// activity since the session adopted it; 0 in fallback mode, which
    /// never materializes columnar blocks).  Sharded backends release
    /// per-task buffers through the same pool, so cross-shard regeneration
    /// is included.
    pub fn bytes_materialized(&self) -> u64 {
        self.pool
            .bytes_materialized()
            .saturating_sub(self.pool_baseline.0)
    }

    /// Block-buffer acquisitions this session served by recycling a pooled
    /// buffer rather than allocating — rises with every replenishment round
    /// or repeated block once the pool is warm.
    pub fn buffer_reuses(&self) -> u64 {
        self.pool
            .buffer_reuses()
            .saturating_sub(self.pool_baseline.1)
    }

    /// Whether the deterministic prefix is cached (`false` means every block
    /// re-runs the full plan; see the module docs on cacheability).
    pub fn is_cached(&self) -> bool {
        matches!(self.mode, Mode::Cached(_))
    }

    /// Whether this session skipped phase 1 because a [`crate::SessionCache`]
    /// already held the plan's skeleton (possibly built under a different
    /// master seed).
    pub fn skeleton_hit(&self) -> bool {
        self.skeleton_hit
    }

    /// The cached prefix, when the plan is cacheable.
    pub fn prefix(&self) -> Option<&DeterministicPrefix> {
        match &self.mode {
            Mode::Cached(prefix) => Some(prefix),
            Mode::Fallback { .. } => None,
        }
    }

    /// Why the session fell back to per-block full execution, if it did.
    pub fn fallback_reason(&self) -> Option<&str> {
        match &self.mode {
            Mode::Cached(_) => None,
            Mode::Fallback { reason, .. } => Some(reason),
        }
    }

    /// The master seed every stream seed is derived from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// How many times deterministic plan work has run *in this session*: 1
    /// when phase 1 ran here, 0 when a cache hit skipped it, or one per
    /// materialized block in fallback mode.  This is the counter the
    /// Appendix D plan-execution experiments report.
    pub fn plan_executions(&self) -> usize {
        self.plan_executions
    }

    /// Number of windows materialized through phase 2: full-width blocks
    /// ([`ExecSession::instantiate_block`]) and per-stream windows
    /// ([`ExecSession::instantiate_streams`]) alike, one each.
    pub fn blocks_materialized(&self) -> usize {
        self.blocks_materialized
    }

    /// Total stream values materialized across all windows (streams ×
    /// positions, summed per window) — the *logical* count the plan
    /// requires, independent of backend.  A sharded backend may regenerate
    /// cross-shard streams on top of this; that duplication is reported
    /// separately as [`crate::ShardStats::cross_shard_regens`].
    pub fn values_materialized(&self) -> u64 {
        self.values_materialized
    }

    /// Phase 2: materialize stream positions `base_pos .. base_pos +
    /// num_values` against the cached prefix, returning a full [`BundleSet`]
    /// bit-identical to `Executor::execute` at the same options.  Cacheable
    /// plans delegate the materialization to the session's [`ExecBackend`];
    /// fallback plans re-run the full plan inline (there is no prefix to
    /// partition, so backends — and their shard counters — never see them).
    ///
    /// `catalog` is only consulted in fallback mode (the cached prefix has
    /// already absorbed all catalog reads) and by dispatching backends,
    /// which snapshot it — together with the plan — for cold worker
    /// processes ([`ExecBackend::prepare_dispatch`]); pass the same catalog
    /// the session was prepared against.
    pub fn instantiate_block(
        &mut self,
        catalog: &Catalog,
        base_pos: u64,
        num_values: usize,
    ) -> Result<BundleSet> {
        self.blocks_materialized += 1;
        match &mut self.mode {
            Mode::Fallback { executor, .. } => {
                self.plan_executions += 1;
                let opts = ExecOptions {
                    master_seed: self.master_seed,
                    num_values,
                    base_pos,
                };
                let set = executor.execute(&self.plan, catalog, &opts)?;
                self.values_materialized += (set.registry.len() * num_values) as u64;
                Ok(set)
            }
            Mode::Cached(prefix) => {
                self.values_materialized += (prefix.num_active_streams() * num_values) as u64;
                self.backend.prepare_dispatch(&self.plan, catalog, prefix)?;
                self.backend.instantiate_block(
                    prefix,
                    &self.pool,
                    self.threads,
                    base_pos,
                    num_values,
                )
            }
        }
    }

    /// Phase 2 for the streams that ran dry (paper §9): materialize
    /// positions `base_pos .. base_pos + num_values` of the active streams
    /// `keys` (strictly ascending) only, returning each stream's shared
    /// cell columns in `keys` order — bit-identical to the same cells of a
    /// full-width block over the same window, with no bundles rebuilt.  A
    /// few streams' window is small, pure `(seed, position)` work, so it
    /// runs inline on the session's pool whatever the backend, as a
    /// dispatching backend's degraded path regenerates units locally.
    /// Counts as one block; uncacheable plans have no per-stream unit and
    /// are refused.
    pub fn instantiate_streams(
        &mut self,
        keys: &[StreamKey],
        base_pos: u64,
        num_values: usize,
    ) -> Result<Vec<CellCols>> {
        let Mode::Cached(prefix) = &self.mode else {
            return Err(Error::InvalidOperation(
                "per-stream instantiation needs a cached deterministic prefix".into(),
            ));
        };
        let active = prefix.skeleton().active_keys();
        let needed: Vec<usize> = keys
            .iter()
            .map(|key| {
                active.binary_search(key).map_err(|_| {
                    Error::InvalidOperation(format!("stream {key} is not active in this plan"))
                })
            })
            .collect::<Result<_>>()?;
        if needed.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(Error::InvalidOperation(
                "per-stream instantiation takes strictly ascending stream keys".into(),
            ));
        }
        self.blocks_materialized += 1;
        self.values_materialized += (needed.len() * num_values) as u64;
        let cells =
            crate::shard::generate_streams(prefix, &needed, base_pos, num_values, &self.pool, 1)?;
        Ok(cells.into_cells())
    }
}

// ===== Phase 2: block materialization against a cached prefix =====

/// One stream's generated block as shared, immutable per-cell columns.
///
/// The pooled [`ColumnBlock`] a VG kernel fills is a *reused* buffer; bundle
/// values must outlive it.  Converting *moves* each cell column out of the
/// pooled buffer into a recycled `Arc` ([`BlockBufferPool::adopt_cell`] —
/// a swap, not a copy) and lets the pooled buffer go straight back to the
/// pool — after which every bundle referencing the cell shares the same
/// `Arc` ([`crate::bundle::ValueChain`] segments), so a join fanning a
/// stream out to `m` bundles clones `m` refcounts, never `m` value vectors,
/// and dispatch partial frames encode the column bytes directly.
pub struct CellCols {
    rows: usize,
    cols: usize,
    cells: Cells,
}

/// Cell storage: scalar VG functions (one output row, one output column —
/// the dominant shape) store their single cell inline, skipping the
/// per-stream grid `Vec` allocation.
enum Cells {
    Single(Arc<mcdbr_storage::Column>),
    Grid(Vec<Arc<mcdbr_storage::Column>>),
}

impl CellCols {
    /// Move a generated block's cells out of the pooled buffer (see the
    /// type docs; the caller releases `block` immediately afterwards — its
    /// cells now hold the recycled Arcs' cleared warm storage).
    pub(crate) fn from_block(block: &mut ColumnBlock, pool: &BlockBufferPool) -> CellCols {
        let rows = block.rows_per_pos();
        let cols = block.cols();
        let cells = if rows * cols == 1 {
            Cells::Single(pool.adopt_cell(block.column_mut(0, 0)))
        } else {
            let mut grid = Vec::with_capacity(rows * cols);
            for row in 0..rows {
                for col in 0..cols {
                    grid.push(pool.adopt_cell(block.column_mut(row, col)));
                }
            }
            Cells::Grid(grid)
        };
        CellCols { rows, cols, cells }
    }

    /// The shared column for VG output cell `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> Result<&Arc<mcdbr_storage::Column>> {
        if row >= self.rows || col >= self.cols {
            return Err(Error::Invalid(format!(
                "VG output cell ({row}, {col}) outside the {}x{} block shape",
                self.rows, self.cols
            )));
        }
        match &self.cells {
            Cells::Single(cell) => Ok(cell),
            Cells::Grid(grid) => Ok(&grid[row * self.cols + col]),
        }
    }

    /// The boxed value at block offset `pos` of cell `(row, col)`.
    pub(crate) fn value_at(&self, row: usize, col: usize, pos: usize) -> Result<Value> {
        Ok(self.cell(row, col)?.value_at(pos))
    }
}

/// Per-stream shared cell columns for one generated block window.
///
/// A sorted vec rather than a `BTreeMap`: the shard unit inserts keys in
/// ascending order (it walks ascending indices into the skeleton's sorted
/// `active_keys`), so building is an append and lookup a cache-friendly
/// binary search over one contiguous allocation instead of pointer-chasing
/// per-entry tree nodes.
#[derive(Default)]
pub(crate) struct CellData {
    entries: Vec<(StreamKey, CellCols)>,
}

impl CellData {
    pub(crate) fn with_capacity(n: usize) -> CellData {
        CellData {
            entries: Vec::with_capacity(n),
        }
    }

    /// Append `key`'s cells; keys must arrive in strictly ascending order
    /// (lookup is a binary search).
    pub(crate) fn push(&mut self, key: StreamKey, cells: CellCols) {
        if let Some((last, _)) = self.entries.last() {
            assert!(*last < key, "cell keys must be pushed in ascending order");
        }
        self.entries.push((key, cells));
    }

    fn get(&self, key: StreamKey) -> Option<&CellCols> {
        self.entries
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    fn into_cells(self) -> Vec<CellCols> {
        self.entries.into_iter().map(|(_, cells)| cells).collect()
    }
}

/// Generate the `idx`-th active stream's VG outputs for positions `base_pos
/// .. base_pos + num_values` into a pooled columnar buffer, via the VG
/// function's batched [`mcdbr_vg::VgFunction::generate_block_into`] path
/// (the default trait implementation falls back to per-position generation,
/// so third-party VG functions keep working).  Pure in `(skeleton,
/// master_seed, idx, base_pos, num_values)`, so any split of a block's
/// streams across threads — or shards — regenerates exactly the same values.
/// The recipe comes from the skeleton's precomputed `active_sources` slice:
/// the per-block fan-out must not probe shared maps per stream.
///
/// The VG output-row-count contract is validated **once per block** against
/// the batched generator's reported shape: raggedness within the block
/// errors inside [`ColumnBlock::push_position`] / [`ColumnBlock::validate`],
/// and a uniform shape that contradicts the skeleton probe errors here.
pub(crate) fn generate_active_stream_block(
    prefix: &DeterministicPrefix,
    idx: usize,
    base_pos: u64,
    num_values: usize,
    pool: &BlockBufferPool,
) -> Result<ColumnBlock> {
    let skeleton = prefix.skeleton();
    let seed = prefix.seed_of(skeleton.active_keys[idx]);
    let (source, expected_rows) = &skeleton.active_sources[idx];
    let mut block = pool.acquire();
    match fill_stream_block(
        source,
        *expected_rows,
        seed,
        base_pos,
        num_values,
        &mut block,
    ) {
        Ok(()) => Ok(block),
        Err(e) => {
            // Back to the pool even on failure, so partial work is metered
            // and the buffer is not lost.
            pool.release(block);
            Err(e)
        }
    }
}

/// The fallible body of [`generate_active_stream_block`]: batched generation plus
/// the hoisted once-per-block shape validation.
fn fill_stream_block(
    source: &crate::stream_registry::StreamSource,
    expected_rows: Option<usize>,
    seed: mcdbr_prng::SeedId,
    base_pos: u64,
    num_values: usize,
    block: &mut ColumnBlock,
) -> Result<()> {
    source
        .vg
        .generate_block_into(&source.params, seed, base_pos, num_values, block)?;
    block.validate(num_values)?;
    if num_values > 0 {
        if let Some(expected) = expected_rows {
            if block.rows_per_pos() != expected {
                return Err(Error::Invalid(format!(
                    "VG function {} produced {} output rows per position in block [{}, {}) \
                     but {} during the skeleton probe; the bundle executor requires a \
                     seed-independent, fixed row count per parameter row",
                    source.vg.name(),
                    block.rows_per_pos(),
                    base_pos,
                    base_pos + num_values as u64,
                    expected
                )));
            }
        }
    }
    Ok(())
}

/// Materialize one symbolic bundle for a block; `None` when its presence
/// mask is false everywhere (the executor drops such bundles at the filter
/// that produced them — dropping here, after the fact, yields the same
/// output sequence).
///
/// Random attributes become refcount clones of the shared cell columns.
/// Presence predicates run through the vectorized kernels
/// ([`crate::kernels::predicate_mask`]) whenever the expression compiles:
/// one packed mask per predicate, no row materialization.  Predicates
/// outside the vectorizable subset replay the scalar row loop — but only at
/// the offsets still present, which both preserves the scalar path's
/// cross-predicate short-circuit (a row failing an earlier predicate never
/// evaluates a later one) and makes the fallback selection-driven.
pub(crate) fn materialize_bundle(
    bundle: &SymBundle,
    prefix: &DeterministicPrefix,
    blocks: &CellData,
    base_pos: u64,
    num_values: usize,
) -> Result<Option<TupleBundle>> {
    let mut values = Vec::with_capacity(bundle.values.len());
    for sym in &bundle.values {
        values.push(materialize_value(
            sym, prefix, blocks, base_pos, num_values,
        )?);
    }
    let is_pres = match bundle.preds.as_slice() {
        [] => None,
        preds => {
            let mut present = Mask::ones(num_values);
            let mut row: Vec<Value> = Vec::new();
            for pred in preds {
                if let Some(mask) = vector_pred_mask(pred, blocks, num_values) {
                    present.and_assign(&mask);
                } else {
                    let sel = SelVec::from_mask(&present);
                    for &off in sel.indices() {
                        let offset = off as usize;
                        eval_row_into(&pred.inputs, blocks, offset, &mut row)?;
                        if !pred.predicate.eval_bool(&pred.schema, &row)? {
                            present.set(offset, false);
                        }
                    }
                }
            }
            if present.none() {
                return Ok(None);
            }
            Some(present.to_bools())
        }
    };
    Ok(Some(TupleBundle { values, is_pres }))
}

/// Try the vectorized kernel path for one deferred predicate: every input
/// must be a constant or a direct stream-cell column (deferred
/// sub-expressions stay on the scalar path), and the predicate itself must
/// compile (see [`crate::kernels`] for the subset and the bit-identity
/// argument).
fn vector_pred_mask(pred: &SymPred, blocks: &CellData, num_values: usize) -> Option<Mask> {
    let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(pred.inputs.len());
    for sym in &pred.inputs {
        match sym {
            SymValue::Const(v) => lanes.push(Lane::Const(v)),
            SymValue::Stream {
                key,
                vg_row,
                vg_col,
            } => {
                let cell = blocks.get(*key)?.cell(*vg_row, *vg_col).ok()?;
                lanes.push(Lane::Col(cell));
            }
            SymValue::Expr(_) => return None,
        }
    }
    kernels::predicate_mask(&pred.predicate, &pred.schema, &lanes, num_values)
}

/// The vectorized path for a deferred projection expression: same lane
/// construction as [`vector_pred_mask`], compiled to a whole output column.
fn vector_computed(
    e: &SymExpr,
    blocks: &CellData,
    num_values: usize,
) -> Option<mcdbr_storage::Column> {
    let mut lanes: Vec<Lane<'_>> = Vec::with_capacity(e.inputs.len());
    for sym in &e.inputs {
        match sym {
            SymValue::Const(v) => lanes.push(Lane::Const(v)),
            SymValue::Stream {
                key,
                vg_row,
                vg_col,
            } => {
                let cell = blocks.get(*key)?.cell(*vg_row, *vg_col).ok()?;
                lanes.push(Lane::Col(cell));
            }
            SymValue::Expr(_) => return None,
        }
    }
    kernels::computed_column(&e.expr, &e.schema, &lanes, num_values)
}

fn materialize_value(
    sym: &SymValue,
    prefix: &DeterministicPrefix,
    blocks: &CellData,
    base_pos: u64,
    num_values: usize,
) -> Result<BundleValue> {
    match sym {
        SymValue::Const(v) => Ok(BundleValue::Const(v.clone())),
        SymValue::Stream {
            key,
            vg_row,
            vg_col,
        } => Ok(BundleValue::Random {
            seed: prefix.seed_of(*key),
            vg_row: *vg_row,
            vg_col: *vg_col,
            base_pos,
            // A zero-position block may be legitimately unshaped (the
            // generic fallback path learns its shape from the first
            // position); the empty chain is well-formed either way.  The
            // non-empty case is the columnar payoff: a refcount clone of
            // the shared cell column, shared across every bundle (and every
            // join fan-out) reading this cell.
            values: if num_values == 0 {
                ValueChain::new()
            } else {
                ValueChain::from_arc(Arc::clone(cells_for(blocks, *key)?.cell(*vg_row, *vg_col)?))
            },
        }),
        SymValue::Expr(e) => {
            if let Some(col) = vector_computed(e, blocks, num_values) {
                return Ok(BundleValue::Computed(ValueChain::from_column(col)));
            }
            let mut col = mcdbr_storage::Column::default();
            let mut row: Vec<Value> = Vec::new();
            for offset in 0..num_values {
                eval_row_into(&e.inputs, blocks, offset, &mut row)?;
                col.push_value(&e.expr.eval(&e.schema, &row)?);
            }
            Ok(BundleValue::Computed(ValueChain::from_column(col)))
        }
    }
}

/// Evaluate one symbolic value at a single block offset.
fn eval_sym(sym: &SymValue, blocks: &CellData, offset: usize) -> Result<Value> {
    match sym {
        SymValue::Const(v) => Ok(v.clone()),
        SymValue::Stream {
            key,
            vg_row,
            vg_col,
        } => cells_for(blocks, *key)?.value_at(*vg_row, *vg_col, offset),
        SymValue::Expr(e) => {
            let mut row = Vec::new();
            eval_row_into(&e.inputs, blocks, offset, &mut row)?;
            e.expr.eval(&e.schema, &row)
        }
    }
}

/// Build the input row at `offset` into a reusable scratch buffer (one
/// buffer serves every offset of a bundle's residue replay).
fn eval_row_into(
    inputs: &[SymValue],
    blocks: &CellData,
    offset: usize,
    row: &mut Vec<Value>,
) -> Result<()> {
    row.clear();
    for sym in inputs {
        row.push(eval_sym(sym, blocks, offset)?);
    }
    Ok(())
}

fn cells_for(blocks: &CellData, key: StreamKey) -> Result<&CellCols> {
    blocks
        .get(key)
        .ok_or_else(|| Error::Invalid(format!("stream {key} missing from materialized block")))
}

// ===== Phase 1: the symbolic (deterministic-skeleton) plan pass =====

pub(crate) enum PrepError {
    /// The plan's bundle structure depends on stream values.
    Uncacheable(String),
    /// An ordinary execution error (missing table/column, illegal join, ...).
    Fail(Error),
}

impl From<Error> for PrepError {
    fn from(e: Error) -> Self {
        PrepError::Fail(e)
    }
}

/// Run the seed-independent deterministic-skeleton pass over `plan`.
///
/// Returns `Err(PrepError::Uncacheable)` for plans whose bundle structure
/// depends on stream values (a `Split` over a random column, paper §8) and
/// `Err(PrepError::Fail)` for ordinary execution errors.
pub(crate) fn build_skeleton(
    plan: &PlanNode,
    catalog: &Catalog,
) -> std::result::Result<PlanSkeleton, PrepError> {
    let mut registry = SkeletonRegistry::new();
    let mut vg_rows = BTreeMap::new();
    let (schema, bundles) = exec_sym(plan, catalog, &mut registry, &mut vg_rows)?;
    let mut active = std::collections::BTreeSet::new();
    let mut anchors = std::collections::BTreeSet::new();
    let mut bundle_keys = Vec::with_capacity(bundles.len());
    for bundle in &bundles {
        let mut keys = std::collections::BTreeSet::new();
        collect_keys(bundle, &mut keys);
        active.extend(keys.iter().copied());
        if let Some(&anchor) = keys.iter().next() {
            anchors.insert(anchor);
        }
        bundle_keys.push(keys.into_iter().collect::<Vec<_>>());
    }
    let active_keys: Vec<StreamKey> = active.into_iter().collect();
    let active_sources = active_keys
        .iter()
        .map(|&key| {
            let source = registry
                .source(key)
                .expect("every bundle key was registered during the skeleton pass")
                .clone();
            (source, vg_rows.get(&key).copied())
        })
        .collect();
    Ok(PlanSkeleton {
        schema,
        registry,
        bundles,
        active_keys,
        active_sources,
        bundle_keys,
        anchor_keys: anchors.into_iter().collect(),
    })
}

type SymResult = std::result::Result<(Schema, Vec<SymBundle>), PrepError>;

/// The symbolic mirror of `executor::exec_node`: identical traversal order,
/// identical per-bundle decisions, but random attributes stay lineage-only
/// and streams are identified by seed-independent keys.
fn exec_sym(
    plan: &PlanNode,
    catalog: &Catalog,
    registry: &mut SkeletonRegistry,
    vg_rows: &mut BTreeMap<StreamKey, usize>,
) -> SymResult {
    match plan {
        PlanNode::TableScan { table } => {
            let t = catalog.get(table)?;
            // Paged scan: rows stream out of the buffer pool one pinned
            // frame at a time (see `Table::iter`).
            let bundles = t
                .iter()
                .map(|row| SymBundle::constant(row.into_values()))
                .collect();
            Ok((t.schema().clone(), bundles))
        }
        PlanNode::RandomTable(spec) => {
            let param_table = catalog.get(&spec.param_table)?;
            let param_schema = param_table.schema();
            let out_schema = spec.schema(catalog)?;

            let mut bundles = Vec::new();
            for (row_idx, param_row) in param_table.iter().enumerate() {
                // Seed operator, seed-independently: record this tuple's
                // stream by its `(table_tag, row)` key; concrete seeds are
                // derived at binding time.
                let key = StreamKey::new(spec.table_tag, row_idx as u64);
                let params: Vec<Value> = spec
                    .vg_params
                    .iter()
                    .map(|e| e.eval(param_schema, param_row.values()))
                    .collect::<Result<_>>()?;
                registry.register(key, spec.vg.clone(), params);

                // Probe one VG invocation to learn the output-row count; the
                // count is seed-independent by contract (see module docs) and
                // every materialized block validates against it.  A zero-row
                // VG output emits no bundles, exactly like the one-shot
                // executor's `0..vg_rows` loop.
                let probe = registry
                    .source(key)?
                    .generate_at(key.bind(PROBE_MASTER_SEED), 0)?;
                let num_rows = probe.len();
                vg_rows.insert(key, num_rows);

                for vg_row in 0..num_rows {
                    let mut values = Vec::with_capacity(spec.columns.len());
                    for col in &spec.columns {
                        match col {
                            OutputColumn::Param { source, .. } => {
                                let idx = param_schema.index_of(source)?;
                                values.push(SymValue::Const(param_row.value(idx).clone()));
                            }
                            OutputColumn::Vg { vg_col, .. } => {
                                values.push(SymValue::Stream {
                                    key,
                                    vg_row,
                                    vg_col: *vg_col,
                                });
                            }
                        }
                    }
                    bundles.push(SymBundle {
                        values,
                        preds: Vec::new(),
                    });
                }
            }
            Ok((out_schema, bundles))
        }
        PlanNode::Filter { input, predicate } => {
            let (schema, bundles) = exec_sym(input, catalog, registry, vg_rows)?;
            let referenced = predicate.referenced_columns();
            let ref_indices: Vec<usize> = referenced
                .iter()
                .map(|c| schema.index_of(c))
                .collect::<Result<_>>()?;

            let mut out = Vec::with_capacity(bundles.len());
            for mut bundle in bundles {
                let touches_random = ref_indices
                    .iter()
                    .any(|&i| !matches!(bundle.values[i], SymValue::Const(_)));
                if !touches_random {
                    // Deterministic for this bundle: decide once, now.
                    let row = const_row(&bundle.values);
                    if predicate.eval_bool(&schema, &row)? {
                        out.push(bundle);
                    }
                } else {
                    // Random: defer into a per-block presence predicate.
                    // Only referenced columns are captured; the rest become
                    // `Null` placeholders so phase 2 never evaluates them.
                    let inputs = pruned_inputs(&bundle.values, &ref_indices);
                    bundle.preds.push(SymPred {
                        schema: schema.clone(),
                        inputs,
                        predicate: predicate.clone(),
                    });
                    out.push(bundle);
                }
            }
            Ok((schema, out))
        }
        PlanNode::Project { input, exprs } => {
            let (in_schema, bundles) = exec_sym(input, catalog, registry, vg_rows)?;
            let out_schema = plan.schema(catalog)?;
            let mut out = Vec::with_capacity(bundles.len());
            for bundle in bundles {
                let mut values = Vec::with_capacity(exprs.len());
                for (_, expr) in exprs {
                    if let Expr::Column(name) = expr {
                        let idx = in_schema.index_of(name)?;
                        values.push(bundle.values[idx].clone());
                        continue;
                    }
                    let referenced = expr.referenced_columns();
                    let ref_indices: Vec<usize> = referenced
                        .iter()
                        .map(|c| in_schema.index_of(c))
                        .collect::<Result<Vec<_>>>()?;
                    let all_const = ref_indices
                        .iter()
                        .all(|&i| matches!(bundle.values[i], SymValue::Const(_)));
                    if all_const {
                        let row = const_row(&bundle.values);
                        values.push(SymValue::Const(expr.eval(&in_schema, &row)?));
                    } else {
                        values.push(SymValue::Expr(Box::new(SymExpr {
                            schema: in_schema.clone(),
                            inputs: pruned_inputs(&bundle.values, &ref_indices),
                            expr: expr.clone(),
                        })));
                    }
                }
                out.push(SymBundle {
                    values,
                    preds: bundle.preds,
                });
            }
            Ok((out_schema, out))
        }
        PlanNode::Join {
            left, right, on, ..
        } => {
            let (ls, lb) = exec_sym(left, catalog, registry, vg_rows)?;
            let (rs, rb) = exec_sym(right, catalog, registry, vg_rows)?;
            let out_schema = ls.join(&rs);
            if on.is_empty() {
                return Err(Error::Invalid("join requires at least one key pair".into()).into());
            }
            let left_keys: Vec<usize> = on
                .iter()
                .map(|(l, _)| ls.index_of(l))
                .collect::<Result<_>>()?;
            let right_keys: Vec<usize> = on
                .iter()
                .map(|(_, r)| rs.index_of(r))
                .collect::<Result<_>>()?;

            // Identical algorithm (and therefore output order) to the
            // executor's hash join: build on the right, probe in left order,
            // emit matches in right-insertion order.
            let mut table: std::collections::HashMap<Vec<JoinKey>, Vec<usize>> =
                std::collections::HashMap::with_capacity(rb.len());
            for (idx, bundle) in rb.iter().enumerate() {
                let key = sym_key(bundle, &right_keys, "right")?;
                if key.iter().any(|k| matches!(k, JoinKey::Null)) {
                    continue;
                }
                table.entry(key).or_default().push(idx);
            }
            let mut out = Vec::new();
            for bundle in &lb {
                let key = sym_key(bundle, &left_keys, "left")?;
                if key.iter().any(|k| matches!(k, JoinKey::Null)) {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    for &ridx in matches {
                        out.push(bundle.concat(&rb[ridx]));
                    }
                }
            }
            Ok((out_schema, out))
        }
        PlanNode::Split { input, column } => {
            let (schema, bundles) = exec_sym(input, catalog, registry, vg_rows)?;
            let idx = schema.index_of(column)?;
            if bundles
                .iter()
                .any(|b| !matches!(b.values[idx], SymValue::Const(_)))
            {
                // The number of post-Split bundles equals the number of
                // distinct values in the block — structure depends on values.
                return Err(PrepError::Uncacheable(format!(
                    "Split({column}) over a random attribute enumerates block values; \
                     the plan has no block-invariant deterministic prefix (paper §8)"
                )));
            }
            // Split over an already-deterministic column is the executor's
            // passthrough case.
            Ok((schema, bundles))
        }
    }
}

/// Capture only the columns a deferred expression references; every other
/// input becomes a `Null` placeholder that phase 2 clones trivially instead
/// of re-evaluating (expressions only read their referenced columns).
fn pruned_inputs(values: &[SymValue], ref_indices: &[usize]) -> Vec<SymValue> {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if ref_indices.contains(&i) {
                v.clone()
            } else {
                SymValue::Const(Value::Null)
            }
        })
        .collect()
}

/// The row a deterministic predicate/projection sees: constants in place,
/// `Null` elsewhere (the expression never reads the non-constant columns —
/// callers have already checked its referenced columns).
fn const_row(values: &[SymValue]) -> Vec<Value> {
    values
        .iter()
        .map(|v| match v {
            SymValue::Const(value) => value.clone(),
            _ => Value::Null,
        })
        .collect()
}

fn sym_key(
    bundle: &SymBundle,
    key_cols: &[usize],
    side: &str,
) -> std::result::Result<Vec<JoinKey>, PrepError> {
    key_cols
        .iter()
        .map(|&i| match &bundle.values[i] {
            SymValue::Const(v) => Ok(join_key(v)),
            _ => Err(PrepError::Fail(Error::InvalidOperation(format!(
                "{side} join key column {i} is a random attribute; apply Split before joining \
                 on a random attribute (paper §8)"
            )))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::scalar_random_table;
    use mcdbr_storage::{Field, TableBuilder, Tuple};
    use mcdbr_vg::{DiscreteVg, NormalVg};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let means = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
            .row([Value::Int64(1), Value::Float64(3.0)])
            .row([Value::Int64(2), Value::Float64(4.0)])
            .row([Value::Int64(3), Value::Float64(5.0)])
            .build()
            .unwrap();
        let regions = TableBuilder::new(Schema::new(vec![
            Field::int64("cid"),
            Field::utf8("region"),
        ]))
        .row([Value::Int64(1), Value::str("EU")])
        .row([Value::Int64(2), Value::str("US")])
        .row([Value::Int64(2), Value::str("APAC")])
        .build()
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.register("means", means).unwrap();
        catalog.register("regions", regions).unwrap();
        catalog
    }

    fn losses_plan() -> PlanNode {
        PlanNode::random_table(scalar_random_table(
            "Losses",
            "means",
            Arc::new(NormalVg),
            vec![Expr::col("m"), Expr::lit(1.0)],
            &["cid"],
            "val",
            1,
        ))
    }

    fn assert_sets_identical(a: &BundleSet, b: &BundleSet) {
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.num_reps, b.num_reps);
        assert_eq!(a.bundles, b.bundles);
    }

    #[test]
    fn prepare_caches_and_counts_once() {
        let catalog = catalog();
        let mut session = ExecSession::prepare(&losses_plan(), &catalog, 7).unwrap();
        assert!(session.is_cached());
        assert!(!session.skeleton_hit());
        assert_eq!(session.plan_executions(), 1);
        assert_eq!(session.prefix().unwrap().num_streams(), 3);
        assert_eq!(session.prefix().unwrap().num_bundles(), 3);
        let _ = session.instantiate_block(&catalog, 0, 5).unwrap();
        let _ = session.instantiate_block(&catalog, 5, 5).unwrap();
        assert_eq!(
            session.plan_executions(),
            1,
            "blocks must not re-run the plan"
        );
        assert_eq!(session.blocks_materialized(), 2);
        assert_eq!(session.values_materialized(), 30);
    }

    #[test]
    fn block_matches_executor_bit_for_bit() {
        let catalog = catalog();
        let plan = losses_plan()
            .filter(Expr::col("cid").lt(Expr::lit(3i64)))
            .join(PlanNode::scan("regions"), vec![("cid", "cid")])
            .filter(Expr::col("val").gt(Expr::lit(3.5)))
            .project(vec![
                ("cid", Expr::col("cid")),
                ("loss", Expr::col("val")),
                ("double", Expr::col("val").mul(Expr::lit(2.0))),
                ("region", Expr::col("region")),
            ]);
        let mut session = ExecSession::prepare(&plan, &catalog, 11).unwrap();
        assert!(session.is_cached());
        for (base, n) in [(0u64, 16usize), (16, 8), (1000, 4)] {
            let block = session.instantiate_block(&catalog, base, n).unwrap();
            let from_scratch = Executor::new()
                .execute(
                    &plan,
                    &catalog,
                    &ExecOptions {
                        master_seed: 11,
                        num_values: n,
                        base_pos: base,
                    },
                )
                .unwrap();
            assert_sets_identical(&block, &from_scratch);
        }
        assert_eq!(session.plan_executions(), 1);
    }

    #[test]
    fn one_skeleton_serves_many_master_seeds() {
        // The seed-independence property the session cache is built on: a
        // skeleton constructed once can be bound to any master seed, and
        // every binding is bit-identical to a from-scratch prepare at that
        // seed.
        let catalog = catalog();
        let plan = losses_plan()
            .filter(Expr::col("cid").lt(Expr::lit(3i64)))
            .filter(Expr::col("val").gt(Expr::lit(3.5)));
        let skeleton = Arc::new(build_skeleton(&plan, &catalog).unwrap_or_else(|_| panic!()));
        for seed in [7u64, 11, 42, 0xDEAD_BEEF] {
            let mut rebound = ExecSession::from_skeleton(&plan, Arc::clone(&skeleton), seed, true);
            assert!(rebound.skeleton_hit());
            assert_eq!(
                rebound.plan_executions(),
                0,
                "a cache hit skips phase 1 entirely"
            );
            let mut fresh = ExecSession::prepare(&plan, &catalog, seed).unwrap();
            let a = rebound.instantiate_block(&catalog, 0, 32).unwrap();
            let b = fresh.instantiate_block(&catalog, 0, 32).unwrap();
            assert_sets_identical(&a, &b);
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let catalog = catalog();
        let plan = losses_plan().filter(Expr::col("val").gt(Expr::lit(4.0)));
        let mut seq = ExecSession::prepare(&plan, &catalog, 3)
            .unwrap()
            .with_threads(1);
        let mut par = ExecSession::prepare(&plan, &catalog, 3)
            .unwrap()
            .with_threads(8);
        let a = seq.instantiate_block(&catalog, 0, 64).unwrap();
        let b = par.instantiate_block(&catalog, 0, 64).unwrap();
        assert_sets_identical(&a, &b);
    }

    #[test]
    fn random_split_falls_back_to_full_execution() {
        let mut catalog = Catalog::new();
        let param = TableBuilder::new(Schema::new(vec![
            Field::int64("id"),
            Field::float64("w_young"),
            Field::float64("w_old"),
        ]))
        .row([Value::Int64(1), Value::Float64(0.5), Value::Float64(0.5)])
        .build()
        .unwrap();
        catalog.register("people", param).unwrap();
        let spec = crate::plan::RandomTableSpec {
            name: "ages".into(),
            param_table: "people".into(),
            vg: Arc::new(DiscreteVg::new(vec![Value::Int64(20), Value::Int64(21)])),
            vg_params: vec![Expr::col("w_young"), Expr::col("w_old")],
            columns: vec![
                OutputColumn::Param {
                    source: "id".into(),
                    as_name: "id".into(),
                },
                OutputColumn::Vg {
                    vg_col: 0,
                    as_name: "age".into(),
                },
            ],
            table_tag: 3,
        };
        let plan = PlanNode::random_table(spec).split("age");
        let mut session = ExecSession::prepare(&plan, &catalog, 11).unwrap();
        assert!(!session.is_cached());
        assert!(session.fallback_reason().unwrap().contains("Split"));
        assert_eq!(session.plan_executions(), 0);
        let block = session.instantiate_block(&catalog, 0, 32).unwrap();
        let from_scratch = Executor::new()
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(11, 32))
            .unwrap();
        assert_sets_identical(&block, &from_scratch);
        assert_eq!(session.plan_executions(), 1, "fallback mode pays per block");
        let _ = session.instantiate_block(&catalog, 32, 32).unwrap();
        assert_eq!(session.plan_executions(), 2);
    }

    #[test]
    fn deterministic_filters_deactivate_dropped_streams() {
        // §2's `WHERE CID < 10010` pattern: the filter drops two of three
        // uncertain tuples during phase 1, so phase 2 generates values for
        // one stream only — while the one-shot executor generates all three
        // before filtering.  Results are still identical.
        let catalog = catalog();
        let plan = losses_plan().filter(Expr::col("cid").lt(Expr::lit(2i64)));
        let mut session = ExecSession::prepare(&plan, &catalog, 7).unwrap();
        let prefix = session.prefix().unwrap();
        assert_eq!(prefix.num_streams(), 3, "registry keeps every stream");
        assert_eq!(
            prefix.num_active_streams(),
            1,
            "only the survivor is generated"
        );
        let block = session.instantiate_block(&catalog, 0, 10).unwrap();
        assert_eq!(session.values_materialized(), 10);
        let from_scratch = Executor::new()
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(7, 10))
            .unwrap();
        assert_sets_identical(&block, &from_scratch);
    }

    #[test]
    fn split_on_deterministic_column_stays_cacheable() {
        let catalog = catalog();
        let plan = losses_plan().split("cid");
        let session = ExecSession::prepare(&plan, &catalog, 7).unwrap();
        assert!(session.is_cached());
    }

    #[test]
    fn errors_still_surface_during_prepare() {
        let catalog = catalog();
        assert!(ExecSession::prepare(&PlanNode::scan("nope"), &catalog, 1).is_err());
        let join_random = losses_plan().join(PlanNode::scan("regions"), vec![("val", "cid")]);
        assert!(ExecSession::prepare(&join_random, &catalog, 1).is_err());
    }

    /// A VG whose batched path claims a different (but uniform) output
    /// shape than its scalar path reports to the skeleton probe — the
    /// contract violation the hoisted once-per-block shape check catches.
    #[derive(Debug)]
    struct ShapeShiftVg;

    impl mcdbr_vg::VgFunction for ShapeShiftVg {
        fn name(&self) -> &str {
            "ShapeShift"
        }
        fn cache_token(&self) -> String {
            self.name().to_string()
        }
        fn output_fields(&self) -> Vec<mcdbr_storage::Field> {
            vec![Field::float64("value")]
        }
        fn generate(&self, _params: &[Value], gen: &mut mcdbr_prng::Pcg64) -> Result<Vec<Tuple>> {
            // The probe (and any scalar regeneration) sees one row...
            Ok(vec![Tuple::from_iter_values([gen.next_f64()])])
        }
        fn generate_block_into(
            &self,
            _params: &[Value],
            seed: SeedId,
            base_pos: u64,
            num_values: usize,
            out: &mut ColumnBlock,
        ) -> Result<()> {
            // ...but the batched path writes two (uniformly, so the ragged
            // check inside ColumnBlock cannot catch it — only the per-block
            // probe comparison can).
            out.reset(2, 1, num_values);
            let stream = mcdbr_prng::RandomStream::new(seed);
            for i in 0..num_values {
                let mut gen = stream.generator_at(base_pos + i as u64);
                let v = gen.next_f64();
                out.column_mut(0, 0).push_f64(v);
                out.column_mut(1, 0).push_f64(v);
            }
            Ok(())
        }
    }

    #[test]
    fn block_shape_mismatches_against_the_probe_error_once_per_block() {
        let catalog = catalog();
        let plan = PlanNode::random_table(scalar_random_table(
            "Shifty",
            "means",
            Arc::new(ShapeShiftVg),
            vec![Expr::col("m")],
            &["cid"],
            "val",
            9,
        ));
        let mut session = ExecSession::prepare(&plan, &catalog, 3).unwrap();
        let err = session.instantiate_block(&catalog, 0, 8).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("during the skeleton probe"),
            "unexpected error: {msg}"
        );
        assert!(msg.contains("2 output rows per position"), "{msg}");
        // The failed block's buffers went back to the pool: the work that
        // ran before the error is metered, not lost.
        assert!(session.bytes_materialized() > 0);
        assert!(session.pool().idle() > 0);
    }

    #[test]
    fn zero_value_blocks_are_well_formed() {
        let catalog = catalog();
        let plan = losses_plan();
        let mut session = ExecSession::prepare(&plan, &catalog, 7).unwrap();
        let block = session.instantiate_block(&catalog, 0, 0).unwrap();
        assert_eq!(block.num_reps, 0);
        assert_eq!(block.len(), 3, "bundle structure is position-independent");
        for bundle in &block.bundles {
            for value in &bundle.values {
                assert_ne!(value.materialized_len(), Some(1));
                if let BundleValue::Random { values, .. } = value {
                    assert!(values.is_empty());
                }
            }
        }
        assert_eq!(block.schema, *session.prefix().unwrap().schema());
    }

    #[test]
    fn sessions_recycle_pooled_buffers_across_blocks() {
        // The default backend is the in-process one: it holds all of a
        // block's buffers live until the bundles are materialized, so the
        // reuse counts are exact (a sharded backend adds timing-dependent
        // intra-block reuses; covered by the looper/engine lower bounds).
        let catalog = catalog();
        let mut session = ExecSession::prepare(&losses_plan(), &catalog, 7)
            .unwrap()
            .with_threads(2);
        assert_eq!(session.backend().name(), "in-process");
        let _ = session.instantiate_block(&catalog, 0, 16).unwrap();
        assert_eq!(session.buffer_reuses(), 0, "cold pool allocates");
        let bytes_one = session.bytes_materialized();
        assert_eq!(bytes_one, 3 * 16 * 8, "3 streams x 16 f64 positions");
        let _ = session.instantiate_block(&catalog, 16, 16).unwrap();
        assert_eq!(session.buffer_reuses(), 3, "warm pool recycles per stream");
        assert_eq!(session.bytes_materialized(), 2 * bytes_one);

        // An explicitly shared pool warms across sessions too.
        let pool = Arc::new(crate::pool::BlockBufferPool::new());
        let mut a = ExecSession::prepare(&losses_plan(), &catalog, 7)
            .unwrap()
            .with_pool(Arc::clone(&pool));
        let _ = a.instantiate_block(&catalog, 0, 8).unwrap();
        let mut b = ExecSession::prepare(&losses_plan(), &catalog, 8)
            .unwrap()
            .with_pool(Arc::clone(&pool));
        let _ = b.instantiate_block(&catalog, 0, 8).unwrap();
        assert_eq!(pool.buffer_reuses(), 3);
    }

    #[test]
    fn deterministic_only_plans_have_empty_registries() {
        let catalog = catalog();
        let mut session = ExecSession::prepare(&PlanNode::scan("means"), &catalog, 9).unwrap();
        let block = session.instantiate_block(&catalog, 0, 4).unwrap();
        assert_eq!(block.len(), 3);
        assert!(block.registry.is_empty());
        assert!(block.bundles.iter().all(|b| b.is_fully_const()));
    }
}
