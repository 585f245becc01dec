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
//!   deterministic skeleton of a plan over a catalog: the output schema, the
//!   streams the surviving tuples reference (each keyed by its
//!   `(table_tag, row)` [`StreamKey`], with its VG function and bound
//!   parameter row), and the output tuples as one *columnar batch*.
//!   Random attributes are lineage-only — `(stream, vg_row, vg_col)` with
//!   no materialized values — and the value-dependent residue (predicates
//!   over random attributes, computed projections) is kept as deferred
//!   expressions to replay per block.  Nothing in the skeleton mentions a concrete PRNG seed, so one
//!   skeleton serves every master seed; [`crate::SessionCache`] exploits
//!   exactly this.
//! * **[`DeterministicPrefix`]** — a skeleton *bound* to one master seed:
//!   every stream key maps to its concrete [`mcdbr_prng::SeedId`] via
//!   [`mcdbr_prng::seed_for`], derived where a stream is generated.
//!   Binding stores the seed — no catalog reads, no VG probes, no plan
//!   traversal, nothing per stream.
//! * **[`ExecSession`]** — the two-phase driver.  **Phase 1**
//!   ([`ExecSession::prepare`]) builds the skeleton and binds it.  **Phase
//!   2** ([`ExecSession::instantiate_block`]) materializes the stream
//!   values for positions `base_pos .. base_pos + num_values` against the
//!   prefix: per-stream VG blocks are generated (in parallel — the
//!   position-addressable streams of `mcdbr-prng` make any split of the
//!   work bit-identical), the symbolic residue is evaluated, and a full
//!   [`BundleSet`] comes back.  No scan, join, or deterministic predicate
//!   is ever re-evaluated.  A Monte Carlo query skips the set as well:
//!   [`ExecSession::sample_block`] generates the block's cells on the
//!   backend and folds every bundle once straight into the aggregate
//!   (`fold_bundles`, through [`crate::shard::fold_block`]).
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
//! **Columnar phase 1.** Every operator decides per *column* whether an
//! attribute is constant, a stream cell or a deferred expression — a scan
//! or parameter column is constant, a VG output column a stream, a
//! projection over a random input deferred — and whether a filter is decided
//! now or deferred to a presence predicate.  So the kind is the same in
//! every tuple, and the skeleton stores one typed vector per column and each
//! deferred predicate once, not one object per tuple.  Joins compute
//! `(left, right)` index pairs from one hash index and gather every column;
//! deterministic filters gather their survivors; scans borrow rows from the
//! pinned page.
//!
//! **Seed-independence contract.** The skeleton probes each VG function once
//! (under a fixed probe seed) to learn its output-row count, because that
//! count shapes the bundle structure.  The executor contract — enforced at
//! every block materialization — is that a VG function's output-row count
//! depends only on its parameters and construction-time configuration, never
//! on the random draw; all built-in VG functions satisfy this, and a
//! violation surfaces as an explicit error, never as silently wrong data.

use std::sync::Arc;

use mcdbr_prng::{SeedId, StreamKey};
use mcdbr_storage::{Catalog, ColumnBlock, Error, Mask, Result, Schema, Value};

use crate::aggregate::{AggregateSpec, Aggregation, QueryResultSamples};
use crate::backend::{ExecBackend, InProcessBackend};
use crate::bundle::{BundleSet, BundleValue, SharedColumn, TupleBundle};
use crate::cache::PlanKey;
use crate::executor::{join_key, random_join_key, ExecOptions, Executor, JoinKey};
use crate::expr::Expr;
use crate::par;
use crate::plan::{OutputColumn, PlanNode};
use crate::pool::BlockBufferPool;
use crate::program::{Lane, Program};
use crate::shard::fold_block;
use crate::stream_registry::StreamSource;

/// The master seed used only to probe VG output-row counts during skeleton
/// construction (the probed values are discarded; only the row count is
/// kept, and it must be seed-independent — see the module docs).
const PROBE_MASTER_SEED: u64 = 0;

/// The most cells one phase-2 block may hold (2 GiB of 8-byte values): the
/// §2 losses over the demo catalog's 250 streams fit 2^20 repetitions, and
/// one stream of a dimension-4 096 `MultiNormal` (8 192 cells a position)
/// fits 32 768.  A cell is one VG output value at one position; a `Split`
/// over a random attribute counts one per variant and repetition.
pub const MAX_BLOCK_CELLS: u64 = 1 << 28;

/// Refuse a block of `positions` positions with `per_position` cells at
/// each once it would hold more than [`MAX_BLOCK_CELLS`] cells — checked
/// before the cells are made, so the refusal allocates nothing.
pub(crate) fn check_block_cells(per_position: u64, positions: usize) -> Result<()> {
    let cells = per_position.saturating_mul(positions as u64);
    if cells > MAX_BLOCK_CELLS {
        return Err(Error::Invalid(format!(
            "a block of {per_position} × {positions} = {cells} cells is past the \
             budget of {MAX_BLOCK_CELLS}"
        )));
    }
    Ok(())
}

/// What the skeleton pass knows about one output column before any stream
/// values exist, for every tuple of the batch at once.  Every operator
/// decides const, stream or deferred per *column*, so the kind is uniform
/// down the column (see the module docs).
#[derive(Debug, Clone)]
enum SymColumn {
    /// Deterministic: the same value in every DB instance, one per tuple.
    Const(Vec<Value>),
    /// A random attribute with seed-independent lineage only: tuple `i`
    /// reads VG output cell `(vg_rows[i], vg_col)` of stream `ids[i]`.
    /// During the pass an id is the stream's registration index; a finished
    /// skeleton holds its index into `active_keys` instead, so phase 2 reads
    /// the materialized cells without a key search.
    Stream {
        ids: Vec<u32>,
        vg_rows: Vec<u32>,
        vg_col: usize,
    },
    /// A projected expression over (possibly random) inputs; phase 2
    /// evaluates it per tuple and block offset.
    Expr(Box<SymExpr>),
}

/// A deferred expression — a computed projection, or a presence predicate
/// (a `Filter` over random attributes, paper §5): its program, compiled
/// against the operator's input schema when the skeleton is built (so a
/// cache hit reuses it), and the column behind each of the program's slots.
#[derive(Debug, Clone)]
struct SymExpr {
    program: Program,
    inputs: Vec<SymColumn>,
}

/// The deterministic skeleton as one batch of `len` output tuples: a
/// column per output attribute, plus the deferred presence predicates that
/// every tuple carries, each stored once.
#[derive(Debug, Clone)]
struct SymBatch {
    len: usize,
    columns: Vec<SymColumn>,
    preds: Vec<SymExpr>,
}

impl SymColumn {
    fn is_const(&self) -> bool {
        matches!(self, SymColumn::Const(_))
    }

    /// The column restricted to (and reordered by) the tuple indices `idx`.
    fn gather(&self, idx: &[usize]) -> SymColumn {
        fn pick<T: Clone>(values: &[T], idx: &[usize]) -> Vec<T> {
            idx.iter().map(|&i| values[i].clone()).collect()
        }
        match self {
            SymColumn::Const(values) => SymColumn::Const(pick(values, idx)),
            SymColumn::Stream {
                ids,
                vg_rows,
                vg_col,
            } => SymColumn::Stream {
                ids: pick(ids, idx),
                vg_rows: pick(vg_rows, idx),
                vg_col: *vg_col,
            },
            SymColumn::Expr(e) => SymColumn::Expr(Box::new(e.gather(idx))),
        }
    }

    /// Every stream-id array in this column, nested expressions included.
    fn stream_ids<'a>(&'a mut self, out: &mut Vec<&'a mut Vec<u32>>) {
        match self {
            SymColumn::Const(_) => {}
            SymColumn::Stream { ids, .. } => out.push(ids),
            SymColumn::Expr(e) => e.stream_ids(out),
        }
    }
}

impl SymExpr {
    fn gather(&self, idx: &[usize]) -> SymExpr {
        SymExpr {
            program: self.program.clone(),
            inputs: self.inputs.iter().map(|col| col.gather(idx)).collect(),
        }
    }

    fn stream_ids<'a>(&'a mut self, out: &mut Vec<&'a mut Vec<u32>>) {
        for input in &mut self.inputs {
            input.stream_ids(out);
        }
    }

    /// Tuple `idx`'s value on the rows of `sel`, a block of `sel.len()`
    /// offsets, narrowing `sel` to the rows a predicate keeps.  A deferred
    /// input is evaluated first, on every offset, as the executor computes
    /// a projection before anything filters it.
    fn run<'a>(&'a self, idx: usize, blocks: &'a CellData, sel: &mut Mask) -> Result<Lane<'a>> {
        let n = sel.len();
        if n == 0 {
            // A zero-position block may be unshaped; there is nothing to read.
            return Ok(Lane::boxed(Vec::new()));
        }
        self.program
            .eval_block(sel, |slot| match &self.inputs[slot] {
                SymColumn::Const(values) => Ok(Lane::constant(values[idx].clone())),
                SymColumn::Stream {
                    ids,
                    vg_rows,
                    vg_col,
                } => Ok(Lane::column(
                    cells_for(blocks, ids[idx])?.cell(vg_rows[idx] as usize, *vg_col)?,
                )),
                SymColumn::Expr(e) => e.run(idx, blocks, &mut Mask::ones(n)),
            })
    }
}

impl SymBatch {
    fn gather(&self, idx: &[usize]) -> SymBatch {
        SymBatch {
            len: idx.len(),
            columns: self.columns.iter().map(|col| col.gather(idx)).collect(),
            preds: self.preds.iter().map(|pred| pred.gather(idx)).collect(),
        }
    }

    /// Defer `program` over this batch: capture only the columns it reads.
    fn deferred(&self, program: Program) -> SymExpr {
        SymExpr {
            inputs: (program.slots().iter())
                .map(|&i| self.columns[i].clone())
                .collect(),
            program,
        }
    }

    /// `program` on tuple `row`, every column it reads being constant.
    fn eval_const(&self, program: &Program, row: usize) -> Result<Option<Value>> {
        program.eval_row(|slot| match &self.columns[program.slots()[slot]] {
            SymColumn::Const(values) => values[row].clone(),
            _ => unreachable!("only constant inputs are evaluated in phase 1"),
        })
    }
}

/// The seed-independent result of the deterministic skeleton pass: everything
/// about a plan execution that depends only on the plan and the catalog —
/// never on the master seed or on which stream positions are materialized.
///
/// A skeleton is the unit [`crate::SessionCache`] stores: binding it to a
/// master seed ([`DeterministicPrefix`]) only records the seed, so a cache
/// hit skips scans, joins, constant predicates, and VG probes entirely.
#[derive(Debug, Clone)]
pub struct PlanSkeleton {
    schema: Schema,
    /// Distinct streams the pass registered, surviving or not.
    num_streams: usize,
    batch: SymBatch,
    /// Streams actually referenced by surviving bundles.  Deterministic
    /// filters (paper §2's `WHERE CID < 10010`) drop bundles during the
    /// skeleton pass; phase 2 never generates values for the dropped streams
    /// — a structural saving the one-shot executor (which instantiates before
    /// filtering) cannot make.
    active_keys: Vec<StreamKey>,
    /// Per-active-key generation recipe — the stream source plus the
    /// per-invocation row count probed once during the skeleton pass and
    /// validated against every materialized block — aligned with
    /// `active_keys`, so the per-block generation fan-out indexes a slice
    /// instead of probing a map per stream.
    active_sources: Vec<(StreamSource, usize)>,
    /// Cells one position of a block holds: Σ over `active_sources` of VG
    /// output rows × VG output fields.
    cells_per_position: u64,
    /// The plan version this skeleton was built for.
    key: PlanKey,
}

impl PlanSkeleton {
    /// The `(plan fingerprint, catalog epoch)` key this skeleton was built
    /// under.
    pub fn key(&self) -> PlanKey {
        self.key
    }

    /// The output schema of the plan.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of bundles (output tuples) in the skeleton.
    pub fn num_bundles(&self) -> usize {
        self.batch.len
    }

    /// Number of random streams the skeleton pass registered: every
    /// random-table row it read, including those a deterministic filter
    /// dropped.
    pub fn num_streams(&self) -> usize {
        self.num_streams
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

    /// The `at`-th active stream's source and the VG output rows per
    /// position the skeleton pass probed (panics past the active streams).
    pub fn stream_recipe(&self, at: usize) -> (&StreamSource, usize) {
        let (source, rows) = &self.active_sources[at];
        (source, *rows)
    }

    /// What tuple `idx`'s column `col` is, read in place: a constant, a
    /// stream cell, or a computed column (panics past either) — the lineage
    /// a Gibbs tuple carries (App. A.2).
    pub fn lineage(&self, idx: usize, col: usize) -> Lineage<'_> {
        match &self.batch.columns[col] {
            SymColumn::Const(values) => Lineage::Const(&values[idx]),
            SymColumn::Stream {
                ids,
                vg_rows,
                vg_col,
            } => Lineage::Stream {
                at: ids[idx] as usize,
                vg_row: vg_rows[idx] as usize,
                vg_col: *vg_col,
            },
            SymColumn::Expr(_) => Lineage::Computed,
        }
    }

    /// Whether the skeleton defers presence predicates (a `Filter` over
    /// random attributes): every bundle of a block then carries its
    /// per-position presence, and a bundle present nowhere is dropped.
    pub fn defers_presence(&self) -> bool {
        !self.batch.preds.is_empty()
    }

    /// Each `group_by` column's values by bundle, or the name of the first
    /// one that is not constant — a random attribute, which cannot key
    /// groups.
    pub(crate) fn group_keys(
        &self,
        group_by: &[String],
    ) -> Result<std::result::Result<Vec<&[Value]>, &str>> {
        let idx: Vec<usize> = group_by
            .iter()
            .map(|g| self.schema.index_of(g))
            .collect::<Result<_>>()?;
        Ok(idx
            .into_iter()
            .map(|gi| match &self.batch.columns[gi] {
                SymColumn::Const(values) => Ok(values.as_slice()),
                _ => Err(self.schema.field(gi).name.as_str()),
            })
            .collect())
    }

    /// Bind this skeleton to a master seed.  Every stream's concrete
    /// [`SeedId`] is a pure function of `(master_seed, key)`
    /// ([`mcdbr_prng::seed_for`]), so binding stores the seed and nothing
    /// else: no catalog reads, no VG probes, no plan traversal.
    pub fn bind(self: &Arc<Self>, master_seed: u64) -> DeterministicPrefix {
        DeterministicPrefix {
            skeleton: Arc::clone(self),
            master_seed,
        }
    }
}

/// One column of one skeleton tuple ([`PlanSkeleton::lineage`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lineage<'a> {
    /// The same value in every DB instance.
    Const(&'a Value),
    /// VG output cell `(vg_row, vg_col)` of the `at`-th active stream
    /// ([`PlanSkeleton::active_keys`]).
    Stream {
        /// The stream's index into the skeleton's active keys.
        at: usize,
        /// The VG output row the tuple reads.
        vg_row: usize,
        /// The VG output column the tuple reads.
        vg_col: usize,
    },
    /// A projection over random inputs, computed per block: no lineage.
    Computed,
}

/// A [`PlanSkeleton`] bound to one master seed: the cached result of phase 1
/// that phase 2 materializes blocks against.  Every stream's concrete seed
/// is derived on use (the skeleton's key mapped through
/// [`mcdbr_prng::seed_for`]).
#[derive(Debug, Clone)]
pub struct DeterministicPrefix {
    skeleton: Arc<PlanSkeleton>,
    master_seed: u64,
}

impl DeterministicPrefix {
    /// The output schema of the plan.
    pub fn schema(&self) -> &Schema {
        self.skeleton.schema()
    }

    /// The seed-independent skeleton this prefix binds.
    pub fn skeleton(&self) -> &Arc<PlanSkeleton> {
        &self.skeleton
    }

    /// The master seed the skeleton is bound to.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Number of bundles (output tuples) in the skeleton.
    pub fn num_bundles(&self) -> usize {
        self.skeleton.num_bundles()
    }

    /// Number of random streams the skeleton pass registered.
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
        match build_skeleton(plan, catalog, PlanKey::new(plan, catalog)) {
            Ok(skeleton) => Ok(Self::from_skeleton(
                plan,
                Arc::new(skeleton),
                master_seed,
                false,
            )),
            Err(PrepError::ValueDependent(reason)) => Ok(Self::fallback(plan, master_seed, reason)),
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

    /// Build a fallback session for a plan with no block-invariant
    /// deterministic prefix (detection ran for this session).
    pub(crate) fn fallback(plan: &PlanNode, master_seed: u64, reason: String) -> Self {
        ExecSession {
            plan: plan.clone(),
            master_seed,
            backend: Arc::new(InProcessBackend::new()),
            pool: Arc::new(BlockBufferPool::new()),
            pool_baseline: (0, 0),
            mode: Mode::Fallback {
                executor: Executor::new(),
                reason,
            },
            skeleton_hit: false,
            plan_executions: 0,
            blocks_materialized: 0,
            values_materialized: 0,
        }
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
    /// engines share one across queries so repeated queries reuse its
    /// block shells.  The session's `bytes_materialized` / `buffer_reuses`
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
    /// never materializes columnar blocks).  Units that run in this process
    /// release their buffers through the same pool; cells generated in a
    /// worker process are not counted here.
    pub fn bytes_materialized(&self) -> u64 {
        self.pool
            .bytes_materialized()
            .saturating_sub(self.pool_baseline.0)
    }

    /// Block-buffer acquisitions this session served by reusing a pooled
    /// block shell rather than allocating one — rises with every
    /// replenishment round or repeated block once the pool holds shells.
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
    /// ([`ExecSession::instantiate_block`], [`ExecSession::instantiate_cells`])
    /// and per-stream windows
    /// ([`ExecSession::instantiate_stream`]) alike, one each.
    pub fn blocks_materialized(&self) -> usize {
        self.blocks_materialized
    }

    /// Total stream values materialized across all windows (streams ×
    /// positions, summed per window) — the count the plan requires, the same
    /// on every backend: a block split into units generates each stream in
    /// exactly one of them.
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
        let Mode::Fallback { executor, .. } = &mut self.mode else {
            let prefix = self.cached_block(catalog, num_values)?;
            return self.backend.instantiate_block(
                &prefix,
                &self.pool,
                par::default_threads(),
                base_pos,
                num_values,
            );
        };
        self.blocks_materialized += 1;
        self.plan_executions += 1;
        let opts = ExecOptions {
            master_seed: self.master_seed,
            num_values,
            base_pos,
        };
        let set = executor.execute(&self.plan, catalog, &opts)?;
        self.values_materialized += (executor.streams_registered() * num_values) as u64;
        Ok(set)
    }

    /// Phase 2 without the bundles: every active stream's cells for
    /// positions `base_pos .. base_pos + num_values`, in `active_keys`
    /// order, on the session's backend ([`ExecBackend::instantiate_cells`]).
    /// The Gibbs looper's initial block.  Counts as one block, like
    /// `instantiate_block`; uncacheable plans have no skeleton and are
    /// refused.
    pub fn instantiate_cells(
        &mut self,
        catalog: &Catalog,
        base_pos: u64,
        num_values: usize,
    ) -> Result<Vec<CellCols>> {
        let prefix = self.cached_block(catalog, num_values)?;
        self.backend.instantiate_cells(
            &prefix,
            &self.pool,
            par::default_threads(),
            base_pos,
            num_values,
        )
    }

    /// Phase 2 and the aggregate in one call: `agg` grouped by `group_by`
    /// over positions `base_pos .. base_pos + num_values`, once per
    /// repetition, bit-identical to [`crate::aggregate::evaluate_aggregate`] over
    /// [`ExecSession::instantiate_block`]'s set — and an error if and only if
    /// that errs.  Cacheable plans take the block's cells from the session's
    /// backend ([`ExecBackend::instantiate_cells`]) and fold them once, on
    /// this thread, straight into the aggregate ([`fold_block`]), never
    /// building the set; fallback plans materialize it through the inner
    /// [`Executor`] and aggregate it with the backend's
    /// [`ExecBackend::aggregate`], so a wrapping backend (the server's) sees
    /// both kinds of plan.  Counts as one block, like `instantiate_block`.
    pub fn sample_block(
        &mut self,
        catalog: &Catalog,
        base_pos: u64,
        num_values: usize,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
    ) -> Result<QueryResultSamples> {
        if let Mode::Fallback { .. } = self.mode {
            let set = self.instantiate_block(catalog, base_pos, num_values)?;
            return self.backend.aggregate(
                &set,
                agg,
                group_by,
                final_predicate,
                par::default_threads(),
            );
        }
        let prefix = self.cached_block(catalog, num_values)?;
        let cells = self.backend.instantiate_cells(
            &prefix,
            &self.pool,
            par::default_threads(),
            base_pos,
            num_values,
        )?;
        fold_block(&prefix, cells, num_values, agg, group_by, final_predicate)
    }

    /// The cached prefix for one phase-2 block of `num_values` positions,
    /// counted (one block, `active streams × num_values` values) and primed
    /// for dispatch ([`ExecBackend::prepare_dispatch`]); a fallback plan has
    /// none and is refused, and so is a block past [`MAX_BLOCK_CELLS`].
    fn cached_block(
        &mut self,
        catalog: &Catalog,
        num_values: usize,
    ) -> Result<DeterministicPrefix> {
        let Mode::Cached(prefix) = &self.mode else {
            return Err(Error::InvalidOperation(
                "cell instantiation needs a cached deterministic prefix".into(),
            ));
        };
        check_block_cells(prefix.skeleton().cells_per_position, num_values)?;
        self.blocks_materialized += 1;
        self.values_materialized += (prefix.num_active_streams() * num_values) as u64;
        self.backend.prepare_dispatch(&self.plan, catalog, prefix)?;
        Ok(DeterministicPrefix::clone(prefix))
    }

    /// Phase 2 for one stream: materialize positions
    /// `base_pos .. base_pos + num_values` of the active stream `key` only,
    /// returning its shared cell columns — bit-identical to the same cells
    /// of a full-width block over the same window, with no bundles rebuilt.
    /// The Gibbs looper draws each chunk of a stream past its initial block
    /// this way.  One stream's window is small, pure `(seed, position)`
    /// work, so it runs inline on the session's pool whatever the backend,
    /// as a dispatching backend regenerates a failed worker's unit locally.
    /// Counts as one block; uncacheable plans have no per-stream unit and
    /// are refused.
    pub fn instantiate_stream(
        &mut self,
        key: StreamKey,
        base_pos: u64,
        num_values: usize,
    ) -> Result<CellCols> {
        let Mode::Cached(prefix) = &self.mode else {
            return Err(Error::InvalidOperation(
                "per-stream instantiation needs a cached deterministic prefix".into(),
            ));
        };
        let at = (prefix.skeleton().active_keys().binary_search(&key)).map_err(|_| {
            Error::InvalidOperation(format!("stream {key} is not active in this plan"))
        })?;
        self.blocks_materialized += 1;
        self.values_materialized += num_values as u64;
        let mut cells =
            crate::shard::generate_streams(prefix, &[at], base_pos, num_values, &self.pool, 1)?;
        Ok(cells.pop().expect("one stream, one cell set"))
    }
}

// ===== Phase 2: block materialization against a cached prefix =====

/// One stream's generated block as shared, immutable per-cell columns.
///
/// The pooled [`ColumnBlock`] a VG kernel fills is a *reused* buffer; bundle
/// values must outlive it.  Converting *moves* each cell column out of the
/// pooled buffer into its own `Arc` ([`BlockBufferPool::adopt_cell`] — a
/// move, not a copy) and lets the pooled buffer go straight back to the
/// pool — after which every bundle referencing the cell shares the same
/// `Arc` ([`crate::bundle::SharedColumn`]), so a join fanning a
/// stream out to `m` bundles clones `m` refcounts, never `m` value vectors,
/// and a worker's `Cells` frames encode the column bytes directly.
#[derive(Debug)]
pub struct CellCols {
    rows: usize,
    cols: usize,
    cells: Cells,
}

/// Cell storage: scalar VG functions (one output row, one output column —
/// the dominant shape) store their single cell inline, skipping the
/// per-stream grid `Vec` allocation.
#[derive(Debug)]
enum Cells {
    Single(Arc<mcdbr_storage::Column>),
    Grid(Vec<Arc<mcdbr_storage::Column>>),
}

impl CellCols {
    /// Move a generated block's cells out of the pooled buffer (see the
    /// type docs; the caller releases `block` immediately afterwards — its
    /// cells are now empty).
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

    /// Cells from `rows × cols` columns in row-major order (a decoded
    /// `Cells` frame); errs unless there are exactly `rows × cols`.
    pub fn from_columns(
        rows: usize,
        cols: usize,
        columns: Vec<mcdbr_storage::Column>,
    ) -> Result<CellCols> {
        if rows.checked_mul(cols) != Some(columns.len()) {
            return Err(Error::Invalid(format!(
                "{} cell columns for a {rows}x{cols} VG output",
                columns.len()
            )));
        }
        let mut columns: Vec<_> = columns.into_iter().map(Arc::new).collect();
        let cells = match columns.len() {
            1 => Cells::Single(columns.pop().expect("one column")),
            _ => Cells::Grid(columns),
        };
        Ok(CellCols { rows, cols, cells })
    }

    /// VG output `(rows, cols)` per position.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Every cell's column, row-major.
    pub fn columns(&self) -> &[Arc<mcdbr_storage::Column>] {
        match &self.cells {
            Cells::Single(cell) => std::slice::from_ref(cell),
            Cells::Grid(grid) => grid,
        }
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
}

/// Every active stream's shared cell columns for one block window, indexed
/// by the stream's position in the skeleton's `active_keys`.  A bundle's
/// stream columns hold that index, so phase 2 reads a cell without a key
/// search.
pub(crate) struct CellData(Vec<CellCols>);

impl CellData {
    /// Adopt `cells`, one per active stream of `prefix` in `active_keys`
    /// order; errs when the count is off.
    pub(crate) fn new(prefix: &DeterministicPrefix, cells: Vec<CellCols>) -> Result<CellData> {
        if cells.len() != prefix.num_active_streams() {
            return Err(Error::Invalid(format!(
                "{} streams' cells for a block of {} active streams",
                cells.len(),
                prefix.num_active_streams()
            )));
        }
        Ok(CellData(cells))
    }

    fn get(&self, at: u32) -> Option<&CellCols> {
        self.0.get(at as usize)
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
    source: &StreamSource,
    expected_rows: usize,
    seed: SeedId,
    base_pos: u64,
    num_values: usize,
    block: &mut ColumnBlock,
) -> Result<()> {
    source
        .vg
        .generate_block_into(&source.params, seed, base_pos, num_values, block)?;
    block.validate(num_values)?;
    if num_values > 0 && block.rows_per_pos() != expected_rows {
        return Err(Error::Invalid(format!(
            "VG function {} produced {} output rows per position in block [{}, {}) \
             but {} during the skeleton probe; the bundle executor requires a \
             seed-independent, fixed row count per parameter row",
            source.vg.name(),
            block.rows_per_pos(),
            base_pos,
            base_pos + num_values as u64,
            expected_rows
        )));
    }
    Ok(())
}

/// Materialize tuple `idx` of the skeleton for a block; `None` when its
/// presence mask is false everywhere (the executor drops such bundles at the
/// filter that produced them — dropping here, after the fact, yields the
/// same output sequence).
///
/// Random attributes become refcount clones of the shared cell columns.
/// Each presence predicate runs its program once over the block, on the
/// offsets earlier predicates kept — the executor's cross-predicate
/// short-circuit (a row failing an earlier predicate never evaluates a
/// later one) — leaving one mask and no row materialization.
pub(crate) fn materialize_bundle(
    prefix: &DeterministicPrefix,
    idx: usize,
    blocks: &CellData,
    base_pos: u64,
    num_values: usize,
) -> Result<Option<TupleBundle>> {
    let batch = &prefix.skeleton.batch;
    let mut values = Vec::with_capacity(batch.columns.len());
    for col in &batch.columns {
        values.push(materialize_value(
            col, idx, prefix, blocks, base_pos, num_values,
        )?);
    }
    let is_pres = match batch.preds.as_slice() {
        [] => None,
        preds => {
            let mut present = Mask::ones(num_values);
            for pred in preds {
                pred.run(idx, blocks, &mut present)?;
            }
            if present.none() {
                return Ok(None);
            }
            Some(present.to_bools())
        }
    };
    Ok(Some(TupleBundle { values, is_pres }))
}

/// Fold every bundle of the skeleton straight into `aggregation`, over a
/// window of `num_values` positions whose streams' cells are `blocks` —
/// what [`materialize_bundle`] and then the aggregate compute, with no bundle
/// built: the same presence masks, the same program inputs (a stream column
/// reads its cell in place, a computed one the column
/// [`materialize_value`] would hold), in skeleton order.  Every column of
/// every bundle is read or computed as a block materializes it, so the
/// window errs if and only if its block would.
pub(crate) fn fold_bundles(
    prefix: &DeterministicPrefix,
    blocks: &CellData,
    num_values: usize,
    aggregation: &mut Aggregation,
) -> Result<()> {
    let batch = &prefix.skeleton.batch;
    let mut computed: Vec<Option<mcdbr_storage::Column>> = vec![None; batch.columns.len()];
    for idx in 0..batch.len {
        for (col, computed) in batch.columns.iter().zip(&mut computed) {
            match col {
                SymColumn::Const(_) => {}
                SymColumn::Stream { .. } if num_values == 0 => {}
                SymColumn::Stream {
                    ids,
                    vg_rows,
                    vg_col,
                } => {
                    cells_for(blocks, ids[idx])?.cell(vg_rows[idx] as usize, *vg_col)?;
                }
                SymColumn::Expr(e) => {
                    let lane = e.run(idx, blocks, &mut Mask::ones(num_values))?;
                    *computed = Some(lane.to_column(num_values));
                }
            }
        }
        let mut present = Mask::ones(num_values);
        for pred in &batch.preds {
            pred.run(idx, blocks, &mut present)?;
        }
        if !batch.preds.is_empty() && present.none() {
            // A block drops the bundle (see `materialize_bundle`).
            continue;
        }
        aggregation.present(idx)?;
        aggregation.fold(idx, &mut present, |column| {
            Ok(match &batch.columns[column] {
                SymColumn::Const(values) => Lane::constant(values[idx].clone()),
                SymColumn::Stream {
                    ids,
                    vg_rows,
                    vg_col,
                } => {
                    Lane::column(cells_for(blocks, ids[idx])?.cell(vg_rows[idx] as usize, *vg_col)?)
                }
                SymColumn::Expr(_) => Lane::column(
                    computed[column]
                        .as_ref()
                        .expect("computed columns are evaluated above"),
                ),
            })
        })?;
    }
    Ok(())
}

fn materialize_value(
    col: &SymColumn,
    idx: usize,
    prefix: &DeterministicPrefix,
    blocks: &CellData,
    base_pos: u64,
    num_values: usize,
) -> Result<BundleValue> {
    match col {
        SymColumn::Const(values) => Ok(BundleValue::Const(values[idx].clone())),
        SymColumn::Stream {
            ids,
            vg_rows,
            vg_col,
        } => {
            let (at, vg_row) = (ids[idx], vg_rows[idx] as usize);
            Ok(BundleValue::Random {
                seed: prefix.seed_of(prefix.skeleton.active_keys[at as usize]),
                vg_row,
                vg_col: *vg_col,
                base_pos,
                // A zero-position block may be legitimately unshaped (the
                // generic fallback path learns its shape from the first
                // position); the empty column is well-formed either way.  The
                // non-empty case is the columnar payoff: a refcount clone of
                // the shared cell column, shared across every bundle (and
                // every join fan-out) reading this cell.
                values: if num_values == 0 {
                    SharedColumn::default()
                } else {
                    SharedColumn::from_arc(Arc::clone(
                        cells_for(blocks, at)?.cell(vg_row, *vg_col)?,
                    ))
                },
            })
        }
        SymColumn::Expr(e) => {
            let lane = e.run(idx, blocks, &mut Mask::ones(num_values))?;
            Ok(BundleValue::Computed(SharedColumn::from_column(
                lane.to_column(num_values),
            )))
        }
    }
}

fn cells_for(blocks: &CellData, at: u32) -> Result<&CellCols> {
    blocks.get(at).ok_or_else(|| {
        Error::Invalid(format!(
            "active stream {at} missing from materialized block"
        ))
    })
}

// ===== Phase 1: the columnar deterministic-skeleton pass =====

pub(crate) enum PrepError {
    /// The plan's bundle structure depends on stream values.
    ValueDependent(String),
    /// An ordinary execution error (missing table/column, illegal join, ...).
    Fail(Error),
}

impl From<Error> for PrepError {
    fn from(e: Error) -> Self {
        PrepError::Fail(e)
    }
}

/// Run the seed-independent deterministic-skeleton pass over `plan`, the
/// plan version `key` names.
///
/// Returns `Err(PrepError::ValueDependent)` for plans whose bundle structure
/// depends on stream values (a `Split` over a random column, paper §8) and
/// `Err(PrepError::Fail)` for ordinary execution errors.
pub(crate) fn build_skeleton(
    plan: &PlanNode,
    catalog: &Catalog,
    key: PlanKey,
) -> std::result::Result<PlanSkeleton, PrepError> {
    let mut pass = SkeletonPass {
        catalog,
        streams: Vec::new(),
    };
    let (schema, mut batch) = pass.exec(plan)?;
    let mut registered: Vec<StreamKey> = pass.streams.iter().map(|(key, ..)| *key).collect();
    registered.sort_unstable();
    registered.dedup();

    // Fold stream ids into indices over the sorted distinct keys the
    // surviving tuples reference (a self-join registers a key twice).
    let mut id_arrays = Vec::new();
    for col in &mut batch.columns {
        col.stream_ids(&mut id_arrays);
    }
    for pred in &mut batch.preds {
        pred.stream_ids(&mut id_arrays);
    }
    let mut referenced = vec![false; pass.streams.len()];
    for &id in id_arrays.iter().flat_map(|ids| ids.iter()) {
        referenced[id as usize] = true;
    }
    let mut active_keys: Vec<StreamKey> = pass
        .streams
        .iter()
        .zip(&referenced)
        .filter_map(|((key, ..), &r)| r.then_some(*key))
        .collect();
    active_keys.sort_unstable();
    active_keys.dedup();
    let mut sources = vec![None; active_keys.len()];
    let at_of: Vec<u32> = pass
        .streams
        .into_iter()
        .map(
            |(key, source, rows)| match active_keys.binary_search(&key) {
                Ok(at) => {
                    sources[at].get_or_insert((source, rows));
                    at as u32
                }
                Err(_) => u32::MAX,
            },
        )
        .collect();
    for id in id_arrays.iter_mut().flat_map(|ids| ids.iter_mut()) {
        *id = at_of[*id as usize];
    }

    let active_sources: Vec<(StreamSource, usize)> = sources.into_iter().flatten().collect();
    let cells_per_position = (active_sources.iter())
        .map(|(source, rows)| (rows * source.vg.output_fields().len()) as u64)
        .sum();
    Ok(PlanSkeleton {
        schema,
        num_streams: registered.len(),
        batch,
        active_keys,
        active_sources,
        cells_per_position,
        key,
    })
}

type SymResult = std::result::Result<(Schema, SymBatch), PrepError>;

/// The state of one skeleton pass: every stream registered so far by id
/// (its key, its recipe and the probed VG output-row count).  A self-join
/// registers a key twice, under two ids with one recipe.
struct SkeletonPass<'c> {
    catalog: &'c Catalog,
    streams: Vec<(StreamKey, StreamSource, usize)>,
}

impl SkeletonPass<'_> {
    /// The columnar mirror of `executor::exec_node`: the same traversal and
    /// the same per-bundle decisions in the same output order, made once per
    /// column, with random attributes lineage-only and streams identified by
    /// seed-independent keys.
    fn exec(&mut self, plan: &PlanNode) -> SymResult {
        match plan {
            PlanNode::TableScan { table } => {
                let t = self.catalog.get(table)?;
                let mut columns: Vec<Vec<Value>> = (0..t.schema().len())
                    .map(|_| Vec::with_capacity(t.len()))
                    .collect();
                // Paged scan: rows are borrowed from the buffer pool one
                // pinned frame at a time (see `Table::try_for_each_row`).
                t.try_for_each_row(|row| {
                    for (col, value) in columns.iter_mut().zip(row.values()) {
                        col.push(value.clone());
                    }
                    Ok(())
                })?;
                let batch = SymBatch {
                    len: t.len(),
                    columns: columns.into_iter().map(SymColumn::Const).collect(),
                    preds: Vec::new(),
                };
                Ok((t.schema().clone(), batch))
            }
            PlanNode::RandomTable(spec) => {
                let catalog = self.catalog;
                let param_table = catalog.get(&spec.param_table)?;
                let param_schema = param_table.schema();
                let out_schema = spec.schema(catalog)?;
                // Per output column: the parameter column it copies, if any.
                let sources: Vec<Option<usize>> = spec
                    .columns
                    .iter()
                    .map(|col| match col {
                        OutputColumn::Param { source, .. } => {
                            param_schema.index_of(source).map(Some)
                        }
                        OutputColumn::Vg { .. } => Ok(None),
                    })
                    .collect::<Result<_>>()?;
                let mut columns: Vec<SymColumn> = spec
                    .columns
                    .iter()
                    .map(|col| match col {
                        OutputColumn::Param { .. } => SymColumn::Const(Vec::new()),
                        OutputColumn::Vg { vg_col, .. } => SymColumn::Stream {
                            ids: Vec::new(),
                            vg_rows: Vec::new(),
                            vg_col: *vg_col,
                        },
                    })
                    .collect();
                let vg_params: Vec<Program> = (spec.vg_params.iter())
                    .map(|e| Program::compile(param_schema, None, Some(e)))
                    .collect();
                let mut len = 0;
                let mut row_idx = 0;
                param_table.try_for_each_row(|param_row| {
                    // Seed operator, seed-independently: record this tuple's
                    // stream by its `(table_tag, row)` key; concrete seeds
                    // are derived at binding time.
                    let key = StreamKey::new(spec.table_tag, row_idx);
                    row_idx += 1;
                    let mut params = Vec::with_capacity(vg_params.len());
                    for p in &vg_params {
                        let value = p.eval_row(|slot| param_row.value(p.slots()[slot]).clone())?;
                        params.push(value.expect("a parameter program keeps every row"));
                    }
                    let source = StreamSource {
                        vg: spec.vg.clone(),
                        params: params.into(),
                    };

                    // Probe one VG invocation to learn the output-row count;
                    // the count is seed-independent by contract (see module
                    // docs) and every materialized block validates against
                    // it.  A zero-row VG output emits no bundles, exactly
                    // like the one-shot executor's `0..vg_rows` loop.
                    let num_rows = source.generate_at(key.bind(PROBE_MASTER_SEED), 0)?.len();
                    let id = u32::try_from(self.streams.len()).expect("under 2^32 streams");
                    self.streams.push((key, source, num_rows));
                    for vg_row in 0..u32::try_from(num_rows).expect("under 2^32 VG rows") {
                        for (col, source) in columns.iter_mut().zip(&sources) {
                            match (col, source) {
                                (SymColumn::Const(values), Some(at)) => {
                                    values.push(param_row.value(*at).clone());
                                }
                                (SymColumn::Stream { ids, vg_rows, .. }, _) => {
                                    ids.push(id);
                                    vg_rows.push(vg_row);
                                }
                                _ => unreachable!("random-table columns are params or VG cells"),
                            }
                        }
                    }
                    len += num_rows;
                    Ok(())
                })?;
                let batch = SymBatch {
                    len,
                    columns,
                    preds: Vec::new(),
                };
                Ok((out_schema, batch))
            }
            PlanNode::Filter { input, predicate } => {
                let (schema, mut batch) = self.exec(input)?;
                let refs = column_indices(predicate, &schema)?;
                let program = Program::compile(&schema, Some(predicate), None);
                if refs.iter().any(|&i| !batch.columns[i].is_const()) {
                    // Random: every tuple defers it into a per-block presence
                    // predicate over the columns it references.
                    let pred = batch.deferred(program);
                    batch.preds.push(pred);
                    return Ok((schema, batch));
                }
                // Deterministic: decide once per tuple, now, and keep the
                // survivors in order.
                let mut keep = Vec::with_capacity(batch.len);
                for idx in 0..batch.len {
                    if batch.eval_const(&program, idx)?.is_some() {
                        keep.push(idx);
                    }
                }
                let batch = if keep.len() == batch.len {
                    batch
                } else {
                    batch.gather(&keep)
                };
                Ok((schema, batch))
            }
            PlanNode::Project { input, exprs } => {
                let (in_schema, batch) = self.exec(input)?;
                let out_schema = plan.schema(self.catalog)?;
                let mut columns = Vec::with_capacity(exprs.len());
                // Constant expressions (output index, program), evaluated
                // tuple by tuple below.
                let mut consts = Vec::new();
                for (out, (_, expr)) in exprs.iter().enumerate() {
                    if let Expr::Column(name) = expr {
                        columns.push(batch.columns[in_schema.index_of(name)?].clone());
                        continue;
                    }
                    let refs = column_indices(expr, &in_schema)?;
                    let program = Program::compile(&in_schema, None, Some(expr));
                    if refs.iter().all(|&i| batch.columns[i].is_const()) {
                        consts.push((out, program));
                        columns.push(SymColumn::Const(Vec::with_capacity(batch.len)));
                    } else {
                        let deferred = batch.deferred(program);
                        columns.push(SymColumn::Expr(Box::new(deferred)));
                    }
                }
                for idx in 0..batch.len {
                    for (out, program) in &consts {
                        let value = batch.eval_const(program, idx)?;
                        if let SymColumn::Const(values) = &mut columns[*out] {
                            values.push(value.expect("a projection keeps every row"));
                        }
                    }
                }
                let batch = SymBatch {
                    len: batch.len,
                    columns,
                    preds: batch.preds,
                };
                Ok((out_schema, batch))
            }
            PlanNode::Join {
                left, right, on, ..
            } => {
                let (ls, lb) = self.exec(left)?;
                let (rs, rb) = self.exec(right)?;
                let out_schema = ls.join(&rs);
                if on.is_empty() {
                    return Err(Error::Invalid("join requires at least one key pair".into()).into());
                }
                let left_cols: Vec<usize> = on
                    .iter()
                    .map(|(l, _)| ls.index_of(l))
                    .collect::<Result<_>>()?;
                let right_cols: Vec<usize> = on
                    .iter()
                    .map(|(_, r)| rs.index_of(r))
                    .collect::<Result<_>>()?;
                // The executor builds on the right before it probes.
                let right_keys = join_keys(&rb, &rs, &right_cols, "right")?;
                let left_keys = join_keys(&lb, &ls, &left_cols, "left")?;
                let (left_idx, right_idx) = join_pairs(&left_keys, lb.len, &right_keys, rb.len);
                let (mut out, right) = (lb.gather(&left_idx), rb.gather(&right_idx));
                out.columns.extend(right.columns);
                out.preds.extend(right.preds);
                Ok((out_schema, out))
            }
            PlanNode::Split { input, column } => {
                let (schema, batch) = self.exec(input)?;
                let idx = schema.index_of(column)?;
                if batch.len > 0 && !batch.columns[idx].is_const() {
                    // The number of post-Split bundles equals the number of
                    // distinct values in the block — structure depends on
                    // values.
                    return Err(PrepError::ValueDependent(format!(
                        "Split({column}) over a random attribute enumerates block values; \
                         the plan has no block-invariant deterministic prefix (paper §8)"
                    )));
                }
                // Split over an already-deterministic column is the
                // executor's passthrough case.
                Ok((schema, batch))
            }
        }
    }
}

/// The schema positions of the columns `expr` references.
fn column_indices(expr: &Expr, schema: &Schema) -> Result<Vec<usize>> {
    expr.referenced_columns()
        .iter()
        .map(|c| schema.index_of(c))
        .collect()
}

/// One [`JoinKey`] vector per key column of `batch`.  A key column must be
/// deterministic; like the executor, which checks tuple by tuple, an empty
/// side never errors.
fn join_keys(
    batch: &SymBatch,
    schema: &Schema,
    cols: &[usize],
    side: &str,
) -> std::result::Result<Vec<Vec<JoinKey>>, PrepError> {
    cols.iter()
        .map(|&i| match &batch.columns[i] {
            SymColumn::Const(values) => Ok(values.iter().map(join_key).collect()),
            _ if batch.len == 0 => Ok(Vec::new()),
            _ => Err(random_join_key(side, &schema.field(i).name).into()),
        })
        .collect()
}

/// The `(left, right)` tuple pairs of an inner equi-join, in the executor's
/// order: build on the right, probe in left order, emit matches in
/// right-insertion order, and never join a `Null` key.  One hash per right
/// tuple, bucketed into a flat index array (right tuples ascending within a
/// bucket): no per-tuple key `Vec`, no per-key match list.  A probe walks its
/// bucket and confirms each candidate key by key.
fn join_pairs(
    left: &[Vec<JoinKey>],
    left_len: usize,
    right: &[Vec<JoinKey>],
    right_len: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mask = right_len.next_power_of_two() - 1;
    let right_hashes: Vec<Option<u64>> = (0..right_len).map(|r| key_hash(right, r)).collect();
    // A counting sort: `starts[b]` ends as bucket `b`'s first slot.
    let mut starts = vec![0u32; mask + 2];
    for h in right_hashes.iter().flatten() {
        starts[*h as usize & mask] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut rows = vec![0u32; starts[mask + 1] as usize];
    let right_rows = u32::try_from(right_len).expect("a join side under 2^32 tuples");
    for (r, h) in (0..right_rows).zip(&right_hashes).rev() {
        if let Some(h) = h {
            let b = *h as usize & mask;
            starts[b] -= 1;
            rows[starts[b] as usize] = r;
        }
    }
    let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
    for l in 0..left_len {
        let Some(h) = key_hash(left, l) else {
            continue;
        };
        let b = h as usize & mask;
        for &r in &rows[starts[b] as usize..starts[b + 1] as usize] {
            let r = r as usize;
            if right_hashes[r] == Some(h) && left.iter().zip(right).all(|(lc, rc)| lc[l] == rc[r]) {
                left_idx.push(l);
                right_idx.push(r);
            }
        }
    }
    (left_idx, right_idx)
}

/// Tuple `row`'s hash over its key columns, `None` for a `Null` key (SQL:
/// `NULL` never joins): the `FxHash` multiply-rotate step per column and
/// the murmur3 finalizer, so the low bits that pick a bucket depend on every
/// key bit.  Join keys come from the catalog the embedding program built,
/// never from a client, so SipHash's flooding resistance buys nothing; and
/// unequal keys may collide — probes confirm every match.
fn key_hash(keys: &[Vec<JoinKey>], row: usize) -> Option<u64> {
    let mut h = 0u64;
    for col in keys {
        let word = match &col[row] {
            JoinKey::Null => return None,
            JoinKey::Int(i) => *i as u64,
            JoinKey::Bits(bits) => *bits,
            JoinKey::Bool(b) => u64::from(*b),
            JoinKey::Str(s) => s
                .bytes()
                .fold(0, |w, b| (w ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)),
        };
        h = (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    Some(h ^ (h >> 33))
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
        let key = PlanKey::new(&plan, &catalog);
        let skeleton = Arc::new(build_skeleton(&plan, &catalog, key).unwrap_or_else(|_| panic!()));
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
        let mut session = ExecSession::prepare(&plan, &catalog, 3).unwrap();
        let reference = session.instantiate_block(&catalog, 0, 64).unwrap();
        let (backend, pool) = (InProcessBackend::new(), BlockBufferPool::new());
        for threads in [1, 8] {
            let prefix = session.prefix().unwrap();
            let block = backend.instantiate_block(prefix, &pool, threads, 0, 64);
            assert_sets_identical(&block.unwrap(), &reference);
        }
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
        assert_eq!(prefix.num_streams(), 3, "the pass counts every stream");
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
        // reuse counts are exact (a block split into concurrent units adds
        // timing-dependent intra-block reuses).
        let catalog = catalog();
        let mut session = ExecSession::prepare(&losses_plan(), &catalog, 7).unwrap();
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
        assert_eq!(session.prefix().unwrap().num_streams(), 0);
        assert!(block.bundles.iter().all(|b| b.is_fully_const()));
    }
}
