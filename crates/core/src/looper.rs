//! The `GibbsLooper` operator (paper §7 and Appendix A).
//!
//! The looper receives the stream of instantiated Gibbs tuples produced by a
//! query plan, plus the final aggregate, the pulled-up selection predicate,
//! and the file of TS-seeds, and then runs the bootstrapped tail-sampling
//! procedure of Algorithm 3 *without ever re-running the query per candidate
//! value*: DB versions are never materialized; they are "completely
//! determined by the current state of the Gibbs tuples and the TS-seeds"
//! (Appendix A.2).
//!
//! Two paper design points are reproduced exactly:
//!
//! * **Loop order** (§7): the looper iterates *seed-major* — for each TS-seed
//!   handle in increasing order it updates every DB version before moving on
//!   — rather than version-major, "thereby amortizing expensive data scans".
//!   The paper achieves the seed-major grouping with a disk-based priority
//!   queue of Gibbs tuples keyed by their smallest unprocessed TS-seed
//!   handle; this one keeps TS-seeds, the seed -> Gibbs-tuple index and the
//!   stream keys in vectors indexed by a dense seed *ordinal* — its rank in
//!   ascending [`SeedId`] order, the sweep order.  One [`Program`],
//!   compiled per run from the final predicate and the aggregate, evaluates
//!   the affected Gibbs tuples straight from their columns with
//!   `Expr::eval`'s semantics exactly.
//!   A join fans one stream out to many tuples (Appendix D: each order's
//!   loss to its `g_i` lineitems), so each seed's tuples are grouped once
//!   into *runs* of consecutive tuples whose program inputs are identical —
//!   same stream cell, bitwise-equal constants — and the program runs once
//!   per run, its value added once per tuple in tuple order, which keeps
//!   every sum bit-identical to the per-tuple loop.
//! * **A candidate costs a load and a compare** (App. A.2: the looper
//!   decides "does this candidate keep the version above the cutoff?"
//!   without re-running the query).  A seed is *separable* when every
//!   program input of its runs is its own stream or a constant — every
//!   Appendix D seed is — so its contribution to a version is a function
//!   `c(pos)` of the one position assigned to it.  For such a seed the
//!   looper keeps each version's current contribution beside the TS-seed's
//!   assignment (cloned with it, overwritten by an accepted candidate), and
//!   evaluates candidates a chunk of consecutive positions at a time with
//!   the program's column driver, folding each run lane-wise in tuple
//!   order so every position's sum is the row path's, bit for bit.  The
//!   sampler then scans the chunk: the old contribution is a load and each
//!   candidate an add and a compare.  A chunk below the initial block stops
//!   at the block's end; where the column driver errs on a chunk, its
//!   positions take the row path one at a time, so an error is raised only
//!   by a position the sampler consumes.  A seed that is not separable (a
//!   tuple reading two streams, as in salary inversion) recomputes both
//!   contributions row at a time, since another seed's update may have
//!   moved them.  The initial per-version aggregates (App. A.1) and
//!   contributions are lanes over positions `0..n`, which the identity
//!   mapping assigns.
//! * **Gibbs tuples are lineage** (App. A.2).  A Gibbs tuple's share of a
//!   DB version is which stream cell or constant feeds each program slot;
//!   the looper reads that in place from the plan skeleton
//!   ([`mcdbr_exec::PlanSkeleton::lineage`]) and never builds a tuple
//!   bundle.  One full-width draw of every active stream's cells over
//!   positions `0..block` ([`mcdbr_exec::ExecSession::instantiate_cells`],
//!   on the looper's backend) seeds the run; each TS-seed keeps its
//!   stream's cells, and they never change after it.
//! * **Streams past the initial block** (§6, §9).  A stream value is a pure
//!   function of `(seed, position)`, so past
//!   the block the looper keeps no materialized range: a chunk starting
//!   there draws its stream's positions `[pos, end)` once, when the sweep
//!   reaches them ([`mcdbr_exec::ExecSession::instantiate_stream`]: no scan,
//!   join or constant predicate re-runs), and the next chunk drops it.  A
//!   version reads again only its assigned position: a separable seed keeps
//!   its contribution there, any other the values its runs read there (§6
//!   item (5)), taken from the chunk when a candidate is accepted.  This
//!   leaves the paper's §9 replenishment *mechanism*, which stores values
//!   because MCDB must re-run the query to regenerate them, and keeps its
//!   output: samples, cutoffs and positions consumed are those of one block
//!   wide enough for every stream.  Plan executions (1), blocks
//!   materialized (1 + the draws past the block, `replenishments`) and
//!   values materialized are reported to show the cost structure.
//!
//! Restrictions (documented, checked, and consistent with the paper):
//! selection predicates that touch random attributes must be pulled up into
//! the final predicate (Appendix A, input 3); the aggregate must be SUM or
//! COUNT (incrementally updatable); grouping is handled by running one
//! looper per group (Appendix A, footnote 4); the plan must have a cacheable
//! deterministic prefix, which only `Split` over a random column lacks.

use std::ops::Range;
use std::sync::Arc;

use mcdbr_exec::program::Lane;
use mcdbr_exec::{
    AggFunc, CellCols, ExecBackend, ExecSession, InProcessBackend, Lineage, PlanSkeleton, Program,
    SessionCache, ShardStats,
};
use mcdbr_mcdb::MonteCarloQuery;
use mcdbr_prng::{SeedId, StreamKey};
use mcdbr_storage::{Catalog, Column, Error, Mask, Result, Value};

use crate::gibbs::GibbsStats;
use crate::params::{optimal_m, staged_parameters_with_m, StagedParameters};
use crate::ts_seed::TsSeed;

/// Configuration of a tail-sampling run.
#[derive(Debug, Clone)]
pub struct TailSamplingConfig {
    /// Target upper-tail probability `p` (e.g. 0.001 for the 0.999-quantile).
    pub p: f64,
    /// Number of tail samples `l` to return.
    pub l: usize,
    /// Total sample budget `N` across all bootstrapping steps.
    pub total_samples: usize,
    /// Number of bootstrapping steps `m`; `None` uses the Appendix C optimum.
    pub m: Option<usize>,
    /// Stream values materialized per stream by the initial full-width
    /// block (paper §5: the trade-off between carrying data through the plan
    /// and re-running the plan); past it a stream is drawn a chunk at a time.
    pub block_size: usize,
    /// Candidate budget per component update before the rejection loop keeps
    /// the previous value (at least 1).
    pub max_candidates: u64,
    /// Master seed for reproducibility.
    pub master_seed: u64,
}

impl TailSamplingConfig {
    /// A configuration with the paper's defaults (1000-value blocks) for the
    /// given tail probability, sample count, and budget.  Every
    /// perturbation is one Gibbs updating step (the paper's `k = 1`).
    pub fn new(p: f64, l: usize, total_samples: usize) -> Self {
        TailSamplingConfig {
            p,
            l,
            total_samples,
            m: None,
            block_size: 1000,
            max_candidates: 100_000,
            master_seed: 0x4D43_4442, // ASCII "MCDB"
        }
    }

    /// Override the number of bootstrapping steps.
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }

    /// Override the master seed.
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Override the block size.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Refuse, by field name, what [`TailSamplingConfig::staged`] would
    /// assert on, and a run that could try no candidate.
    fn validate(&self) -> Result<()> {
        let (p, n) = (self.p, self.total_samples);
        let bad = if !(p > 0.0 && p < 1.0) {
            format!("p = {p} must lie in (0, 1)")
        } else if n == 0 {
            "total_samples must be at least 1".into()
        } else if let Some(m) = self.m.filter(|m| !(1..=n).contains(m)) {
            format!("m = {m} must lie in 1..=total_samples ({n})")
        } else if self.max_candidates == 0 {
            "max_candidates must be at least 1".into()
        } else {
            return Ok(());
        };
        Err(Error::InvalidOperation(format!(
            "invalid TailSamplingConfig: {bad}"
        )))
    }

    /// Resolve the staged parameters this configuration implies.
    pub fn staged(&self) -> StagedParameters {
        let m = self
            .m
            .unwrap_or_else(|| optimal_m(self.total_samples, self.p));
        staged_parameters_with_m(self.total_samples, self.p, m)
    }
}

/// The output of a tail-sampling run.
#[derive(Debug, Clone)]
pub struct TailSampleResult {
    /// Estimate of the `(1-p)`-quantile (the final cutoff `θ̂`).
    pub quantile_estimate: f64,
    /// The `l` query-result samples from the tail.
    pub tail_samples: Vec<f64>,
    /// Cutoff after each bootstrapping step.
    pub cutoffs: Vec<f64>,
    /// Gibbs acceptance statistics across the whole run.
    pub gibbs: GibbsStats,
    /// Number of times deterministic plan work ran.  With a cacheable plan
    /// this is at most 1 — the skeleton pass — no matter how many chunks
    /// are drawn past the initial block, and exactly 0 when the looper's
    /// [`SessionCache`] already held the plan's skeleton (e.g. a repeated
    /// run, or a shared cache warmed by another looper under any master
    /// seed).
    pub plan_executions: usize,
    /// Number of blocks materialized: the initial draw of every active
    /// stream's cells plus one single-stream chunk per draw past it
    /// (`1 + replenishments`).
    pub blocks_materialized: usize,
    /// Stream values materialized (streams × positions, summed over those
    /// blocks) — the volume the run generated.  Of these it holds the
    /// initial cells of every stream a Gibbs tuple carries and the last
    /// chunk, and for each seed that is not separable the values each
    /// version reads past the block.
    pub values_materialized: u64,
    /// 1 when this run's session came out of the session cache, else 0
    /// (summable across runs, mirroring the engine-level counters): phase 1
    /// was skipped entirely.
    pub skeleton_hits: usize,
    /// 1 when this run's session had to run the deterministic skeleton
    /// pass, else 0.
    pub skeleton_misses: usize,
    /// Number of single-stream chunks drawn past the initial block (the
    /// work the paper's §9 replenishment runs did).
    pub replenishments: usize,
    /// Logical bytes written into pooled columnar block buffers across the
    /// run (initial block + chunks past it).
    pub bytes_materialized: u64,
    /// Columnar buffer acquisitions served by recycling the session's
    /// [`mcdbr_exec::BlockBufferPool`] instead of allocating — every chunk
    /// past the initial block reuses a warm buffer.
    pub buffer_reuses: u64,
    /// Total stream positions consumed across all TS-seeds.
    pub stream_positions_consumed: u64,
    /// This run's window of its execution backend's counters — shard tasks
    /// and worker-process dispatch and its failures for the initial
    /// cells (all zero where the backend has nothing to report, e.g.
    /// `shards_spawned` on the in-process backend); the chunks past the
    /// block run inline and count nothing.  Attributed by
    /// snapshotting the backend's cumulative [`mcdbr_exec::ShardStats`]
    /// around the run, so a backend shared across *concurrent* runs blurs
    /// per-run attribution (see the `ShardStats` docs); results themselves
    /// are never affected.
    pub backend: ShardStats,
    /// The staged parameters the run used.
    pub parameters: StagedParameters,
}

/// The GibbsLooper operator.
#[derive(Debug)]
pub struct GibbsLooper {
    query: MonteCarloQuery,
    config: TailSamplingConfig,
    cache: Arc<SessionCache>,
    backend: Arc<dyn ExecBackend>,
}

impl GibbsLooper {
    /// Create a looper for an (ungrouped) Monte Carlo aggregation query,
    /// with a private [`SessionCache`] (repeated [`GibbsLooper::run`] calls
    /// still share skeletons; use [`GibbsLooper::with_cache`] to share
    /// across loopers), running on the in-process backend
    /// ([`GibbsLooper::with_backend`] picks another).
    pub fn new(query: MonteCarloQuery, config: TailSamplingConfig) -> Self {
        GibbsLooper {
            query,
            config,
            cache: Arc::new(SessionCache::new()),
            backend: Arc::new(InProcessBackend::new()),
        }
    }

    /// Use a shared session cache: loopers over the same `(plan, catalog)`
    /// pair — regardless of master seed — then pay the deterministic
    /// skeleton pass once between them.
    pub fn with_cache(mut self, cache: Arc<SessionCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Draw the initial cells of every active stream on an explicit
    /// execution backend ([`ExecBackend::instantiate_cells`]; the
    /// single-stream chunks drawn past them always run inline).  Results
    /// are bit-identical for every backend; only its counters (`backend` on
    /// the result) differ.
    pub fn with_backend(mut self, backend: Arc<dyn ExecBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Run tail sampling against the catalog.
    pub fn run(&self, catalog: &Catalog) -> Result<TailSampleResult> {
        self.sample(catalog).map(|(result, ..)| result)
    }

    /// [`GibbsLooper::run`], also handing back the TS-seeds the run ended
    /// with.
    fn sample(&self, catalog: &Catalog) -> Result<(TailSampleResult, Seeds)> {
        self.config.validate()?;
        if !self.query.group_by.is_empty() {
            return Err(Error::InvalidOperation(
                "GibbsLooper handles GROUP BY as one looper per group (paper App. A fn. 4); \
                 add the group's selection predicate to the plan and run each group separately"
                    .into(),
            ));
        }
        let value = match self.query.aggregate.func {
            AggFunc::Sum => Some(&self.query.aggregate.expr),
            AggFunc::Count => None,
            other => {
                return Err(Error::InvalidOperation(format!(
                    "GibbsLooper requires an incrementally-updatable aggregate (SUM or COUNT), \
                     got {other:?}"
                )))
            }
        };

        let params = self.config.staged();
        let n = params.n_per_step;
        let m = params.m;
        let p_step = params.p_per_step;
        let l = self.config.l;
        // The initial identity mapping needs at least n materialized values.
        let block = self.config.block_size.max(n);

        // ===== Run the deterministic plan skeleton at most once (paper §5)
        // — the plan-keyed session cache skips it entirely when a previous
        // run already built this plan's skeleton, under any master seed —
        // then draw every stream's initial cells against the bound prefix.
        // Chunks past the block reuse the same session and never re-run
        // scans, joins, or constant predicates.
        let backend_stats_before = self.backend.shard_stats();
        let mut session = self
            .cache
            .session(&self.query.plan, catalog, self.config.master_seed)?
            .with_backend(Arc::clone(&self.backend));
        // A chunk past the block addresses one stream of the cached prefix
        // by key; a plan without a prefix has nothing to address and is
        // refused before anything is materialized.
        let Some(prefix) = session.prefix() else {
            return Err(Error::InvalidOperation(format!(
                "GibbsLooper needs a plan with a cacheable deterministic prefix: {}",
                session.fallback_reason().unwrap_or_default()
            )));
        };
        let skeleton = Arc::clone(prefix.skeleton());
        let predicate = self.query.final_predicate.as_ref();
        let program = Program::compile(skeleton.schema(), predicate, value);
        validate_skeleton(&skeleton, program.slots())?;
        let tuples = skeleton.num_bundles();
        if tuples == 0 {
            return Err(Error::InvalidOperation(
                "the query plan produced no tuples; the query-result distribution is degenerate"
                    .into(),
            ));
        }
        let cells = session.instantiate_cells(catalog, 0, block)?;
        let mut seeds = Seeds::new(session, skeleton, cells, program.slots(), n, block as u64)?;

        // ===== Initial per-version aggregates (App. A.1), and each separable
        // seed's contribution to them: under the identity mapping version
        // `v` reads position `v` of every stream, so both are lanes over
        // positions `0..n`.
        let mut num_versions = n;
        let all = runs(
            |b, c| seeds.skeleton.lineage(b, c),
            program.slots(),
            0..tuples,
        );
        let mut version_aggregates = seeds.initial(&program, &all, n)?;
        seeds.current = (0..seeds.ts.len())
            .map(|ord| match seeds.separable[ord] {
                true => seeds.initial(&program, &seeds.runs[ord], n),
                false => Ok(Vec::new()),
            })
            .collect::<Result<_>>()?;

        let mut cutoffs = Vec::with_capacity(m);
        let mut gibbs = GibbsStats::default();

        // ===== Bootstrapping steps (Algorithm 3). =====
        for step in 0..m {
            // NaN has no place in the order the cutoff and the elites are
            // drawn from (and `total_cmp` would reorder the -0.0 / 0.0 ties
            // the pinned sample sequences depend on): refuse it by name.
            if let Some(v) = version_aggregates.iter().position(|a| a.is_nan()) {
                return Err(Error::InvalidOperation(format!(
                    "DB version {v} aggregates to NaN in bootstrapping step {step}; tail sampling \
                     needs totally ordered query results"
                )));
            }
            // The (p·|S|)-largest aggregate becomes the cutoff.
            let mut sorted: Vec<f64> = version_aggregates.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("NaN aggregates rejected above"));
            let elite_count =
                ((p_step * num_versions as f64).round() as usize).clamp(1, num_versions);
            let cutoff = sorted[elite_count - 1];
            cutoffs.push(cutoff);

            // Elite versions (ties broken by version index, taking exactly
            // elite_count of them).
            let mut order: Vec<usize> = (0..num_versions).collect();
            order.sort_by(|&a, &b| {
                version_aggregates[b]
                    .partial_cmp(&version_aggregates[a])
                    .expect("NaN aggregates rejected above")
            });
            let elites: Vec<usize> = order[..elite_count].to_vec();

            // CLONE up to the next stage's size by copying TS-seed assignment
            // columns (App. A.2 / Fig. 4(b)), and what is kept beside them.
            let next_size = if step + 1 == m { l } else { n };
            let sources: Vec<usize> = (0..next_size).map(|i| elites[i % elites.len()]).collect();
            seeds.reassign_from(&sources);
            version_aggregates = sources.iter().map(|&s| version_aggregates[s]).collect();
            num_versions = next_size;

            // Gibbs perturbation, seed-major (§7): one sweep (the paper's k = 1).
            for ord in 0..seeds.ts.len() {
                let separable = seeds.separable[ord];
                // Candidates an update has taken so far: what sizes a
                // separable seed's chunks.
                let candidates = gibbs.accepted + gibbs.rejected + 1;
                let per_version = candidates as f64 / (gibbs.accepted + 1) as f64;
                for (v, aggregate) in version_aggregates.iter_mut().enumerate() {
                    let want = ((num_versions - v) as f64 * per_version) as u64;
                    // A separable seed's contribution is a load; any
                    // other seed's depends on the other seeds its tuples
                    // read, which may have moved since.
                    let old_contribution = match separable {
                        true => seeds.current[ord][v],
                        false => seeds.contribution(&program, &seeds.runs[ord], v, None)?,
                    };
                    let mut candidates_tried = 0u64;
                    loop {
                        let budget = self.config.max_candidates - candidates_tried;
                        if budget == 0 {
                            gibbs.exhausted += 1;
                            break;
                        }
                        let pos = seeds.ts[ord].next_unused();
                        // The contributions at `pos` and the positions
                        // after it, tried in order until one keeps the
                        // version at or above the cutoff.
                        let next = seeds.candidates(&program, (ord, v), pos, want)?;
                        let next = &next[..next.len().min(budget as usize)];
                        let hit = next
                            .iter()
                            .position(|&c| *aggregate - old_contribution + c >= cutoff)
                            .map(|i| (i, next[i]));
                        let tried = hit.map_or(next.len(), |(i, _)| i + 1) as u64;
                        candidates_tried += tried;
                        if let Some((i, new_contribution)) = hit {
                            seeds.assign(ord, v, pos + i as u64);
                            if separable {
                                seeds.current[ord][v] = new_contribution;
                            }
                            *aggregate = *aggregate - old_contribution + new_contribution;
                            gibbs.accepted += 1;
                            gibbs.rejected += tried - 1;
                            break;
                        }
                        // The candidates are consumed even though they
                        // were rejected (Fig. 3: the rejected 3.24 / 3.68
                        // are never revisited).
                        let ts = &mut seeds.ts[ord];
                        ts.max_used = ts.max_used.max(pos + tried - 1);
                        gibbs.rejected += tried;
                    }
                }
            }
        }

        let session = &seeds.session;
        let result = TailSampleResult {
            quantile_estimate: *cutoffs.last().unwrap_or(&f64::NAN),
            tail_samples: version_aggregates,
            cutoffs,
            gibbs,
            plan_executions: session.plan_executions(),
            blocks_materialized: session.blocks_materialized(),
            values_materialized: session.values_materialized(),
            skeleton_hits: usize::from(session.skeleton_hit()),
            skeleton_misses: usize::from(!session.skeleton_hit()),
            replenishments: seeds.draws,
            bytes_materialized: session.bytes_materialized(),
            buffer_reuses: session.buffer_reuses(),
            stream_positions_consumed: seeds.ts.iter().map(|ts| ts.max_used + 1).sum(),
            backend: self.backend.shard_stats().since(backend_stats_before),
            parameters: params,
        };
        Ok((result, seeds))
    }
}

/// Reject plans whose Gibbs tuples lost lineage (a computed column the
/// program reads) or pushed random predicates below the looper
/// (per-repetition isPres has repetition semantics, not DB-version
/// semantics).
fn validate_skeleton(skeleton: &PlanSkeleton, slots: &[usize]) -> Result<()> {
    if skeleton.defers_presence() {
        return Err(Error::InvalidOperation(
            "plans feeding GibbsLooper must not filter on random attributes below the \
             looper; pull such predicates into the final predicate (paper App. A, input 3)"
                .into(),
        ));
    }
    // A computed column is computed for every tuple, so its first names it.
    let computed =
        |i: usize| skeleton.num_bundles() > 0 && skeleton.lineage(0, i) == Lineage::Computed;
    match slots.iter().find(|&&i| computed(i)) {
        Some(&i) => Err(Error::InvalidOperation(format!(
            "column {} lost its stream lineage (it was computed by a projection); \
             keep arithmetic over random attributes inside the aggregate expression",
            skeleton.schema().field(i).name
        ))),
        None => Ok(()),
    }
}

/// A run of Gibbs tuples with identical program inputs: its first tuple and
/// its length.
type Run = (usize, usize);

/// `indices` as maximal runs of consecutive Gibbs tuples whose inputs to
/// every program slot are identical: the same stream cell or
/// bitwise-equal constants.  `input(b, c)` is tuple `b`'s column `c`.
fn runs<'a>(
    input: impl Fn(usize, usize) -> Lineage<'a>,
    slots: &[usize],
    indices: impl IntoIterator<Item = usize>,
) -> Vec<Run> {
    let same = |a: usize, b: usize| {
        slots.iter().all(|&c| match (input(a, c), input(b, c)) {
            // Bits, not `==`: `0.0 == -0.0` and `NaN != NaN`.
            (Lineage::Const(Value::Float64(x)), Lineage::Const(Value::Float64(y))) => {
                x.to_bits() == y.to_bits()
            }
            (x @ (Lineage::Const(_) | Lineage::Stream { .. }), y) => x == y,
            (Lineage::Computed, _) => false,
        })
    };
    let mut runs: Vec<Run> = Vec::new();
    for b in indices {
        match runs.last_mut() {
            Some((first, len)) if same(*first, b) => *len += 1,
            _ => runs.push((b, 1)),
        }
    }
    runs
}

/// The most stream positions one chunk covers.  A chunk is sized to the
/// candidates the seed is expected to try in the rest of its sweep, plus an
/// eighth (see [`Seeds::candidates`]), so most seeds compute one chunk a
/// sweep and leave few of its positions unconsumed; the cap bounds the
/// scratch, and a draw past the initial block, when acceptance collapses.
const MAX_CHUNK: u64 = 4096;

/// The looper's TS-seed state, indexed by seed *ordinal*: a seed's rank in
/// ascending [`SeedId`] order, which is the seed-major sweep order (§7).
struct Seeds {
    /// The TS-seed of each ordinal (§6).
    ts: Vec<TsSeed>,
    /// The run's session, which draws the chunks past the initial block,
    /// and the stream key each ordinal's chunks address.
    session: ExecSession,
    keys: Vec<StreamKey>,
    /// The plan skeleton: each Gibbs tuple's lineage, read in place.
    skeleton: Arc<PlanSkeleton>,
    /// Each ordinal's cells over the initial block, positions `0..block`.
    initial: Vec<CellCols>,
    /// The initial block's end: a position below it is read from the
    /// ordinal's initial cells; one at or past it from the chunk that draws
    /// it.
    block: u64,
    /// The Gibbs tuples carrying each ordinal's stream, in skeleton order,
    /// as [`runs`].
    runs: Vec<Vec<Run>>,
    /// `ords[b * slots + s]`: the ordinal behind Gibbs tuple `b`'s input to
    /// program slot `s` (`usize::MAX` where that input is a constant).
    ords: Vec<usize>,
    /// Whether each ordinal is *separable*: every program input of its
    /// runs is its own stream or a constant, so its contribution to a
    /// version is a function of the position assigned to it alone.
    separable: Vec<bool>,
    /// Each separable ordinal's contribution to each version at its
    /// assigned position (empty for any other ordinal).
    current: Vec<Vec<f64>>,
    /// Each other ordinal's values at each version's assigned position
    /// (empty for a separable ordinal).
    kept: Vec<Kept>,
    /// The last chunk drawn or evaluated, for whichever ordinal asked last.
    chunk: Chunk,
    /// Chunks drawn past the initial block.
    draws: usize,
}

/// The stream values a version reads at its assigned position (§6 item
/// (5)): `values[v * cells.len() + c]` is VG output cell `cells[c]` at
/// version `v`'s position, where that lies past the initial block (below
/// it, the ordinal's initial cells hold the value).
#[derive(Debug, Default)]
struct Kept {
    /// The `(VG row, VG column)` cells the program reads, ascending.
    cells: Vec<(usize, usize)>,
    values: Vec<Value>,
}

/// An ordinal's stream positions `start..end`, either all below the initial
/// block or all at or past it.
#[derive(Debug, Default)]
struct Chunk {
    ord: usize,
    start: u64,
    end: u64,
    /// The stream's cells at `start..end` when the chunk lies past the
    /// initial block.
    cells: Option<CellCols>,
    /// A separable ordinal's contributions: `c(start + i)` in
    /// `lanes.totals` if `ok`; else the column driver erred somewhere in
    /// the chunk, whose positions then take the row path one at a time.
    lanes: Lanes,
    ok: bool,
    /// The last contribution the row path computed for a candidate.
    row: f64,
}

/// The column driver's scratch ([`Seeds::lanes`]): the contributions it
/// folds, and the selection each run's program narrows.
#[derive(Debug, Default)]
struct Lanes {
    totals: Vec<f64>,
    sel: Mask,
}

impl Seeds {
    /// Index every seed the Gibbs tuples' columns carry — read by the
    /// program or not, so each is swept — with `versions` identity-mapped
    /// DB versions (App. A.1) over the initial block `cells`: every active
    /// stream's cells for positions `0..block`, in `active_keys` order.
    /// The cells of a stream no tuple column carries are dropped.
    fn new(
        session: ExecSession,
        skeleton: Arc<PlanSkeleton>,
        cells: Vec<CellCols>,
        slots: &[usize],
        versions: usize,
        block: u64,
    ) -> Result<Self> {
        let active = skeleton.active_keys();
        if cells.len() != active.len() {
            return Err(Error::Invalid(format!(
                "{} streams' cells for {} active streams",
                cells.len(),
                active.len()
            )));
        }
        let (tuples, width) = (skeleton.num_bundles(), skeleton.schema().len());
        let stream = |b: usize, c: usize| match skeleton.lineage(b, c) {
            Lineage::Stream { at, vg_row, vg_col } => Some((at, (vg_row, vg_col))),
            _ => None,
        };
        // The tuples whose columns carry each active stream.
        let mut carriers: Vec<Vec<usize>> = vec![Vec::new(); active.len()];
        for b in 0..tuples {
            for (at, _) in (0..width).filter_map(|c| stream(b, c)) {
                // A tuple reading one stream twice is one tuple of it.
                if carriers[at].last() != Some(&b) {
                    carriers[at].push(b);
                }
            }
        }
        let master = session.master_seed();
        let mut seeds: Vec<(SeedId, usize)> = (0..active.len())
            .filter(|&at| !carriers[at].is_empty())
            .map(|at| (active[at].bind(master), at))
            .collect();
        seeds.sort_unstable();
        if seeds.is_empty() {
            return Err(Error::InvalidOperation(
                "the query references no random attributes; use the plain MCDB engine instead"
                    .into(),
            ));
        }
        let mut ord_of = vec![usize::MAX; active.len()];
        for (ord, &(_, at)) in seeds.iter().enumerate() {
            ord_of[at] = ord;
        }
        let mut cells: Vec<Option<CellCols>> = cells.into_iter().map(Some).collect();
        let initial: Vec<CellCols> = (seeds.iter())
            .map(|&(_, at)| cells[at].take().expect("one ordinal per stream"))
            .collect();
        let mut ords = Vec::with_capacity(tuples * slots.len());
        for b in 0..tuples {
            for &c in slots {
                ords.push(match stream(b, c) {
                    Some((at, (row, col))) => {
                        // Every cell the program reads must be in the block.
                        initial[ord_of[at]].cell(row, col)?;
                        ord_of[at]
                    }
                    None => usize::MAX,
                });
            }
        }
        let runs: Vec<Vec<Run>> = (seeds.iter())
            .map(|&(_, at)| runs(|b, c| skeleton.lineage(b, c), slots, carriers[at].drain(..)))
            .collect();
        let width = slots.len();
        let separable: Vec<bool> = (runs.iter().enumerate())
            .map(|(o, runs)| {
                let own = |&(b, _): &Run| {
                    let inputs = &ords[b * width..(b + 1) * width];
                    inputs.iter().all(|&i| i == o || i == usize::MAX)
                };
                runs.iter().all(own)
            })
            .collect();
        // A tuple reading a stream repeats the inputs of one of its runs, so
        // those name every cell the program reads of a kept stream.
        let kept = (0..seeds.len())
            .map(|o| {
                let mut cells = Vec::new();
                for &(b, _) in runs[o].iter().filter(|_| !separable[o]) {
                    for (s, &c) in slots.iter().enumerate() {
                        if let (true, Some((_, cell))) = (ords[b * width + s] == o, stream(b, c)) {
                            cells.push(cell);
                        }
                    }
                }
                cells.sort_unstable();
                cells.dedup();
                let values = vec![Value::Null; versions * cells.len()];
                Kept { cells, values }
            })
            .collect();
        Ok(Seeds {
            ts: seeds
                .iter()
                .map(|&(s, _)| TsSeed::new(s, versions))
                .collect(),
            session,
            keys: seeds.iter().map(|&(_, at)| active[at]).collect(),
            initial,
            skeleton,
            block,
            runs,
            ords,
            separable,
            current: Vec::new(),
            kept,
            chunk: Chunk::default(),
            draws: 0,
        })
    }

    /// The column holding stream position `pos` of ordinal `ord`'s VG
    /// output cell `(row, col)`, and the position's index in it: the
    /// ordinal's initial cells below the initial block, else the current
    /// chunk's, which must hold `pos`.
    fn cell(&self, ord: usize, (row, col): (usize, usize), pos: u64) -> (&Column, usize) {
        let (cells, start) = match pos < self.block {
            true => (&self.initial[ord], 0),
            false => {
                let chunk = &self.chunk;
                let cells = chunk.cells.as_ref().expect("a chunk holds its positions");
                (cells, chunk.start)
            }
        };
        let cell = cells
            .cell(row, col)
            .expect("a block has the skeleton's shape");
        (cell, (pos - start) as usize)
    }

    /// The contribution of the Gibbs tuples in `runs` to DB version `v`'s
    /// aggregate, with ordinal `cand.0` at candidate position `cand.1` if
    /// given: one program run per run, its value added once per tuple from
    /// `0.0` in tuple order — the per-tuple sum, bit for bit.  The row
    /// path: what a seed that is not separable evaluates for every old and
    /// candidate contribution, and a separable one only where the column
    /// driver erred on a chunk ([`Seeds::lanes`]).  Every other input is
    /// read at its assigned position.
    fn contribution(
        &self,
        program: &Program,
        runs: &[Run],
        v: usize,
        cand: Option<(usize, u64)>,
    ) -> Result<f64> {
        let width = program.slots().len();
        let mut total = 0.0;
        for &(b, len) in runs {
            let ords = &self.ords[b * width..(b + 1) * width];
            let input = |slot: usize| match self.skeleton.lineage(b, program.slots()[slot]) {
                Lineage::Stream { vg_row, vg_col, .. } => {
                    let (ord, cell) = (ords[slot], (vg_row, vg_col));
                    let pos = match cand {
                        Some((o, pos)) if o == ord => pos,
                        _ => match self.ts[ord].assignment[v] {
                            pos if pos < self.block => pos,
                            _ => {
                                let kept = &self.kept[ord];
                                let c = kept.cells.binary_search(&cell).expect("a kept cell");
                                return kept.values[v * kept.cells.len() + c].clone();
                            }
                        },
                    };
                    let (col, i) = self.cell(ord, cell, pos);
                    col.value_at(i)
                }
                Lineage::Const(value) => value.clone(),
                Lineage::Computed => unreachable!("computed program inputs are refused"),
            };
            if let Some(x) = program.eval_row_f64(input)? {
                for _ in 0..len {
                    total += x;
                }
            }
        }
        Ok(total)
    }

    /// [`Seeds::contribution`] at every stream position of `range` at once,
    /// every input read at the same position, into `out.totals`: each run's
    /// program runs once over the range on the column driver, and its value
    /// is added once per tuple, runs in tuple order, so each position's sum
    /// is the row path's additions in the row path's order.  Every input
    /// must hold `range` in one place (the initial block or the current
    /// chunk).  Errs where the column driver does; which error is the row
    /// path's to say.
    fn lanes(
        &self,
        program: &Program,
        runs: &[Run],
        range: Range<u64>,
        out: &mut Lanes,
    ) -> Result<()> {
        let n = (range.end - range.start) as usize;
        let width = program.slots().len();
        let Lanes { totals, sel } = out;
        totals.clear();
        totals.resize(n, 0.0);
        for &(b, len) in runs {
            sel.fill_with(n, |_| true);
            let ords = &self.ords[b * width..(b + 1) * width];
            let lane = program.eval_block(sel, |slot| {
                Ok(match self.skeleton.lineage(b, program.slots()[slot]) {
                    Lineage::Stream { vg_row, vg_col, .. } => {
                        let (col, i) = self.cell(ords[slot], (vg_row, vg_col), range.start);
                        Lane::column_range(col, i..i + n)
                    }
                    Lineage::Const(value) => Lane::constant(value.clone()),
                    Lineage::Computed => unreachable!("computed program inputs are refused"),
                })
            })?;
            for (i, total) in totals.iter_mut().enumerate() {
                if sel.get(i) {
                    let x = match lane.value_at(i) {
                        Value::Float64(x) => x,
                        other => other.as_f64()?,
                    };
                    for _ in 0..len {
                        *total += x;
                    }
                }
            }
        }
        Ok(())
    }

    /// The contribution of the Gibbs tuples in `runs` to each of the first
    /// `versions` identity-mapped versions (App. A.1: version `v` reads
    /// position `v` of every stream): [`Seeds::lanes`] over `0..versions`,
    /// or the row path version by version, raising its error, where the
    /// column driver errs.
    fn initial(&self, program: &Program, runs: &[Run], versions: usize) -> Result<Vec<f64>> {
        let mut out = Lanes::default();
        match self.lanes(program, runs, 0..versions as u64, &mut out) {
            Ok(()) => Ok(out.totals),
            Err(_) => (0..versions)
                .map(|v| self.contribution(program, runs, v, None))
                .collect(),
        }
    }

    /// Ordinal `ord`'s contributions to version `v` at candidate position
    /// `pos` and, for a separable ordinal, the positions after it that the
    /// current chunk holds; a separable ordinal, or any past the initial
    /// block, starts a new chunk at a position it does not hold.  Any other
    /// ordinal, and a chunk the column driver erred on, yields `pos` alone
    /// from the row path, so only a consumed position raises its error.
    fn candidates(
        &mut self,
        program: &Program,
        (ord, v): (usize, usize),
        pos: u64,
        want: u64,
    ) -> Result<&[f64]> {
        let (chunk, separable) = (&self.chunk, self.separable[ord]);
        let held = chunk.ord == ord && (chunk.start..chunk.end).contains(&pos);
        if !held && (separable || pos >= self.block) {
            self.fill(program, ord, pos, want)?;
        }
        if separable && self.chunk.ok {
            return Ok(&self.chunk.lanes.totals[(pos - self.chunk.start) as usize..]);
        }
        let cand = Some((ord, pos));
        self.chunk.row = self.contribution(program, &self.runs[ord], v, cand)?;
        Ok(std::slice::from_ref(&self.chunk.row))
    }

    /// Make the chunk ordinal `ord`'s from `pos`: about `want` positions (16
    /// to [`MAX_CHUNK`]), stopping at the initial block's end if `pos` lies
    /// below it, else drawn from the stream once, here.  A separable
    /// ordinal's contributions are evaluated over it at once.
    fn fill(&mut self, program: &Program, ord: usize, pos: u64, want: u64) -> Result<()> {
        let len = (want + want / 8 + 8).clamp(16, MAX_CHUNK);
        let (end, cells) = match pos < self.block {
            true => ((pos + len).min(self.block), None),
            false => {
                self.draws += 1;
                let cells = self
                    .session
                    .instantiate_stream(self.keys[ord], pos, len as usize)?;
                (pos + len, Some(cells))
            }
        };
        let mut lanes = std::mem::take(&mut self.chunk.lanes);
        self.chunk = Chunk {
            ord,
            start: pos,
            end,
            cells,
            ..Chunk::default()
        };
        if self.separable[ord] {
            let ok = self.lanes(program, &self.runs[ord], pos..end, &mut lanes);
            self.chunk.ok = ok.is_ok();
        }
        self.chunk.lanes = lanes;
        Ok(())
    }

    /// Assign position `pos` to ordinal `ord`'s version `v`; past the
    /// initial block, keep the values the program reads there, from the
    /// current chunk, which holds `pos`.
    fn assign(&mut self, ord: usize, v: usize, pos: u64) {
        self.ts[ord].assign(v, pos);
        let Kept { cells, values } = &mut self.kept[ord];
        if pos < self.block || cells.is_empty() {
            return;
        }
        let chunk = &self.chunk;
        let cols = chunk.cells.as_ref().expect("a chunk holds its positions");
        for (c, &(row, col)) in cells.iter().enumerate() {
            let cell = cols.cell(row, col).expect("a chunk has the block's shape");
            values[v * cells.len() + c] = cell.value_at((pos - chunk.start) as usize);
        }
    }

    /// Clone versions: new version `v` takes old version `sources[v]`'s
    /// assignment and what is kept beside it.
    fn reassign_from(&mut self, sources: &[usize]) {
        for ts in &mut self.ts {
            ts.reassign_from(sources);
        }
        for current in self.current.iter_mut().filter(|c| !c.is_empty()) {
            *current = sources.iter().map(|&s| current[s]).collect();
        }
        for Kept { cells, values } in self.kept.iter_mut().filter(|k| !k.cells.is_empty()) {
            let w = cells.len();
            *values = (sources.iter())
                .flat_map(|&s| values[s * w..(s + 1) * w].iter().cloned())
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_exec::plan::{scalar_random_table, OutputColumn};
    use mcdbr_exec::{AggregateSpec, Expr, PlanNode, RandomTableSpec};
    use mcdbr_storage::{Field, Schema as StorageSchema, TableBuilder, Value};
    use mcdbr_vg::math::std_normal_quantile;
    use mcdbr_vg::{DiscreteVg, MultiNormalVg, NormalVg};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// A catalog with `r` customers whose losses are Normal(mean_i, 1).
    fn catalog(means: &[f64]) -> Catalog {
        let mut b = TableBuilder::new(StorageSchema::new(vec![
            Field::int64("cid"),
            Field::float64("m"),
        ]));
        for (i, &m) in means.iter().enumerate() {
            b = b.row([Value::Int64(i as i64), Value::Float64(m)]);
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
    fn paper_section_4_2_configuration_runs() {
        // §4.2: three customers with means 3, 4, 5; p = 1/32, n = 4, m = 5.
        let catalog = catalog(&[3.0, 4.0, 5.0]);
        let config = TailSamplingConfig::new(1.0 / 32.0, 4, 20)
            .with_m(5)
            .with_block_size(64)
            .with_master_seed(7);
        let looper = GibbsLooper::new(losses_query(), config);
        let result = looper.run(&catalog).unwrap();
        assert_eq!(result.tail_samples.len(), 4);
        assert_eq!(result.cutoffs.len(), 5);
        // Every final sample lies at or above the final cutoff, and cutoffs
        // are non-decreasing (the walk out to the tail).
        for w in result.cutoffs.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "cutoffs {:?}", result.cutoffs);
        }
        for &s in &result.tail_samples {
            assert!(s >= result.quantile_estimate - 1e-9);
        }
        // p^(1/m) = 0.5 per step.
        assert!((result.parameters.p_per_step - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_estimate_matches_the_analytic_normal_sum() {
        // SUM of 30 Normal(i/10, 1) losses is Normal(μ, 30); check the
        // estimated 0.99-quantile against the closed form, averaged over a
        // few runs.
        let means: Vec<f64> = (0..30).map(|i| i as f64 / 10.0).collect();
        let mu: f64 = means.iter().sum();
        let sd = 30f64.sqrt();
        let truth = mu + sd * std_normal_quantile(0.99);
        let catalog = catalog(&means);
        let runs = 6;
        let mut sum_est = 0.0;
        for run in 0..runs {
            let config = TailSamplingConfig::new(0.01, 30, 600)
                .with_m(2)
                .with_block_size(700)
                .with_master_seed(1000 + run);
            let result = GibbsLooper::new(losses_query(), config)
                .run(&catalog)
                .unwrap();
            sum_est += result.quantile_estimate;
        }
        let mean_est = sum_est / runs as f64;
        assert!(
            (mean_est - truth).abs() < 0.12 * sd,
            "estimate {mean_est} vs analytic {truth} (sd {sd})"
        );
    }

    #[test]
    fn tail_samples_exceed_the_true_quantile_most_of_the_time() {
        let means = vec![1.0; 20];
        let catalog = catalog(&means);
        let truth = 20.0 + 20f64.sqrt() * std_normal_quantile(0.95);
        let config = TailSamplingConfig::new(0.05, 50, 400)
            .with_m(2)
            .with_block_size(400)
            .with_master_seed(3);
        let result = GibbsLooper::new(losses_query(), config)
            .run(&catalog)
            .unwrap();
        let above = result.tail_samples.iter().filter(|&&x| x >= truth).count();
        assert!(
            above as f64 >= 0.5 * result.tail_samples.len() as f64,
            "only {above}/{} samples beyond the true quantile {truth}",
            result.tail_samples.len()
        );
    }

    #[test]
    fn final_predicate_is_respected() {
        // Only losses above 0 count; with means well above zero this barely
        // changes the result, but the plumbing must not error and the result
        // must stay above the cutoff.
        let catalog = catalog(&[3.0, 4.0, 5.0]);
        let query = losses_query().with_final_predicate(Expr::col("val").gt(Expr::lit(0.0)));
        let config = TailSamplingConfig::new(0.1, 8, 60)
            .with_m(2)
            .with_block_size(64);
        let result = GibbsLooper::new(query, config).run(&catalog).unwrap();
        assert_eq!(result.tail_samples.len(), 8);
        assert!(result.gibbs.accepted > 0);
    }

    #[test]
    fn small_blocks_force_replenishment_runs() {
        let catalog = catalog(&[3.0, 4.0, 5.0]);
        // A tiny block relative to the sampling effort guarantees the sweep
        // runs past it and draws chunks of single streams (the work of §9's
        // replenishment runs) — but the deterministic plan work still
        // happens exactly once, at session prepare time.
        let config = TailSamplingConfig::new(0.05, 10, 200)
            .with_m(3)
            .with_block_size(40)
            .with_master_seed(11);
        let result = GibbsLooper::new(losses_query(), config)
            .run(&catalog)
            .unwrap();
        assert!(
            result.replenishments > 0,
            "expected at least one replenishment"
        );
        assert_eq!(result.blocks_materialized, 1 + result.replenishments);
        assert_eq!(
            result.plan_executions, 1,
            "replenishment must not re-run the plan"
        );
        // Every draw is one single-stream chunk generated inline through the
        // session's pool, which recycles one warm buffer for it.
        assert!(
            result.buffer_reuses >= result.replenishments as u64,
            "each replenishment must reuse a warm buffer ({} reuses, {} replenishments)",
            result.buffer_reuses,
            result.replenishments
        );
        assert!(result.bytes_materialized > 0);
        // 3 streams' initial block of 67 values (n = 200 / 3 rounds up past
        // the configured 40), then at most one chunk per draw.
        let initial = result.parameters.n_per_step.max(40) as u64;
        let drawn = result.values_materialized - 3 * initial;
        assert!(
            drawn <= result.replenishments as u64 * MAX_CHUNK,
            "{result:?}"
        );
        // Larger blocks need fewer block materializations, and still exactly
        // one plan execution.
        let config_big = TailSamplingConfig::new(0.05, 10, 200)
            .with_m(3)
            .with_block_size(4000)
            .with_master_seed(11);
        let result_big = GibbsLooper::new(losses_query(), config_big)
            .run(&catalog)
            .unwrap();
        assert!(result_big.blocks_materialized < result.blocks_materialized);
        assert_eq!(result_big.plan_executions, 1);
    }

    /// The §9 guarantee, end to end: tail sampling with a tiny initial block
    /// (many chunks drawn past it) and with one huge block (none) must agree
    /// exactly, because a chunk draws precisely the stream values a longer
    /// initial materialization would have contained.
    fn assert_replenishment_is_transparent(
        query: &MonteCarloQuery,
        catalog: &Catalog,
        config: &TailSamplingConfig,
        (small, big): (usize, usize),
    ) {
        let run = |block| {
            GibbsLooper::new(query.clone(), config.clone().with_block_size(block))
                .run(catalog)
                .unwrap()
        };
        let (small, big) = (run(small), run(big));
        assert!(small.replenishments > 0 && big.replenishments == 0);
        assert_eq!(small.tail_samples, big.tail_samples);
        assert_eq!(small.cutoffs, big.cutoffs);
        assert_eq!(small.gibbs, big.gibbs);
        assert_eq!(
            small.stream_positions_consumed,
            big.stream_positions_consumed
        );
    }

    #[test]
    fn replenishment_matches_a_single_long_run() {
        let config = TailSamplingConfig::new(0.05, 10, 200)
            .with_m(3)
            .with_master_seed(11);
        let catalog = catalog(&[3.0, 4.0, 5.0]);
        assert_replenishment_is_transparent(&losses_query(), &catalog, &config, (40, 4000));
        // Two seeds per bundle: drawing one must leave its partner's values
        // and assignments alone.
        let (catalog, query) = salary_inversion();
        let config = TailSamplingConfig::new(0.05, 12, 240)
            .with_m(2)
            .with_master_seed(21);
        assert_replenishment_is_transparent(&query, &catalog, &config, (1, 20_000));
    }

    #[test]
    fn replenishment_never_touches_a_gibbs_tuple() {
        // Salary inversion reads two streams per tuple; a one-value block
        // sends both far past it.  What the looper holds at the end is each
        // stream's initial cells, one chunk of at most `MAX_CHUNK`
        // positions of one stream, and for each seed (none is separable)
        // the values each version reads at its assigned position, which are
        // the stream's values there.
        let (catalog, query) = salary_inversion();
        let config = TailSamplingConfig::new(0.05, 12, 240)
            .with_m(2)
            .with_block_size(1)
            .with_master_seed(21);
        let looper = GibbsLooper::new(query, config);
        let (result, mut seeds) = looper.sample(&catalog).unwrap();
        assert!(result.replenishments > 0 && seeds.draws == result.replenishments);
        let block = result.parameters.n_per_step;
        assert_eq!(seeds.initial.len(), seeds.ts.len());
        for cells in &seeds.initial {
            assert!(cells.columns().iter().all(|c| c.len() == block));
        }
        let chunk = &seeds.chunk;
        let len = (chunk.end - chunk.start) as usize;
        assert!(chunk.start >= block as u64 && len as u64 <= MAX_CHUNK);
        let cells = chunk.cells.as_ref().unwrap();
        assert!(cells.columns().iter().all(|c| c.len() == len));
        let mut past = 0;
        for (ord, kept) in seeds.kept.iter().enumerate() {
            assert_eq!(kept.cells, [(0, 0)]);
            assert_eq!(kept.values.len(), result.tail_samples.len());
            for (v, &pos) in seeds.ts[ord].assignment.iter().enumerate() {
                if pos >= block as u64 {
                    let drawn = seeds.session.instantiate_stream(seeds.keys[ord], pos, 1);
                    let drawn = drawn.unwrap();
                    assert_eq!(kept.values[v], drawn.cell(0, 0).unwrap().value_at(0));
                    past += 1;
                }
            }
        }
        assert!(past > 0);
    }

    #[test]
    fn the_looper_holds_each_carried_streams_whole_initial_grid() {
        // A 3-row `(component, value)` VG whose plan keeps only `value`:
        // the initial draw generates 3 × 2 cells per stream, and the looper
        // keeps all six of each carried stream, the three `component` cells
        // no tuple names included — what the draw generated, no more, and
        // never above the draw's own peak.  The program reads `value` only.
        let catalog = catalog(&[3.0, 4.0]);
        let plan = PlanNode::random_table(RandomTableSpec {
            name: "Components".into(),
            param_table: "means".into(),
            vg: Arc::new(MultiNormalVg::new(3, 0.5)),
            vg_params: vec![Expr::col("m"), Expr::lit(1.0)],
            columns: vec![
                OutputColumn::Param {
                    source: "cid".into(),
                    as_name: "cid".into(),
                },
                OutputColumn::Vg {
                    vg_col: 1,
                    as_name: "value".into(),
                },
            ],
            table_tag: 1,
        });
        let query = MonteCarloQuery::new(plan, AggregateSpec::sum(Expr::col("value"), "total"));
        let config = TailSamplingConfig::new(0.25, 8, 40)
            .with_m(2)
            .with_block_size(64)
            .with_master_seed(5);
        let (result, seeds) = GibbsLooper::new(query, config).sample(&catalog).unwrap();
        assert_eq!(result.tail_samples.len(), 8);
        assert_eq!(seeds.initial.len(), 2);
        for cells in &seeds.initial {
            assert_eq!(cells.shape(), (3, 2));
            assert!(cells.columns().iter().all(|c| c.len() == 64));
        }
        assert!(seeds.separable.iter().all(|&s| s));
    }

    #[test]
    fn unreferenced_computed_columns_are_never_read() {
        // `scaled` is a Computed chain indexed by block offset, 64 long; the
        // aggregate only reads `val`.  Version rows used to materialize every
        // column at the *version* index and ran off the chain once l > 64.
        let catalog = catalog(&[3.0, 4.0, 5.0]);
        let mut query = losses_query();
        query.plan = query.plan.project(vec![
            ("scaled", Expr::col("val").mul(Expr::lit(2.0))),
            ("val", Expr::col("val")),
        ]);
        let config = TailSamplingConfig::new(0.25, 200, 40)
            .with_m(2)
            .with_block_size(64);
        let result = GibbsLooper::new(query, config).run(&catalog).unwrap();
        assert_eq!(result.tail_samples.len(), 200);
    }

    #[test]
    fn plans_without_a_cacheable_prefix_are_rejected_up_front() {
        // `Split` over a random column: no prefix, hence no per-stream
        // unit to draw past the block.  A typed error naming the reason, raised
        // before any block is materialized.
        let catalog = catalog(&[3.0, 4.0]);
        let mut query = losses_query();
        query.plan = query.plan.split("val");
        let config = TailSamplingConfig::new(0.1, 4, 40)
            .with_m(2)
            .with_block_size(64);
        let err = GibbsLooper::new(query, config).run(&catalog).unwrap_err();
        assert!(matches!(err, Error::InvalidOperation(_)), "{err}");
        assert!(err.to_string().contains("Split(val)"), "{err}");
    }

    #[test]
    fn grouped_queries_and_bad_aggregates_are_rejected() {
        let catalog = catalog(&[3.0, 4.0]);
        let grouped = losses_query().with_group_by(vec!["cid".to_string()]);
        let config = TailSamplingConfig::new(0.1, 4, 40)
            .with_m(2)
            .with_block_size(64);
        assert!(GibbsLooper::new(grouped, config.clone())
            .run(&catalog)
            .is_err());

        let mut avg_query = losses_query();
        avg_query.aggregate = AggregateSpec::avg(Expr::col("val"), "avgLoss");
        assert!(GibbsLooper::new(avg_query, config).run(&catalog).is_err());
    }

    #[test]
    fn nan_aggregates_are_a_typed_error_not_a_panic() {
        let catalog = catalog(&[3.0, 4.0, 5.0]);
        let mut query = losses_query();
        query.aggregate = AggregateSpec::sum(Expr::col("val").mul(Expr::lit(f64::NAN)), "nanLoss");
        let config = TailSamplingConfig::new(0.1, 4, 40)
            .with_m(2)
            .with_block_size(64);
        let err = GibbsLooper::new(query, config).run(&catalog).unwrap_err();
        assert!(matches!(err, Error::InvalidOperation(_)), "{err}");
        assert!(err.to_string().contains("DB version 0"), "{err}");
    }

    #[test]
    fn plans_that_lose_lineage_are_rejected() {
        let catalog = catalog(&[3.0, 4.0]);
        // Projecting val+1 produces a Computed column; aggregating it must fail.
        let mut query = losses_query();
        query.plan = query.plan.project(vec![
            ("val", Expr::col("val").add(Expr::lit(1.0))),
            ("cid", Expr::col("cid")),
        ]);
        let config = TailSamplingConfig::new(0.1, 4, 40)
            .with_m(2)
            .with_block_size(64);
        let err = GibbsLooper::new(query, config.clone()).run(&catalog);
        assert!(err.is_err());

        // Filtering on the random attribute below the looper must fail too.
        let mut query = losses_query();
        query.plan = query.plan.filter(Expr::col("val").gt(Expr::lit(2.0)));
        assert!(GibbsLooper::new(query, config).run(&catalog).is_err());
    }

    #[test]
    fn session_cache_skips_the_skeleton_on_repeated_runs() {
        let catalog = catalog(&[3.0, 4.0, 5.0]);
        let config = TailSamplingConfig::new(0.1, 6, 60)
            .with_m(2)
            .with_block_size(128)
            .with_master_seed(5);
        let looper = GibbsLooper::new(losses_query(), config.clone());
        let first = looper.run(&catalog).unwrap();
        assert_eq!((first.skeleton_hits, first.skeleton_misses), (0, 1));
        assert_eq!(first.plan_executions, 1);
        // A second run of the same looper reuses the cached skeleton —
        // phase 1 never runs — and is bit-identical.
        let second = looper.run(&catalog).unwrap();
        assert_eq!((second.skeleton_hits, second.skeleton_misses), (1, 0));
        assert_eq!(second.plan_executions, 0);
        assert_eq!(first.tail_samples, second.tail_samples);
        assert_eq!(first.cutoffs, second.cutoffs);

        // A shared cache serves a different looper under a *fresh master
        // seed*: only stream seeds are re-derived, and the result matches a
        // cold run at that seed exactly.
        let shared = Arc::new(SessionCache::new());
        let warm = GibbsLooper::new(losses_query(), config.clone().with_master_seed(7))
            .with_cache(Arc::clone(&shared));
        let _ = warm.run(&catalog).unwrap();
        let reused = GibbsLooper::new(losses_query(), config.with_master_seed(9))
            .with_cache(Arc::clone(&shared))
            .run(&catalog)
            .unwrap();
        assert_eq!((reused.skeleton_hits, reused.skeleton_misses), (1, 0));
        let cold = GibbsLooper::new(
            losses_query(),
            TailSamplingConfig::new(0.1, 6, 60)
                .with_m(2)
                .with_block_size(128)
                .with_master_seed(9),
        )
        .run(&catalog)
        .unwrap();
        assert_eq!(reused.tail_samples, cold.tail_samples);
        assert_eq!(reused.cutoffs, cold.cutoffs);
    }

    #[test]
    fn runs_are_reproducible_per_master_seed() {
        let catalog = catalog(&[3.0, 4.0, 5.0]);
        let mk = |seed| {
            TailSamplingConfig::new(0.1, 6, 60)
                .with_m(2)
                .with_block_size(128)
                .with_master_seed(seed)
        };
        let a = GibbsLooper::new(losses_query(), mk(5))
            .run(&catalog)
            .unwrap();
        let b = GibbsLooper::new(losses_query(), mk(5))
            .run(&catalog)
            .unwrap();
        let c = GibbsLooper::new(losses_query(), mk(6))
            .run(&catalog)
            .unwrap();
        assert_eq!(a.tail_samples, b.tail_samples);
        assert_eq!(a.cutoffs, b.cutoffs);
        assert_ne!(a.tail_samples, c.tail_samples);
    }

    /// A small version of the §5 salary-inversion pattern: an uncertain
    /// salary table joined to a deterministic supervision table, with the
    /// sal2 > sal1 predicate pulled up into the looper.
    fn salary_inversion() -> (Catalog, MonteCarloQuery) {
        let mut catalog = Catalog::new();
        let emp_params = TableBuilder::new(StorageSchema::new(vec![
            Field::utf8("eid"),
            Field::float64("msal"),
        ]))
        .row([Value::str("Joe"), Value::Float64(26.0)])
        .row([Value::str("Sue"), Value::Float64(24.0)])
        .row([Value::str("Ann"), Value::Float64(43.0)])
        .row([Value::str("Jim"), Value::Float64(77.0)])
        .build()
        .unwrap();
        let sup = TableBuilder::new(StorageSchema::new(vec![
            Field::utf8("boss"),
            Field::utf8("peon"),
        ]))
        .row([Value::str("Sue"), Value::str("Joe")])
        .row([Value::str("Jim"), Value::str("Sue")])
        .row([Value::str("Jim"), Value::str("Ann")])
        .build()
        .unwrap();
        catalog.register("emp_params", emp_params).unwrap();
        catalog.register("sup", sup).unwrap();

        let emp = |tag| {
            PlanNode::random_table(scalar_random_table(
                "emp",
                "emp_params",
                Arc::new(NormalVg),
                vec![Expr::col("msal"), Expr::lit(4.0)],
                &["eid"],
                "sal",
                tag,
            ))
        };
        // sup ⋈ emp1 (boss) ⋈ emp2 (peon).  Both emp instances share the same
        // streams (tag 1): a self-join reuses the same uncertain table.  Join
        // keys name the right input's own columns; the joined schema renames
        // the second emp's columns to eid_1 / sal_1.
        let plan = PlanNode::scan("sup")
            .join(emp(1), vec![("boss", "eid")])
            .join(emp(1), vec![("peon", "eid")]);
        let aggregate = AggregateSpec::sum(Expr::col("sal_1").sub(Expr::col("sal")), "inversion");
        let query = MonteCarloQuery::new(plan, aggregate)
            .with_final_predicate(Expr::col("sal_1").gt(Expr::col("sal")));
        (catalog, query)
    }

    #[test]
    fn multi_table_join_query_with_pulled_up_predicate() {
        let (catalog, query) = salary_inversion();
        let config = TailSamplingConfig::new(0.05, 12, 240)
            .with_m(2)
            .with_block_size(300)
            .with_master_seed(21);
        let result = GibbsLooper::new(query, config).run(&catalog).unwrap();
        assert_eq!(result.tail_samples.len(), 12);
        // Salary inversions are non-negative by construction of the predicate.
        assert!(result.tail_samples.iter().all(|&x| x >= -1e-9));
        // The tail of this distribution is clearly positive.
        assert!(result.quantile_estimate > 0.0);
    }

    #[test]
    fn invalid_configs_are_typed_errors_before_any_session() {
        let catalog = catalog(&[3.0, 4.0]);
        for (config, field) in [
            (TailSamplingConfig::new(0.1, 4, 3).with_m(5), "m = 5"),
            (TailSamplingConfig::new(0.1, 4, 3).with_m(0), "m = 0"),
            (TailSamplingConfig::new(1.5, 4, 40), "p = 1.5"),
            (TailSamplingConfig::new(0.1, 4, 0), "total_samples"),
            (
                TailSamplingConfig {
                    max_candidates: 0,
                    ..TailSamplingConfig::new(0.1, 4, 40)
                },
                "max_candidates",
            ),
        ] {
            let cache = Arc::new(SessionCache::new());
            let err = GibbsLooper::new(losses_query(), config)
                .with_cache(Arc::clone(&cache))
                .run(&catalog)
                .unwrap_err();
            assert!(matches!(err, Error::InvalidOperation(_)), "{err}");
            assert!(err.to_string().contains(field), "{err}");
            assert!(cache.is_empty(), "no session may exist: {err}");
        }
    }

    /// The compiled loop equals the referee bit for bit, and every tail
    /// sample equals its version's aggregate recomputed from scratch — by
    /// the referee — over the TS-seed assignments the run ended with.  The
    /// referee reads each stream up to the last position the run consumed
    /// of it: values are pure in `(seed, position)`.  Returns the compiled
    /// run.
    fn assert_compiled_matches_referee(
        looper: &GibbsLooper,
        catalog: &Catalog,
    ) -> TailSampleResult {
        let (got, seeds) = looper.sample(catalog).unwrap();
        let ts: BTreeMap<SeedId, TsSeed> = seeds.ts.into_iter().map(|t| (t.seed, t)).collect();
        let width = |seed| ts[&seed].max_used as usize + 1;
        let block = referee::Block::new(looper, catalog, width).unwrap();
        for (v, &x) in got.tail_samples.iter().enumerate() {
            let full = block.contribution(&looper.query, &ts, None, v, None);
            let full = full.unwrap();
            assert!(
                (full - x).abs() <= 1e-9 * x.abs().max(1.0),
                "version {v}: incremental {x}, from scratch {full}"
            );
        }
        let want = referee::run(looper, &block).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ctx = format!("{:?}", looper.config);
        assert_eq!(bits(&got.tail_samples), bits(&want.tail_samples), "{ctx}");
        assert_eq!(bits(&got.cutoffs), bits(&want.cutoffs), "{ctx}");
        assert_eq!(got.gibbs, want.gibbs, "{ctx}");
        let consumed = got.stream_positions_consumed;
        assert_eq!(consumed, want.stream_positions_consumed, "{ctx}");
        got
    }

    #[test]
    fn compiled_loop_equals_the_scalar_referee_over_the_seed_space() {
        let losses = catalog(&[3.0, 4.0, 5.0]);
        let big = Expr::col("val").gt(Expr::lit(3.5));
        let mut count = losses_query().with_final_predicate(big.clone());
        count.aggregate = AggregateSpec::count("n");
        let mut doubled = losses_query();
        doubled.aggregate = AggregateSpec::sum(Expr::col("val").mul(Expr::lit(2i64)), "x2");
        let (salaries, inversion) = salary_inversion();
        let (positions, portfolio) = portfolio();
        let (items, weighted) = weighted_fanout();
        let shapes = [
            (&losses, losses_query()),
            (&losses, losses_query().with_final_predicate(big)),
            (&losses, count),
            (&salaries, inversion),
            (&positions, portfolio),
            (&losses, doubled),
            (&items, weighted),
        ];
        for (catalog, query) in &shapes {
            let mut replenished = [0, 0];
            for master in 0..16 {
                for (i, block) in [1, 20_000].into_iter().enumerate() {
                    let config = TailSamplingConfig::new(0.1, 8, 60)
                        .with_m(2)
                        .with_block_size(block)
                        .with_master_seed(master);
                    let looper = GibbsLooper::new(query.clone(), config);
                    replenished[i] +=
                        assert_compiled_matches_referee(&looper, catalog).replenishments;
                }
            }
            // The tiny block draws past itself, the huge one never does.
            assert!(replenished[0] > 0 && replenished[1] == 0, "{replenished:?}");
        }
    }

    #[test]
    fn compiled_loop_equals_the_scalar_referee_on_the_tpch_join() {
        let w = mcdbr_workloads::TpchWorkload::generate(mcdbr_workloads::TpchConfig::test_scale())
            .unwrap();
        for master in [77, 79] {
            let config = TailSamplingConfig::new(0.25f64.powi(5), 100, 300)
                .with_m(5)
                .with_master_seed(master);
            let looper = GibbsLooper::new(w.total_loss_query(), config);
            assert_compiled_matches_referee(&looper, &w.catalog);
        }
    }

    /// `SUM(val * w)` over a fan-out join: each loss stream feeds several
    /// tuples whose weights repeat, consecutively (one run) and not (two).
    fn weighted_fanout() -> (Catalog, MonteCarloQuery) {
        let mut catalog = catalog(&[3.0, 4.0, 5.0]);
        let mut b = TableBuilder::new(StorageSchema::new(vec![
            Field::int64("icid"),
            Field::float64("w"),
        ]));
        for (cid, w) in [
            (0, 1.0),
            (1, 0.5),
            (0, 1.0),
            (2, -1.0),
            (0, 2.0),
            (1, 3.0),
            (0, 1.0),
            (2, -1.0),
            (1, 0.5),
        ] {
            b = b.row([Value::Int64(cid), Value::Float64(w)]);
        }
        catalog.register("items", b.build().unwrap()).unwrap();
        let mut query = losses_query();
        query.plan = query
            .plan
            .join(PlanNode::scan("items"), vec![("cid", "icid")]);
        query.aggregate = AggregateSpec::sum(Expr::col("val").mul(Expr::col("w")), "weighted");
        (catalog, query)
    }

    #[test]
    fn runs_never_merge_tuples_whose_inputs_differ() {
        // Every tuple reads the same stream cell in slot 0 and the value
        // under test in slot 1; column 2 is not read, so it differing (a
        // lineitem key, say) never splits a run.
        let random = |vg_col| Lineage::Stream {
            at: 0,
            vg_row: 0,
            vg_col,
        };
        let (one, two) = (Value::Int64(1), Value::Int64(2));
        let floats = [1.0, 2.0, 0.0, -0.0].map(Value::Float64);
        let nan = |payload| Value::Float64(f64::from_bits(f64::NAN.to_bits() | payload));
        let nans = [nan(1), nan(2)];
        let keys: Vec<Value> = (0..5).map(Value::Int64).collect();
        let lens = |inputs: &[Lineage]| {
            let tuple = |b: usize, c: usize| match c {
                0 => random(0),
                1 => inputs[b],
                _ => Lineage::Const(&keys[b]),
            };
            let runs = runs(tuple, &[0, 1], 0..inputs.len());
            runs.iter().map(|&(_, len)| len).collect::<Vec<_>>()
        };
        let int = Lineage::Const;
        let float = |i: usize| Lineage::Const(&floats[i]);
        for (what, a, b) in [
            ("Float64 constants", float(0), float(1)),
            ("signed zeros", float(2), float(3)),
            (
                "NaN payloads",
                Lineage::Const(&nans[0]),
                Lineage::Const(&nans[1]),
            ),
            ("Int64 constants", int(&one), int(&two)),
            ("VG columns", random(1), random(2)),
        ] {
            assert_eq!(lens(&[a, b]), [1, 1], "{what}");
            assert_eq!(lens(&[a, b, a]), [1, 1, 1], "{what}: A, B, A");
            // Identical inputs — the same bits, NaN included — do merge.
            assert_eq!(lens(&[a, a, b, b, b]), [2, 3], "{what}");
        }
    }

    /// `SUM(qty * (s0 - value))` in the style of the portfolio workload: an
    /// `Int64` constant times a float constant minus a random price.
    fn portfolio() -> (Catalog, MonteCarloQuery) {
        let mut b = TableBuilder::new(StorageSchema::new(vec![
            Field::int64("aid"),
            Field::float64("s0"),
            Field::int64("qty"),
        ]));
        for (aid, s0, qty) in [(0, 10.0, 3), (1, 20.0, -2), (2, 15.0, 5)] {
            b = b.row([Value::Int64(aid), Value::Float64(s0), Value::Int64(qty)]);
        }
        let mut catalog = Catalog::new();
        catalog.register("positions", b.build().unwrap()).unwrap();
        let plan = PlanNode::random_table(scalar_random_table(
            "future",
            "positions",
            Arc::new(NormalVg),
            vec![Expr::col("s0"), Expr::lit(2.0)],
            &["aid", "s0", "qty"],
            "value",
            20,
        ));
        let loss = Expr::col("qty").mul(Expr::col("s0").sub(Expr::col("value")));
        let query = MonteCarloQuery::new(plan, AggregateSpec::sum(loss, "totalLoss"));
        (catalog, query)
    }

    /// `SUM(aggregand)` over customers `cid` with mean `m`, each with an
    /// `Int64` count `k` drawn from 0..=3: 0 with weight `zero`, every other
    /// count with weight 1.
    fn counts(means: &[f64], zero: f64, aggregand: Expr) -> (Catalog, MonteCarloQuery) {
        let plan = PlanNode::random_table(scalar_random_table(
            "counts",
            "means",
            Arc::new(DiscreteVg::new((0..4).map(Value::Int64).collect())),
            [zero, 1.0, 1.0, 1.0].map(Expr::lit).to_vec(),
            &["cid", "m"],
            "k",
            5,
        ));
        let query = MonteCarloQuery::new(plan, AggregateSpec::sum(aggregand, "total"));
        (catalog(means), query)
    }

    /// The looper's state after its set-up and before any sweep, under
    /// `master`, over an initial block of `block` positions.
    fn set_up(
        query: &MonteCarloQuery,
        catalog: &Catalog,
        master: u64,
        (block, versions): (usize, usize),
    ) -> (Program, Seeds) {
        let mut session = ExecSession::prepare(&query.plan, catalog, master).unwrap();
        let skeleton = Arc::clone(session.prefix().unwrap().skeleton());
        let cells = session.instantiate_cells(catalog, 0, block).unwrap();
        let value = (query.aggregate.func == AggFunc::Sum).then_some(&query.aggregate.expr);
        let program = Program::compile(skeleton.schema(), query.final_predicate.as_ref(), value);
        let seeds = Seeds::new(
            session,
            skeleton,
            cells,
            program.slots(),
            versions,
            block as u64,
        );
        (program, seeds.unwrap())
    }

    /// Every Gibbs tuple of `seeds`' skeleton as [`runs`].
    fn all_runs(seeds: &Seeds, program: &Program) -> Vec<Run> {
        let skeleton = &seeds.skeleton;
        let tuples = 0..skeleton.num_bundles();
        runs(|b, c| skeleton.lineage(b, c), program.slots(), tuples)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// The column driver's contributions equal the row path's bit for bit:
    /// the initial per-version aggregates and per-seed contributions, and
    /// every separable seed's chunks from every position of its initial
    /// block and of as many positions past it, in chunks of many lengths.
    #[test]
    fn chunk_contributions_equal_the_row_path() {
        let w = mcdbr_workloads::TpchWorkload::generate(mcdbr_workloads::TpchConfig::test_scale())
            .unwrap();
        let losses = catalog(&[3.0, 4.0, 5.0]);
        let filtered = losses_query().with_final_predicate(Expr::col("val").gt(Expr::lit(3.5)));
        let (items, weighted) = weighted_fanout();
        let (counts, int64) = counts(&[1.0, 2.0], 0.5, Expr::col("k").mul(Expr::lit(3i64)));
        let shapes = [
            (&w.catalog, w.total_loss_query()),
            (&items, weighted),
            (&losses, filtered),
            (&counts, int64),
        ];
        for (catalog, query) in &shapes {
            let (block, versions) = (64, 16);
            let (program, mut seeds) = set_up(query, catalog, 7, (block, versions));
            let row = |seeds: &Seeds, runs: &[Run], v, cand| {
                seeds.contribution(&program, runs, v, cand).unwrap()
            };
            let all = all_runs(&seeds, &program);
            let want: Vec<f64> = (0..versions).map(|v| row(&seeds, &all, v, None)).collect();
            let got = seeds.initial(&program, &all, versions).unwrap();
            assert_eq!(bits(&got), bits(&want), "{query:?}");
            for ord in 0..seeds.ts.len() {
                assert!(seeds.separable[ord], "{query:?}");
                let runs = seeds.runs[ord].clone();
                let want: Vec<f64> = (0..versions).map(|v| row(&seeds, &runs, v, None)).collect();
                let got = seeds.initial(&program, &runs, versions).unwrap();
                assert_eq!(bits(&got), bits(&want), "{query:?} ordinal {ord}");
                let mut pos = 0;
                while pos < 2 * block as u64 {
                    let want = pos % 97;
                    let got = (seeds.candidates(&program, (ord, 0), pos, want))
                        .unwrap()
                        .to_vec();
                    let chunk = &seeds.chunk;
                    let one_side = chunk.start >= block as u64 || chunk.end <= block as u64;
                    assert!(chunk.ok && one_side, "{query:?}");
                    let at = |p| row(&seeds, &runs, 0, Some((ord, p)));
                    let want: Vec<f64> = (pos..chunk.end).map(at).collect();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{query:?} ordinal {ord} from {pos}"
                    );
                    pos = chunk.end;
                }
            }
        }
    }

    #[test]
    fn a_seed_is_separable_when_its_tuples_read_no_other_stream() {
        let w = mcdbr_workloads::TpchWorkload::generate(mcdbr_workloads::TpchConfig::test_scale())
            .unwrap();
        let (.., seeds) = set_up(&w.total_loss_query(), &w.catalog, 7, (8, 4));
        assert!(!seeds.separable.is_empty() && seeds.separable.iter().all(|&s| s));
        // Every salary-inversion tuple reads a boss's and a peon's salary.
        let (catalog, query) = salary_inversion();
        let (.., seeds) = set_up(&query, &catalog, 7, (8, 4));
        assert_eq!(seeds.separable, vec![false; 4]);
    }

    /// `SUM(m / k)` errs where `k = 0`.  A chunk holding such a position
    /// falls back to the row path one position at a time: each position
    /// before it yields its contribution, and it yields the row path's
    /// error.
    #[test]
    fn an_erring_chunk_takes_the_row_path_position_by_position() {
        let (catalog, query) = counts(&[1.0, 2.0, 3.0], 0.2, Expr::col("m").div(Expr::col("k")));
        let (program, mut seeds) = set_up(&query, &catalog, 7, (256, 4));
        let mut fell_back = 0;
        for ord in 0..seeds.ts.len() {
            let runs = seeds.runs[ord].clone();
            let row = |seeds: &Seeds, p| seeds.contribution(&program, &runs, 0, Some((ord, p)));
            let Some(q) = (0..256)
                .find(|&p| row(&seeds, p).is_err())
                .filter(|&q| q > 0)
            else {
                continue;
            };
            for p in 0..q {
                let got = seeds.candidates(&program, (ord, 0), p, q + 8).unwrap();
                assert_eq!(bits(got), bits(&[row(&seeds, p).unwrap()]), "position {p}");
                let chunk = &seeds.chunk;
                assert!(!chunk.ok && chunk.start == 0 && chunk.end > q);
            }
            let err = seeds.candidates(&program, (ord, 0), q, 1).unwrap_err();
            assert_eq!(err, row(&seeds, q).unwrap_err());
            fell_back += 1;
        }
        assert!(fell_back > 0);
    }

    /// End to end, `SUM(m / k)` over one customer matches the scalar
    /// referee: the same samples when no consumed position errs — also
    /// when an erring one lies in a chunk past the last position consumed
    /// — and the same error when a candidate that errs is consumed.
    #[test]
    fn erring_positions_raise_only_when_consumed() {
        let (catalog, query) = counts(&[2.0], 0.15, Expr::col("m").div(Expr::col("k")));
        let (mut unconsumed, mut consumed) = (0, 0);
        for master in 0..64 {
            // A few positions consumed a step, and chunks of at least 16.
            let config = TailSamplingConfig::new(0.5, 2, 4)
                .with_m(2)
                .with_block_size(1000)
                .with_master_seed(master);
            let looper = GibbsLooper::new(query.clone(), config);
            let block = referee::Block::new(&looper, &catalog, |_| 1000).unwrap();
            let want = referee::run(&looper, &block);
            match looper.sample(&catalog) {
                Ok((got, seeds)) => {
                    let want = want.unwrap();
                    assert_eq!(bits(&got.tail_samples), bits(&want.tail_samples));
                    assert_eq!(bits(&got.cutoffs), bits(&want.cutoffs));
                    assert_eq!(got.gibbs, want.gibbs);
                    // One seed, so the last chunk is its own.
                    unconsumed += usize::from(!seeds.chunk.ok);
                }
                Err(err) => {
                    assert_eq!(err, want.unwrap_err(), "master {master}");
                    // Past the initial aggregates: a consumed candidate.
                    let n = looper.config.staged().n_per_step;
                    let (program, seeds) = set_up(&query, &catalog, master, (n, n));
                    let all = all_runs(&seeds, &program);
                    consumed += usize::from(seeds.initial(&program, &all, n).is_ok());
                }
            }
        }
        assert!(unconsumed > 0 && consumed > 0, "{unconsumed} / {consumed}");
    }

    /// The scalar loop the compiled one replaced, kept as its referee: TS-seeds
    /// in a `BTreeMap` swept in key order, every affected Gibbs tuple — a
    /// tuple bundle — boxed into a `Vec<Value>` version row and read by the
    /// `Expr` interpreter, stream values read by position from each
    /// stream's own draw in [`referee::Block`].
    mod referee {
        use std::collections::{BTreeMap, BTreeSet};

        use super::super::*;
        use mcdbr_exec::{BundleValue, TupleBundle};
        use mcdbr_storage::{Schema, Value};

        /// What a run yields that the compiled loop must match.
        #[derive(Debug)]
        pub(super) struct Outcome {
            pub(super) tail_samples: Vec<f64>,
            pub(super) cutoffs: Vec<f64>,
            pub(super) gibbs: GibbsStats,
            pub(super) stream_positions_consumed: u64,
        }

        /// The looper's plan as tuple bundles, each stream drawn from
        /// position 0 to its own `width(seed)`: its Gibbs tuples, the tuples
        /// carrying each seed, and every stream cell's values keyed by
        /// `(seed, VG row, VG column)`.  Columns neither the aggregate nor
        /// the final predicate reads become `Null` placeholders, so a
        /// version row never reads a `Computed` column.
        pub(super) struct Block {
            schema: Schema,
            bundles: Vec<TupleBundle>,
            tuples: BTreeMap<SeedId, Vec<usize>>,
            values: BTreeMap<(SeedId, usize, usize), Arc<Column>>,
        }

        impl Block {
            pub(super) fn new(
                looper: &GibbsLooper,
                catalog: &Catalog,
                width: impl Fn(SeedId) -> usize,
            ) -> Result<Block> {
                let (plan, master_seed) = (&looper.query.plan, looper.config.master_seed);
                let mut session = ExecSession::prepare(plan, catalog, master_seed)?;
                // The structure from a one-position block; the values from
                // one draw of each stream, as wide as that stream needs.
                let set = session.instantiate_block(catalog, 0, 1)?;
                let keys: BTreeMap<SeedId, StreamKey> = (session.prefix().unwrap())
                    .skeleton()
                    .active_keys()
                    .iter()
                    .map(|&key| (key.bind(master_seed), key))
                    .collect();
                let mut tuples: BTreeMap<SeedId, Vec<usize>> = BTreeMap::new();
                let mut cells = BTreeSet::new();
                for (idx, bundle) in set.bundles.iter().enumerate() {
                    let mut seeds: Vec<SeedId> =
                        bundle.values.iter().filter_map(BundleValue::seed).collect();
                    seeds.sort_unstable();
                    seeds.dedup();
                    for seed in seeds {
                        tuples.entry(seed).or_default().push(idx);
                    }
                    for value in &bundle.values {
                        if let BundleValue::Random {
                            seed,
                            vg_row,
                            vg_col,
                            ..
                        } = *value
                        {
                            cells.insert((seed, vg_row, vg_col));
                        }
                    }
                }
                let mut drawn = BTreeMap::new();
                for &seed in tuples.keys() {
                    let cells = session.instantiate_stream(keys[&seed], 0, width(seed))?;
                    drawn.insert(seed, cells);
                }
                let mut values = BTreeMap::new();
                for (seed, vg_row, vg_col) in cells {
                    let column = drawn[&seed].cell(vg_row, vg_col)?;
                    values.insert((seed, vg_row, vg_col), Arc::clone(column));
                }
                let query = &looper.query;
                let mut referenced = query.aggregate.expr.referenced_columns();
                if let Some(pred) = &query.final_predicate {
                    referenced.extend(pred.referenced_columns());
                }
                let referenced: Vec<usize> = (referenced.iter())
                    .map(|c| set.schema.index_of(c).unwrap())
                    .collect();
                let mut bundles = set.bundles;
                for bundle in &mut bundles {
                    for (i, value) in bundle.values.iter_mut().enumerate() {
                        if !referenced.contains(&i) {
                            *value = BundleValue::Const(Value::Null);
                        }
                    }
                }
                Ok(Block {
                    schema: set.schema,
                    bundles,
                    tuples,
                    values,
                })
            }

            /// The row of Gibbs tuple `b` as DB version `v` sees it under
            /// `ts`, optionally with one seed at a candidate position.
            fn version_row_into(
                &self,
                ts: &BTreeMap<SeedId, TsSeed>,
                b: usize,
                v: usize,
                override_pos: Option<(SeedId, u64)>,
                row: &mut Vec<Value>,
            ) {
                row.clear();
                row.extend(self.bundles[b].values.iter().map(|bv| match bv {
                    BundleValue::Const(value) => value.clone(),
                    BundleValue::Computed(_) => unreachable!("pruned"),
                    BundleValue::Random {
                        seed,
                        vg_row,
                        vg_col,
                        ..
                    } => {
                        let pos = match override_pos {
                            Some((s, pos)) if s == *seed => pos,
                            _ => ts[seed].assigned(v),
                        };
                        let values = &self.values[&(*seed, *vg_row, *vg_col)];
                        assert!(pos < values.len() as u64, "past the referee's block");
                        values.value_at(pos as usize)
                    }
                }));
            }

            /// The contribution of `seed`'s tuples (every tuple if `None`)
            /// to DB version `v`'s aggregate under `ts`.
            pub(super) fn contribution(
                &self,
                query: &MonteCarloQuery,
                ts: &BTreeMap<SeedId, TsSeed>,
                seed: Option<SeedId>,
                v: usize,
                override_pos: Option<(SeedId, u64)>,
            ) -> Result<f64> {
                let all: Vec<usize>;
                let tuples = match seed {
                    Some(seed) => &self.tuples[&seed],
                    None => {
                        all = (0..self.bundles.len()).collect();
                        &all
                    }
                };
                let schema = &self.schema;
                let mut total = 0.0;
                let mut row: Vec<Value> = Vec::with_capacity(schema.len());
                for &b in tuples {
                    self.version_row_into(ts, b, v, override_pos, &mut row);
                    if let Some(pred) = &query.final_predicate {
                        if !pred.eval_bool(schema, &row)? {
                            continue;
                        }
                    }
                    total += match query.aggregate.func {
                        AggFunc::Sum => query.aggregate.expr.eval_f64(schema, &row)?,
                        AggFunc::Count => 1.0,
                        _ => unreachable!("SUM or COUNT"),
                    };
                }
                Ok(total)
            }
        }

        /// A full tail-sampling run the way the looper ran it before its rows
        /// were compiled (valid queries only: the checks live in `run`),
        /// reading every stream position from `block`.
        pub(super) fn run(looper: &GibbsLooper, block: &Block) -> Result<Outcome> {
            let (query, config) = (&looper.query, &looper.config);
            let params = config.staged();
            let (n, m, p_step, l) = (params.n_per_step, params.m, params.p_per_step, config.l);
            let mut ts: BTreeMap<SeedId, TsSeed> = (block.tuples.keys())
                .map(|&seed| (seed, TsSeed::new(seed, n)))
                .collect();
            let mut num_versions = n;
            let mut version_aggregates: Vec<f64> = (0..num_versions)
                .map(|v| block.contribution(query, &ts, None, v, None))
                .collect::<Result<_>>()?;
            let mut cutoffs = Vec::with_capacity(m);
            let mut gibbs = GibbsStats::default();
            for step in 0..m {
                if version_aggregates.iter().any(|a| a.is_nan()) {
                    return Err(Error::InvalidOperation("NaN aggregate".into()));
                }
                let mut sorted: Vec<f64> = version_aggregates.clone();
                sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
                let elite_count =
                    ((p_step * num_versions as f64).round() as usize).clamp(1, num_versions);
                let cutoff = sorted[elite_count - 1];
                cutoffs.push(cutoff);
                let mut order: Vec<usize> = (0..num_versions).collect();
                order.sort_by(|&a, &b| {
                    version_aggregates[b]
                        .partial_cmp(&version_aggregates[a])
                        .unwrap()
                });
                let elites: Vec<usize> = order[..elite_count].to_vec();
                let next_size = if step + 1 == m { l } else { n };
                let sources: Vec<usize> =
                    (0..next_size).map(|i| elites[i % elites.len()]).collect();
                for ts in ts.values_mut() {
                    ts.reassign_from(&sources);
                }
                version_aggregates = sources.iter().map(|&s| version_aggregates[s]).collect();
                num_versions = next_size;

                let seeds: Vec<SeedId> = ts.keys().copied().collect();
                for seed in seeds {
                    #[allow(clippy::needless_range_loop)]
                    for v in 0..num_versions {
                        let old = block.contribution(query, &ts, Some(seed), v, None)?;
                        let mut candidates_tried = 0u64;
                        loop {
                            if candidates_tried >= config.max_candidates {
                                gibbs.exhausted += 1;
                                break;
                            }
                            let pos = ts[&seed].next_unused();
                            let cand = Some((seed, pos));
                            let new = block.contribution(query, &ts, Some(seed), v, cand)?;
                            let new_aggregate = version_aggregates[v] - old + new;
                            candidates_tried += 1;
                            let ts = ts.get_mut(&seed).expect("seed present");
                            if new_aggregate >= cutoff {
                                ts.assign(v, pos);
                                version_aggregates[v] = new_aggregate;
                                gibbs.accepted += 1;
                                break;
                            }
                            ts.max_used = ts.max_used.max(pos);
                            gibbs.rejected += 1;
                        }
                    }
                }
            }
            Ok(Outcome {
                tail_samples: version_aggregates,
                cutoffs,
                gibbs,
                stream_positions_consumed: ts.values().map(|ts| ts.max_used + 1).sum(),
            })
        }
    }
}
