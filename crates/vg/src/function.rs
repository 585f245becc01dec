//! The VG-function interface and the built-in VG functions.
//!
//! Paper §1: "a VG function takes as input one or more parameter tables
//! (ordinary relations) that control the function's behavior, and produces as
//! output a table containing one or more correlated data values."  §2 shows
//! the built-in `Normal` VG function parameterized by a per-customer mean.
//!
//! A [`VgFunction`] here receives the *parameter row* (the values the schema
//! statement binds in its `VALUES(...)` clause) plus a deterministic
//! sub-generator for the current stream position, and returns the rows of
//! its output table.  Determinism contract: the same parameters and the same
//! generator state always produce the same output — this is what allows
//! MCDB-R to re-create any previously generated value during replenishment
//! runs (paper §9) and to treat stream positions as the unit of Gibbs
//! perturbation (paper §4.2, §6).

use std::fmt;
use std::sync::Arc;

use mcdbr_prng::{Pcg64, RandomStream, SeedId};
use mcdbr_storage::{ColumnBlock, Error, Field, Result, Tuple, Value};

use crate::dist::Distribution;
use crate::math::std_normal_quantile;

/// A variable-generation function.
///
/// Implementations must be deterministic given `(params, gen)` and must not
/// retain state between calls: MCDB-R may invoke them out of order, once per
/// stream position, and from multiple bootstrapping iterations.
pub trait VgFunction: fmt::Debug + Send + Sync {
    /// Human-readable name used in plans and error messages.
    fn name(&self) -> &str;

    /// A token identifying this VG function *and its construction-time
    /// configuration* for plan-fingerprinting purposes: two VG functions with
    /// equal tokens must generate identical output given identical
    /// `(params, gen)` inputs.  Stateless implementations return their
    /// [`VgFunction::name`]; implementations with constructor state
    /// (category lists, dimensions, step counts, ...) must fold that state
    /// in, or structurally different plans would collide in plan-keyed
    /// session caches and silently serve each other's cached skeletons.
    /// The method is deliberately required (no default) so the compiler
    /// forces every implementation to make this decision explicitly.
    ///
    /// The token is also the VG function's wire identity: a plan ships its
    /// VG functions as their tokens, and [`from_token`] rebuilds the seven
    /// built-ins from theirs.  The built-in tokens are therefore reserved —
    /// a third-party implementation must not return one — and a plan
    /// whose token is not a built-in's runs locally only.
    fn cache_token(&self) -> String;

    /// The schema of the (small) table one invocation produces.
    fn output_fields(&self) -> Vec<Field>;

    /// Produce one instantiation of the uncertain value(s).
    ///
    /// `params` is the parameter row bound by the uncertain-table definition
    /// (e.g. `[m, 1.0]` for the `Normal(VALUES(m, 1.0))` of paper §2), and
    /// `gen` is the deterministic sub-generator for the current stream
    /// position.
    fn generate(&self, params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>>;

    /// Batched generation: materialize stream positions `base_pos ..
    /// base_pos + num_values` directly into a columnar block.
    ///
    /// The value contract is **bit-exact equality** with the per-position
    /// path: for every position `p`, the values written must be identical to
    /// what [`VgFunction::generate`] produces from the sub-generator at
    /// `(seed, p)` — the batched path is an allocation optimization, never a
    /// semantic one.  The default implementation *is* the per-position path
    /// (one `generate` call per position, appended row-wise), so third-party
    /// VG functions keep working unchanged; the built-in VG functions
    /// override it to parse parameters once and push scalars straight into
    /// the typed buffers.
    ///
    /// Implementations must leave `out` holding exactly `num_values`
    /// positions in every column of a uniform `rows × cols` shape (callers
    /// validate once per block via [`ColumnBlock::validate`]).
    fn generate_block_into(
        &self,
        params: &[Value],
        seed: SeedId,
        base_pos: u64,
        num_values: usize,
        out: &mut ColumnBlock,
    ) -> Result<()> {
        out.clear();
        let stream = RandomStream::new(seed);
        for i in 0..num_values {
            let mut gen = stream.generator_at(base_pos + i as u64);
            let rows = self.generate(params, &mut gen)?;
            out.push_position(&rows)?;
        }
        Ok(())
    }
}

fn param_f64(params: &[Value], idx: usize, name: &str, fn_name: &str) -> Result<f64> {
    params
        .get(idx)
        .ok_or_else(|| Error::Invalid(format!("{fn_name}: missing parameter {idx} ({name})")))?
        .as_f64()
}

/// Drive a native batched generation loop for a single-cell (`1 × 1`) VG
/// function: shape the block, then write `sample(gen)` for every position's
/// sub-generator.  `sample` must consume the generator exactly as the
/// scalar [`VgFunction::generate`] path does — that is the whole bit-exact
/// `(seed, position)` → value contract.
fn scalar_block_into(
    seed: SeedId,
    base_pos: u64,
    num_values: usize,
    out: &mut ColumnBlock,
    mut sample: impl FnMut(&mut Pcg64) -> f64,
) {
    out.reset(1, 1, num_values);
    let stream = RandomStream::new(seed);
    let col = out.column_mut(0, 0);
    for i in 0..num_values {
        let mut gen = stream.generator_at(base_pos + i as u64);
        col.push_f64(sample(&mut gen));
    }
}

/// Two-pass batched driver for single-cell VG functions whose sample is a
/// pure transform of exactly one stream uniform: pass 1 writes each
/// position's uniform straight into the column's `f64` buffer, pass 2
/// transforms the buffer in place.
///
/// Pass 1 consumes each position's sub-generator exactly as the scalar
/// [`VgFunction::generate`] path does — one `next_f64` (or `next_f64_open`)
/// per position — so the uniforms, and therefore the transformed values, are
/// bit-identical to the scalar path *by construction*.  Pass 2 is a tight,
/// allocation-free loop over one contiguous slice with no generator state in
/// scope, which the compiler unrolls (and vectorizes where the math allows)
/// far better than the interleaved generate-then-transform loop.
fn two_pass_block_into(
    seed: SeedId,
    base_pos: u64,
    num_values: usize,
    out: &mut ColumnBlock,
    open_interval: bool,
    transform: impl FnOnce(&mut [f64]),
) {
    out.reset(1, 1, num_values);
    let stream = RandomStream::new(seed);
    let col = out.column_mut(0, 0);
    let slots = col
        .extend_f64_values((0..num_values).map(|i| {
            let mut gen = stream.generator_at(base_pos + i as u64);
            if open_interval {
                gen.next_f64_open()
            } else {
                gen.next_f64()
            }
        }))
        .expect("reset cleared the column, so it retypes to Float64");
    transform(slots);
}

/// The built-in `Normal` VG function of paper §2.
///
/// Parameters: `[mean, variance]`.  Produces a single row with a single
/// `value` column.  Sampling is inverse-CDF, so one stream uniform maps
/// monotonically to one loss value — exactly the "stream of realized loss
/// values" of §4.1.
#[derive(Debug, Clone, Default)]
pub struct NormalVg;

impl VgFunction for NormalVg {
    fn name(&self) -> &str {
        "Normal"
    }

    fn cache_token(&self) -> String {
        self.name().to_string()
    }

    fn output_fields(&self) -> Vec<Field> {
        vec![Field::float64("value")]
    }

    fn generate(&self, params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>> {
        let mean = param_f64(params, 0, "mean", "Normal")?;
        let variance = param_f64(params, 1, "variance", "Normal")?;
        if variance < 0.0 {
            return Err(Error::Invalid(format!(
                "Normal: negative variance {variance}"
            )));
        }
        let value = Distribution::Normal {
            mean,
            sd: variance.sqrt(),
        }
        .sample(gen);
        Ok(vec![Tuple::from_iter_values([value])])
    }

    fn generate_block_into(
        &self,
        params: &[Value],
        seed: SeedId,
        base_pos: u64,
        num_values: usize,
        out: &mut ColumnBlock,
    ) -> Result<()> {
        // Parameters are parsed and validated once per block, not per
        // position; the draws themselves are bit-identical to `generate`.
        let mean = param_f64(params, 0, "mean", "Normal")?;
        let variance = param_f64(params, 1, "variance", "Normal")?;
        if variance < 0.0 {
            return Err(Error::Invalid(format!(
                "Normal: negative variance {variance}"
            )));
        }
        let sd = variance.sqrt();
        // Two-pass: uniforms first, then the inverse-CDF transform in place.
        // `Distribution::Normal::sample` is `mean + sd * Φ⁻¹(next_f64_open())`,
        // reproduced term for term below.
        two_pass_block_into(seed, base_pos, num_values, out, true, |vals| {
            for v in vals {
                *v = mean + sd * std_normal_quantile(*v);
            }
        });
        Ok(())
    }
}

/// Uniform VG function.  Parameters: `[lo, hi]`.
#[derive(Debug, Clone, Default)]
pub struct UniformVg;

impl VgFunction for UniformVg {
    fn name(&self) -> &str {
        "Uniform"
    }

    fn cache_token(&self) -> String {
        self.name().to_string()
    }

    fn output_fields(&self) -> Vec<Field> {
        vec![Field::float64("value")]
    }

    fn generate(&self, params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>> {
        let lo = param_f64(params, 0, "lo", "Uniform")?;
        let hi = param_f64(params, 1, "hi", "Uniform")?;
        if hi < lo {
            return Err(Error::Invalid(format!("Uniform: hi {hi} < lo {lo}")));
        }
        let value = Distribution::Uniform { lo, hi }.sample(gen);
        Ok(vec![Tuple::from_iter_values([value])])
    }

    fn generate_block_into(
        &self,
        params: &[Value],
        seed: SeedId,
        base_pos: u64,
        num_values: usize,
        out: &mut ColumnBlock,
    ) -> Result<()> {
        let lo = param_f64(params, 0, "lo", "Uniform")?;
        let hi = param_f64(params, 1, "hi", "Uniform")?;
        if hi < lo {
            return Err(Error::Invalid(format!("Uniform: hi {hi} < lo {lo}")));
        }
        // `Distribution::Uniform::sample` is `lo + (hi - lo) * next_f64()`,
        // reproduced term for term in the in-place pass.
        two_pass_block_into(seed, base_pos, num_values, out, false, |vals| {
            for v in vals {
                *v = lo + (hi - lo) * *v;
            }
        });
        Ok(())
    }
}

/// Poisson VG function (e.g. order quantities).  Parameters: `[lambda]`.
#[derive(Debug, Clone, Default)]
pub struct PoissonVg;

impl VgFunction for PoissonVg {
    fn name(&self) -> &str {
        "Poisson"
    }

    fn cache_token(&self) -> String {
        self.name().to_string()
    }

    fn output_fields(&self) -> Vec<Field> {
        vec![Field::float64("value")]
    }

    fn generate(&self, params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>> {
        let lambda = param_f64(params, 0, "lambda", "Poisson")?;
        if lambda < 0.0 {
            return Err(Error::Invalid(format!("Poisson: negative mean {lambda}")));
        }
        let value = Distribution::Poisson { lambda }.sample(gen);
        Ok(vec![Tuple::from_iter_values([value])])
    }

    fn generate_block_into(
        &self,
        params: &[Value],
        seed: SeedId,
        base_pos: u64,
        num_values: usize,
        out: &mut ColumnBlock,
    ) -> Result<()> {
        let lambda = param_f64(params, 0, "lambda", "Poisson")?;
        if lambda < 0.0 {
            return Err(Error::Invalid(format!("Poisson: negative mean {lambda}")));
        }
        let dist = Distribution::Poisson { lambda };
        scalar_block_into(seed, base_pos, num_values, out, |gen| dist.sample(gen));
        Ok(())
    }
}

/// A VG function that samples one of a fixed set of categories.
///
/// Parameters: one weight per category (non-negative, not all zero).  The
/// output row contains the chosen category value.  This is the MCDB analogue
/// of the explicit tuple-alternative probabilities of classical probabilistic
/// databases (paper §1 related work).
#[derive(Debug, Clone)]
pub struct DiscreteVg {
    categories: Vec<Value>,
}

impl DiscreteVg {
    /// Create a discrete VG function over the given category values.
    pub fn new(categories: Vec<Value>) -> Self {
        DiscreteVg { categories }
    }

    /// Parse and validate the per-call weights (one per category).
    fn weights(&self, params: &[Value]) -> Result<(Vec<f64>, f64)> {
        discrete_weights("Discrete", self.categories.len(), params)
    }

    /// Sample a category index from the weights (floating-point edge: the
    /// last category).  Consumes exactly one uniform from `gen`.
    fn choose(weights: &[f64], total: f64, gen: &mut Pcg64) -> usize {
        Self::choose_from(weights, total, gen.next_f64())
    }

    /// The subtractive scan over a raw `[0,1)` uniform.  The sequential
    /// `u -= w` rounding is part of the on-disk value contract — a
    /// cumulative-sum binary search would round differently near category
    /// boundaries — so the batched path reuses exactly this scan.
    fn choose_from(weights: &[f64], total: f64, u01: f64) -> usize {
        let mut u = u01 * total;
        for (idx, w) in weights.iter().enumerate() {
            if u < *w {
                return idx;
            }
            u -= w;
        }
        weights.len() - 1
    }
}

/// Shared weight validation for the discrete samplers: one non-negative
/// weight per category, not all zero.
pub(crate) fn discrete_weights(
    fn_name: &str,
    num_categories: usize,
    params: &[Value],
) -> Result<(Vec<f64>, f64)> {
    if params.len() != num_categories {
        return Err(Error::Invalid(format!(
            "{fn_name}: expected {num_categories} weights, got {}",
            params.len()
        )));
    }
    let weights: Vec<f64> = params
        .iter()
        .map(|v| v.as_f64())
        .collect::<Result<Vec<_>>>()?;
    if weights.iter().any(|&w| w < 0.0) {
        return Err(Error::Invalid(format!("{fn_name}: negative weight")));
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return Err(Error::Invalid(format!("{fn_name}: weights sum to zero")));
    }
    Ok((weights, total))
}

/// Unambiguous category-list serialization shared by the discrete samplers'
/// cache tokens: a type tag per category plus a length prefix for strings.
/// Plain `Display` would collide `Int64(1)` with `Float64(1.0)` and
/// `["a,b"]` with `["a", "b"]`, and a fingerprint collision makes a
/// plan-keyed session cache serve the wrong skeleton silently.
pub(crate) fn categories_token(prefix: &str, categories: &[Value]) -> String {
    use std::fmt::Write;
    let mut token = String::from(prefix);
    for c in categories {
        match c {
            Value::Null => token.push_str("|n"),
            Value::Int64(i) => {
                let _ = write!(token, "|i{i}");
            }
            Value::Float64(x) => {
                let _ = write!(token, "|f{:016x}", x.to_bits());
            }
            Value::Bool(b) => {
                let _ = write!(token, "|b{}", u8::from(*b));
            }
            Value::Utf8(s) => {
                let _ = write!(token, "|s{}:{s}", s.len());
            }
        }
    }
    token
}

/// The largest `MultiNormal` dimension and `GbmTerminal` step count
/// [`from_token`] accepts.  Both set the work and memory of every stream
/// position, and a token arrives from a socket, so an unbounded one could
/// make the first generated position exhaust memory or run for hours.
pub const MAX_TOKEN_SIZE: usize = 4096;

/// Rebuild a built-in VG function from its [`VgFunction::cache_token`].
///
/// Only the canonical spelling of a built-in token decodes — the rebuilt
/// function's own token equals `token` — so a plan rebuilt from its bytes
/// encodes to the same bytes.  Anything else (a third-party token, a
/// configuration the constructor would reject, a dimension or step count
/// above [`MAX_TOKEN_SIZE`]) is an [`Error::Invalid`].
pub fn from_token(token: &str) -> Result<Arc<dyn VgFunction>> {
    let bad = || Error::Invalid(format!("no built-in VG function has token {token:?}"));
    let size = |digits: &str| match digits.parse::<usize>() {
        Ok(n) if (1..=MAX_TOKEN_SIZE).contains(&n) => Ok(n),
        _ => Err(bad()),
    };
    let vg: Arc<dyn VgFunction> = match token {
        "Normal" => Arc::new(NormalVg),
        "Uniform" => Arc::new(UniformVg),
        "Poisson" => Arc::new(PoissonVg),
        "BayesianDemand" => Arc::new(BayesianDemandVg),
        _ => {
            if let Some(list) = token.strip_prefix("Discrete") {
                Arc::new(DiscreteVg::new(parse_categories(list).ok_or_else(bad)?))
            } else if let Some(args) = inside(token, "MultiNormal[dim=") {
                let (dim, rho) = args.split_once(",rho=").ok_or_else(bad)?;
                let rho = rho.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=1.0).contains(&rho) {
                    return Err(bad());
                }
                Arc::new(MultiNormalVg::new(size(dim)?, rho))
            } else if let Some(steps) = inside(token, "GbmTerminal[steps=") {
                Arc::new(GbmTerminalVg::new(size(steps)?))
            } else {
                return Err(bad());
            }
        }
    };
    if vg.cache_token() != token {
        return Err(bad());
    }
    Ok(vg)
}

/// The text between `prefix` and a closing `]` that ends `token`.
fn inside<'a>(token: &'a str, prefix: &str) -> Option<&'a str> {
    token.strip_prefix(prefix)?.strip_suffix(']')
}

/// The inverse of [`categories_token`] after its prefix.
fn parse_categories(mut list: &str) -> Option<Vec<Value>> {
    let mut categories = Vec::new();
    while let Some(rest) = list.strip_prefix('|') {
        let mut chars = rest.chars();
        let (tag, rest) = (chars.next()?, chars.as_str());
        if tag == 's' {
            let (len, rest) = rest.split_once(':')?;
            let len = len.parse::<usize>().ok()?;
            categories.push(Value::str(rest.get(..len)?));
            list = &rest[len..];
            continue;
        }
        let end = rest.find('|').unwrap_or(rest.len());
        let text = &rest[..end];
        categories.push(match tag {
            'n' if text.is_empty() => Value::Null,
            'i' => Value::Int64(text.parse().ok()?),
            'f' => Value::Float64(f64::from_bits(u64::from_str_radix(text, 16).ok()?)),
            'b' => Value::Bool(text.parse::<u8>().ok()? == 1),
            _ => return None,
        });
        list = &rest[end..];
    }
    list.is_empty().then_some(categories)
}

impl VgFunction for DiscreteVg {
    fn name(&self) -> &str {
        "Discrete"
    }

    fn cache_token(&self) -> String {
        categories_token("Discrete", &self.categories)
    }

    fn output_fields(&self) -> Vec<Field> {
        let dt = self
            .categories
            .first()
            .map(|v| v.data_type())
            .unwrap_or(mcdbr_storage::DataType::Null);
        vec![Field::new("value", dt)]
    }

    fn generate(&self, params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>> {
        let (weights, total) = self.weights(params)?;
        let chosen = Self::choose(&weights, total, gen);
        // Category values are Arc-backed, so this clone is a refcount bump
        // even for string categories — never a byte copy.
        Ok(vec![Tuple::new(vec![self.categories[chosen].clone()])])
    }

    fn generate_block_into(
        &self,
        params: &[Value],
        seed: SeedId,
        base_pos: u64,
        num_values: usize,
        out: &mut ColumnBlock,
    ) -> Result<()> {
        let (weights, total) = self.weights(params)?;
        out.reset(1, 1, num_values);
        let stream = RandomStream::new(seed);
        // Pass 1: raw uniforms only — the generator loop stays tight.
        let uniforms: Vec<f64> = (0..num_values)
            .map(|i| stream.generator_at(base_pos + i as u64).next_f64())
            .collect();
        let col = out.column_mut(0, 0);
        // Pass 2: the subtractive scan plus the column push.  String
        // categories are interned once up front; each sampled row then
        // stores a dictionary index — no per-row clone, no per-row hash
        // lookup.  Mixed or non-string category lists fall back to the
        // generic value push (still cheap: scalars copy, strings intern).
        let all_utf8 = self.categories.iter().all(|c| matches!(c, Value::Utf8(_)));
        if all_utf8 && !self.categories.is_empty() {
            let ids: Vec<u32> = self
                .categories
                .iter()
                .map(|c| col.intern_utf8(c.as_str().expect("checked Utf8")))
                .collect::<Result<_>>()?;
            for &u in &uniforms {
                col.push_utf8_id(ids[Self::choose_from(&weights, total, u)])?;
            }
        } else {
            for &u in &uniforms {
                col.push_value(&self.categories[Self::choose_from(&weights, total, u)]);
            }
        }
        Ok(())
    }
}

/// A correlated multivariate-normal VG function with equicorrelation `rho`.
///
/// One invocation produces `dim` rows `(component, value)` — the "table
/// containing one or more correlated data values" of paper §1.  Parameters:
/// `[mean, sd]` shared by every component.  The correlation is induced by a
/// one-factor model: `X_i = mean + sd (√rho · Z₀ + √(1-rho) · Z_i)`.
#[derive(Debug, Clone)]
pub struct MultiNormalVg {
    dim: usize,
    rho: f64,
}

impl MultiNormalVg {
    /// Create a `dim`-dimensional equicorrelated normal VG function.
    pub fn new(dim: usize, rho: f64) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        assert!((0.0..=1.0).contains(&rho), "rho must be in [0,1]");
        MultiNormalVg { dim, rho }
    }
}

impl VgFunction for MultiNormalVg {
    fn name(&self) -> &str {
        "MultiNormal"
    }

    fn cache_token(&self) -> String {
        format!("MultiNormal[dim={},rho={}]", self.dim, self.rho)
    }

    fn output_fields(&self) -> Vec<Field> {
        vec![Field::int64("component"), Field::float64("value")]
    }

    fn generate(&self, params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>> {
        let mean = param_f64(params, 0, "mean", "MultiNormal")?;
        let sd = param_f64(params, 1, "sd", "MultiNormal")?;
        if sd < 0.0 {
            return Err(Error::Invalid(format!("MultiNormal: negative sd {sd}")));
        }
        let z0 = std_normal_quantile(gen.next_f64_open());
        let mut rows = Vec::with_capacity(self.dim);
        for i in 0..self.dim {
            let zi = std_normal_quantile(gen.next_f64_open());
            let x = mean + sd * (self.rho.sqrt() * z0 + (1.0 - self.rho).sqrt() * zi);
            rows.push(Tuple::from_iter_values([
                Value::Int64(i as i64),
                Value::Float64(x),
            ]));
        }
        Ok(rows)
    }

    fn generate_block_into(
        &self,
        params: &[Value],
        seed: SeedId,
        base_pos: u64,
        num_values: usize,
        out: &mut ColumnBlock,
    ) -> Result<()> {
        let mean = param_f64(params, 0, "mean", "MultiNormal")?;
        let sd = param_f64(params, 1, "sd", "MultiNormal")?;
        if sd < 0.0 {
            return Err(Error::Invalid(format!("MultiNormal: negative sd {sd}")));
        }
        let (w0, wi) = (self.rho.sqrt(), (1.0 - self.rho).sqrt());
        out.reset(self.dim, 2, num_values);
        let stream = RandomStream::new(seed);
        for i in 0..num_values {
            // Uniform consumption order matches `generate` exactly: one z0,
            // then one zi per component, per position.
            let mut gen = stream.generator_at(base_pos + i as u64);
            let z0 = std_normal_quantile(gen.next_f64_open());
            for d in 0..self.dim {
                let zi = std_normal_quantile(gen.next_f64_open());
                let x = mean + sd * (w0 * z0 + wi * zi);
                out.column_mut(d, 0).push_i64(d as i64);
                out.column_mut(d, 1).push_f64(x);
            }
        }
        Ok(())
    }
}

/// A Bayesian demand model: demand under a hypothetical price change.
///
/// The intro of the paper motivates "customer order quantities under
/// hypothetical price changes ... specified via Bayesian demand models".
/// Here the latent demand rate has a `Gamma(shape, scale)` prior, the price
/// change scales it through a constant-elasticity term, and observed demand
/// is Poisson around the scaled rate:
///
/// ```text
/// rate   ~ Gamma(shape, scale)
/// demand ~ Poisson(rate · exp(-elasticity · price_change))
/// ```
///
/// Parameters: `[shape, scale, elasticity, price_change]`.  Output: one row
/// with a `demand` column.
#[derive(Debug, Clone, Default)]
pub struct BayesianDemandVg;

impl VgFunction for BayesianDemandVg {
    fn name(&self) -> &str {
        "BayesianDemand"
    }

    fn cache_token(&self) -> String {
        self.name().to_string()
    }

    fn output_fields(&self) -> Vec<Field> {
        vec![Field::float64("demand")]
    }

    fn generate(&self, params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>> {
        let shape = param_f64(params, 0, "shape", "BayesianDemand")?;
        let scale = param_f64(params, 1, "scale", "BayesianDemand")?;
        let elasticity = param_f64(params, 2, "elasticity", "BayesianDemand")?;
        let price_change = param_f64(params, 3, "price_change", "BayesianDemand")?;
        if shape <= 0.0 || scale <= 0.0 {
            return Err(Error::Invalid(
                "BayesianDemand: shape and scale must be positive".into(),
            ));
        }
        let rate = Distribution::Gamma { shape, scale }.sample(gen);
        let scaled = rate * (-elasticity * price_change).exp();
        let demand = Distribution::Poisson { lambda: scaled }.sample(gen);
        Ok(vec![Tuple::from_iter_values([demand])])
    }

    fn generate_block_into(
        &self,
        params: &[Value],
        seed: SeedId,
        base_pos: u64,
        num_values: usize,
        out: &mut ColumnBlock,
    ) -> Result<()> {
        let shape = param_f64(params, 0, "shape", "BayesianDemand")?;
        let scale = param_f64(params, 1, "scale", "BayesianDemand")?;
        let elasticity = param_f64(params, 2, "elasticity", "BayesianDemand")?;
        let price_change = param_f64(params, 3, "price_change", "BayesianDemand")?;
        if shape <= 0.0 || scale <= 0.0 {
            return Err(Error::Invalid(
                "BayesianDemand: shape and scale must be positive".into(),
            ));
        }
        let gamma = Distribution::Gamma { shape, scale };
        let price_factor = (-elasticity * price_change).exp();
        scalar_block_into(seed, base_pos, num_values, out, |gen| {
            let rate = gamma.sample(gen);
            Distribution::Poisson {
                lambda: rate * price_factor,
            }
            .sample(gen)
        });
        Ok(())
    }
}

/// Terminal value of a geometric Brownian motion via Euler discretization.
///
/// The intro motivates "future values of financial assets ... specified
/// using Euler approximations to stochastic differential equations".  The
/// asset follows `dS = μ S dt + σ S dW`; one invocation simulates `steps`
/// Euler steps over `horizon` years and reports the terminal value.
///
/// Parameters: `[s0, mu, sigma, horizon]`.  Output: one row with a `value`
/// column.  The number of Euler steps is fixed at construction.
#[derive(Debug, Clone)]
pub struct GbmTerminalVg {
    steps: usize,
}

impl GbmTerminalVg {
    /// Create a GBM terminal-value VG function using `steps` Euler steps.
    pub fn new(steps: usize) -> Self {
        assert!(steps >= 1, "need at least one Euler step");
        GbmTerminalVg { steps }
    }
}

impl Default for GbmTerminalVg {
    fn default() -> Self {
        GbmTerminalVg::new(32)
    }
}

impl VgFunction for GbmTerminalVg {
    fn name(&self) -> &str {
        "GbmTerminal"
    }

    fn cache_token(&self) -> String {
        format!("GbmTerminal[steps={}]", self.steps)
    }

    fn output_fields(&self) -> Vec<Field> {
        vec![Field::float64("value")]
    }

    fn generate(&self, params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>> {
        let s0 = param_f64(params, 0, "s0", "GbmTerminal")?;
        let mu = param_f64(params, 1, "mu", "GbmTerminal")?;
        let sigma = param_f64(params, 2, "sigma", "GbmTerminal")?;
        let horizon = param_f64(params, 3, "horizon", "GbmTerminal")?;
        if s0 <= 0.0 || sigma < 0.0 || horizon <= 0.0 {
            return Err(Error::Invalid(
                "GbmTerminal: require s0 > 0, sigma >= 0, horizon > 0".into(),
            ));
        }
        let dt = horizon / self.steps as f64;
        let sqrt_dt = dt.sqrt();
        let mut s = s0;
        for _ in 0..self.steps {
            let z = std_normal_quantile(gen.next_f64_open());
            // Euler–Maruyama step; clamp at a tiny positive value so a large
            // negative shock cannot push the discretized price below zero.
            s += mu * s * dt + sigma * s * sqrt_dt * z;
            s = s.max(1e-12);
        }
        Ok(vec![Tuple::from_iter_values([s])])
    }

    fn generate_block_into(
        &self,
        params: &[Value],
        seed: SeedId,
        base_pos: u64,
        num_values: usize,
        out: &mut ColumnBlock,
    ) -> Result<()> {
        let s0 = param_f64(params, 0, "s0", "GbmTerminal")?;
        let mu = param_f64(params, 1, "mu", "GbmTerminal")?;
        let sigma = param_f64(params, 2, "sigma", "GbmTerminal")?;
        let horizon = param_f64(params, 3, "horizon", "GbmTerminal")?;
        if s0 <= 0.0 || sigma < 0.0 || horizon <= 0.0 {
            return Err(Error::Invalid(
                "GbmTerminal: require s0 > 0, sigma >= 0, horizon > 0".into(),
            ));
        }
        let dt = horizon / self.steps as f64;
        let sqrt_dt = dt.sqrt();
        let steps = self.steps;
        scalar_block_into(seed, base_pos, num_values, out, |gen| {
            let mut s = s0;
            for _ in 0..steps {
                let z = std_normal_quantile(gen.next_f64_open());
                s += mu * s * dt + sigma * s * sqrt_dt * z;
                s = s.max(1e-12);
            }
            s
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_prng::RandomStream;

    fn run_scalar(vg: &dyn VgFunction, params: &[Value], seed: u64, n: usize) -> Vec<f64> {
        let stream = RandomStream::new(seed);
        (0..n)
            .map(|pos| {
                let mut gen = stream.generator_at(pos as u64);
                vg.generate(params, &mut gen).unwrap()[0]
                    .value(0)
                    .as_f64()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn normal_vg_matches_paper_parameterization() {
        // §2: Normal(VALUES(m, 1.0)) — mean m, variance 1.
        let vg = NormalVg;
        let samples = run_scalar(&vg, &[Value::Float64(4.0), Value::Float64(1.0)], 11, 50_000);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 4.0).abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
        assert_eq!(vg.output_fields()[0].name, "value");
    }

    #[test]
    fn normal_vg_rejects_bad_params() {
        let mut gen = Pcg64::new(1);
        assert!(NormalVg.generate(&[Value::Float64(1.0)], &mut gen).is_err());
        assert!(NormalVg
            .generate(&[Value::Float64(1.0), Value::Float64(-2.0)], &mut gen)
            .is_err());
        assert!(NormalVg
            .generate(&[Value::str("x"), Value::Float64(1.0)], &mut gen)
            .is_err());
    }

    #[test]
    fn vg_calls_are_deterministic_per_position() {
        let stream = RandomStream::new(77);
        let params = [Value::Float64(3.0), Value::Float64(1.0)];
        let a = NormalVg
            .generate(&params, &mut stream.generator_at(5))
            .unwrap();
        let b = NormalVg
            .generate(&params, &mut stream.generator_at(5))
            .unwrap();
        assert_eq!(a, b);
        let c = NormalVg
            .generate(&params, &mut stream.generator_at(6))
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_and_poisson_vg() {
        let u = run_scalar(
            &UniformVg,
            &[Value::Float64(2.0), Value::Float64(4.0)],
            3,
            20_000,
        );
        assert!(u.iter().all(|&x| (2.0..4.0).contains(&x)));
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        assert!((mean - 3.0).abs() < 0.02);

        let p = run_scalar(&PoissonVg, &[Value::Float64(6.0)], 4, 20_000);
        let mean = p.iter().sum::<f64>() / p.len() as f64;
        assert!((mean - 6.0).abs() < 0.1);
        assert!(p.iter().all(|&x| x >= 0.0 && x.fract() == 0.0));

        let mut gen = Pcg64::new(1);
        assert!(UniformVg
            .generate(&[Value::Float64(4.0), Value::Float64(2.0)], &mut gen)
            .is_err());
        assert!(PoissonVg
            .generate(&[Value::Float64(-1.0)], &mut gen)
            .is_err());
    }

    #[test]
    fn discrete_vg_respects_weights() {
        let vg = DiscreteVg::new(vec![
            Value::str("ship"),
            Value::str("truck"),
            Value::str("air"),
        ]);
        let params = [
            Value::Float64(0.5),
            Value::Float64(0.3),
            Value::Float64(0.2),
        ];
        let stream = RandomStream::new(21);
        let mut counts = std::collections::BTreeMap::new();
        let n = 30_000;
        for pos in 0..n {
            let mut gen = stream.generator_at(pos);
            let rows = vg.generate(&params, &mut gen).unwrap();
            *counts.entry(rows[0].value(0).to_string()).or_insert(0usize) += 1;
        }
        let frac = |k: &str| counts[k] as f64 / n as f64;
        assert!((frac("ship") - 0.5).abs() < 0.02);
        assert!((frac("truck") - 0.3).abs() < 0.02);
        assert!((frac("air") - 0.2).abs() < 0.02);
    }

    #[test]
    fn cache_tokens_discriminate_configurations() {
        assert_eq!(NormalVg.cache_token(), "Normal");
        assert_ne!(
            MultiNormalVg::new(3, 0.5).cache_token(),
            MultiNormalVg::new(4, 0.5).cache_token()
        );
        assert_ne!(
            MultiNormalVg::new(3, 0.5).cache_token(),
            MultiNormalVg::new(3, 0.2).cache_token()
        );
        assert_ne!(
            DiscreteVg::new(vec![Value::Int64(1)]).cache_token(),
            DiscreteVg::new(vec![Value::Int64(2)]).cache_token()
        );
        // Serialization must not collide across types or string boundaries.
        assert_ne!(
            DiscreteVg::new(vec![Value::Int64(1), Value::Int64(2)]).cache_token(),
            DiscreteVg::new(vec![Value::Float64(1.0), Value::Float64(2.0)]).cache_token()
        );
        assert_ne!(
            DiscreteVg::new(vec![Value::str("a,b")]).cache_token(),
            DiscreteVg::new(vec![Value::str("a"), Value::str("b")]).cache_token()
        );
        assert_ne!(
            DiscreteVg::new(vec![Value::Bool(true)]).cache_token(),
            DiscreteVg::new(vec![Value::Int64(1)]).cache_token()
        );
        assert_ne!(
            GbmTerminalVg::new(16).cache_token(),
            GbmTerminalVg::new(32).cache_token()
        );
    }

    /// Assert `generate_block_into` and per-position `generate` agree
    /// bit-for-bit over a window of stream positions.
    fn assert_batched_matches_scalar(vg: &dyn VgFunction, params: &[Value], seed: u64) {
        let (base, n) = (5u64, 64usize);
        let mut block = ColumnBlock::new();
        vg.generate_block_into(params, seed, base, n, &mut block)
            .unwrap();
        block.validate(n).unwrap();
        let stream = RandomStream::new(seed);
        let mut rows_per_pos = None;
        for i in 0..n {
            let mut gen = stream.generator_at(base + i as u64);
            let rows = vg.generate(params, &mut gen).unwrap();
            rows_per_pos = Some(rows.len());
            assert_eq!(block.rows_per_pos(), rows.len());
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(block.cols(), row.arity());
                for c in 0..row.arity() {
                    let batched = block.value_at(r, c, i).unwrap();
                    let scalar = row.value(c);
                    match (&batched, scalar) {
                        (Value::Float64(a), Value::Float64(b)) => {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{} pos {i} cell ({r},{c})",
                                vg.name()
                            );
                        }
                        _ => assert_eq!(&batched, scalar, "{} pos {i} cell ({r},{c})", vg.name()),
                    }
                }
            }
        }
        assert_eq!(rows_per_pos, Some(block.rows_per_pos()));
    }

    /// One configuration of every built-in VG, with parameters it accepts.
    fn builtins() -> Vec<(Box<dyn VgFunction>, Vec<Value>)> {
        let f = Value::Float64;
        vec![
            (Box::new(NormalVg), vec![f(3.0), f(2.0)]),
            (Box::new(UniformVg), vec![f(-1.0), f(4.0)]),
            (Box::new(PoissonVg), vec![f(6.5)]),
            (
                Box::new(DiscreteVg::new(vec![
                    Value::str("ship"),
                    Value::str("truck|air:"),
                    Value::str("航空"),
                ])),
                vec![f(0.5), f(0.3), f(0.2)],
            ),
            (
                Box::new(DiscreteVg::new(vec![
                    Value::Int64(-20),
                    Value::Bool(true),
                    Value::Null,
                    f(-0.0),
                ])),
                vec![f(0.4), f(0.3), f(0.2), f(0.1)],
            ),
            (Box::new(DiscreteVg::new(vec![])), vec![]),
            (Box::new(MultiNormalVg::new(3, 0.6)), vec![f(1.0), f(2.0)]),
            (
                Box::new(MultiNormalVg::new(1, 1e-300)),
                vec![f(1.0), f(2.0)],
            ),
            (
                Box::new(BayesianDemandVg),
                vec![f(4.0), f(2.5), f(1.5), f(0.1)],
            ),
            (
                Box::new(GbmTerminalVg::new(16)),
                vec![f(100.0), f(0.05), f(0.2), f(1.0)],
            ),
            (
                Box::new(GbmTerminalVg::new(MAX_TOKEN_SIZE)),
                vec![f(100.0), f(0.05), f(0.2), f(1.0)],
            ),
        ]
    }

    #[test]
    fn batched_generation_is_bit_identical_for_every_builtin_vg() {
        for (seed, (vg, params)) in builtins().iter().enumerate() {
            if !params.is_empty() {
                assert_batched_matches_scalar(vg.as_ref(), params, 11 + seed as u64);
            }
        }
    }

    /// Every cell of a block as bytes, floats as raw bits.
    fn block_bytes(vg: &dyn VgFunction, params: &[Value]) -> Vec<u8> {
        let mut block = ColumnBlock::new();
        vg.generate_block_into(params, 23, 7, 16, &mut block)
            .unwrap();
        let mut bytes = Vec::new();
        for r in 0..block.rows_per_pos() {
            for c in 0..block.cols() {
                block.column(r, c).encode_wire(&mut bytes);
            }
        }
        bytes
    }

    #[test]
    fn every_builtin_configuration_round_trips_through_its_token() {
        for (vg, params) in builtins() {
            let token = vg.cache_token();
            let rebuilt = from_token(&token).unwrap_or_else(|e| panic!("{token}: {e}"));
            assert_eq!(rebuilt.cache_token(), token);
            assert_eq!(rebuilt.name(), vg.name());
            if !params.is_empty() {
                assert_eq!(
                    block_bytes(rebuilt.as_ref(), &params),
                    block_bytes(vg.as_ref(), &params),
                    "{token}"
                );
            }
        }
    }

    #[test]
    fn tokens_no_builtin_would_rebuild_are_errors() {
        let hostile = [
            // A dimension or step count that would exhaust memory or time
            // at the first generated position.
            format!("MultiNormal[dim={},rho=0.5]", 1u64 << 40),
            format!("GbmTerminal[steps={}]", 1u64 << 62),
            format!("MultiNormal[dim={},rho=0.5]", MAX_TOKEN_SIZE + 1),
            format!("GbmTerminal[steps={}]", MAX_TOKEN_SIZE + 1),
            // What a constructor would assert on.
            "MultiNormal[dim=0,rho=0.5]".into(),
            "MultiNormal[dim=2,rho=1.5]".into(),
            "MultiNormal[dim=2,rho=NaN]".into(),
            "GbmTerminal[steps=0]".into(),
            // Unknown and third-party tokens.
            "".into(),
            "FallbackOnly".into(),
            "normal".into(),
            // Spellings the built-ins never produce.
            "MultiNormal[dim=03,rho=0.5]".into(),
            "MultiNormal[dim=3,rho=0.50]".into(),
            "GbmTerminal[steps=+16]".into(),
            "Normal ".into(),
            "Discrete|i01".into(),
            "Discrete|b2".into(),
            "Discrete|f3FF0000000000000".into(),
            // Malformed category lists.
            "Discrete|".into(),
            "Discrete|x1".into(),
            "Discrete|n1".into(),
            "Discrete|s9:ab".into(),
            "Discrete|s1:航".into(),
            "Discrete|航".into(),
            "Discrete|i".into(),
        ];
        for token in hostile {
            assert!(
                matches!(from_token(&token), Err(Error::Invalid(_))),
                "{token:?} decoded"
            );
        }
    }

    /// A third-party-style VG with no batched override: the default
    /// `generate_block_into` must fall back to per-position `generate` and
    /// still satisfy the bit-exact contract.
    #[derive(Debug)]
    struct FallbackOnlyVg;

    impl VgFunction for FallbackOnlyVg {
        fn name(&self) -> &str {
            "FallbackOnly"
        }
        fn cache_token(&self) -> String {
            self.name().to_string()
        }
        fn output_fields(&self) -> Vec<Field> {
            vec![Field::float64("value"), Field::utf8("label")]
        }
        fn generate(&self, params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>> {
            let shift = param_f64(params, 0, "shift", "FallbackOnly")?;
            let x = gen.next_f64() + shift;
            let label = if x > shift + 0.5 { "hi" } else { "lo" };
            Ok(vec![Tuple::from_iter_values([
                Value::Float64(x),
                Value::str(label),
            ])])
        }
    }

    #[test]
    fn default_batched_fallback_matches_scalar_generation() {
        assert_batched_matches_scalar(&FallbackOnlyVg, &[Value::Float64(2.0)], 19);
    }

    /// A broken VG whose output row count depends on the draw — the contract
    /// violation the per-block shape validation must catch.
    #[derive(Debug)]
    struct RaggedVg;

    impl VgFunction for RaggedVg {
        fn name(&self) -> &str {
            "Ragged"
        }
        fn cache_token(&self) -> String {
            self.name().to_string()
        }
        fn output_fields(&self) -> Vec<Field> {
            vec![Field::float64("value")]
        }
        fn generate(&self, _params: &[Value], gen: &mut Pcg64) -> Result<Vec<Tuple>> {
            let rows = if gen.next_f64() < 0.5 { 1 } else { 2 };
            Ok((0..rows)
                .map(|_| Tuple::from_iter_values([gen.next_f64()]))
                .collect())
        }
    }

    #[test]
    fn ragged_row_counts_error_in_the_batched_fallback() {
        let mut block = ColumnBlock::new();
        let err = RaggedVg
            .generate_block_into(&[], 3, 0, 256, &mut block)
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("fixed, seed-independent row count"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn discrete_batched_blocks_intern_categories() {
        let vg = DiscreteVg::new(vec![
            Value::str("ship"),
            Value::str("truck"),
            Value::str("air"),
        ]);
        let params = [
            Value::Float64(0.5),
            Value::Float64(0.3),
            Value::Float64(0.2),
        ];
        let mut block = ColumnBlock::new();
        vg.generate_block_into(&params, 21, 0, 10_000, &mut block)
            .unwrap();
        match block.column(0, 0).data() {
            mcdbr_storage::ColumnData::Utf8(col) => {
                assert_eq!(col.len(), 10_000);
                assert_eq!(
                    col.distinct(),
                    3,
                    "10k sampled rows must store exactly 3 arena strings"
                );
            }
            other => panic!("expected an interned Utf8 column, got {other:?}"),
        }
    }

    #[test]
    fn discrete_cache_tokens_are_stable_across_the_interning_change() {
        // The plan fingerprint (and therefore every session-cache key) must
        // not move when category storage changes representation: these are
        // the exact token strings the pre-interning implementation produced.
        assert_eq!(
            DiscreteVg::new(vec![Value::str("a,b"), Value::Int64(1)]).cache_token(),
            "Discrete|s3:a,b|i1"
        );
        assert_eq!(
            DiscreteVg::new(vec![
                Value::Float64(1.0),
                Value::Bool(true),
                Value::Null,
                Value::str("x")
            ])
            .cache_token(),
            format!("Discrete|f{:016x}|b1|n|s1:x", 1.0f64.to_bits())
        );
    }

    #[test]
    fn discrete_vg_validates_weights() {
        let vg = DiscreteVg::new(vec![Value::Int64(1), Value::Int64(2)]);
        let mut gen = Pcg64::new(1);
        assert!(vg.generate(&[Value::Float64(1.0)], &mut gen).is_err());
        assert!(vg
            .generate(&[Value::Float64(-1.0), Value::Float64(2.0)], &mut gen)
            .is_err());
        assert!(vg
            .generate(&[Value::Float64(0.0), Value::Float64(0.0)], &mut gen)
            .is_err());
    }

    #[test]
    fn multi_normal_produces_correlated_block() {
        let vg = MultiNormalVg::new(2, 0.8);
        let stream = RandomStream::new(5);
        let params = [Value::Float64(0.0), Value::Float64(1.0)];
        let n = 40_000;
        let (mut sx, mut sy, mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for pos in 0..n {
            let mut gen = stream.generator_at(pos);
            let rows = vg.generate(&params, &mut gen).unwrap();
            assert_eq!(rows.len(), 2);
            let x = rows[0].value(1).as_f64().unwrap();
            let y = rows[1].value(1).as_f64().unwrap();
            sx += x;
            sy += y;
            sxy += x * y;
            sxx += x * x;
            syy += y * y;
        }
        let nf = n as f64;
        let (mx, my) = (sx / nf, sy / nf);
        let cov = sxy / nf - mx * my;
        let vx = sxx / nf - mx * mx;
        let vy = syy / nf - my * my;
        let corr = cov / (vx * vy).sqrt();
        assert!((corr - 0.8).abs() < 0.03, "corr = {corr}");
    }

    #[test]
    fn bayesian_demand_mean_matches_theory() {
        // E[demand] = E[rate] * exp(-e * dp) = shape*scale * exp(-1.5*0.1)
        let vg = BayesianDemandVg;
        let params = [
            Value::Float64(4.0),
            Value::Float64(2.5),
            Value::Float64(1.5),
            Value::Float64(0.1),
        ];
        let d = run_scalar(&vg, &params, 9, 40_000);
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        let expected = 4.0 * 2.5 * (-1.5f64 * 0.1).exp();
        assert!(
            (mean - expected).abs() < 0.15,
            "mean = {mean}, expected = {expected}"
        );
        let mut gen = Pcg64::new(1);
        assert!(vg
            .generate(
                &[
                    Value::Float64(-1.0),
                    Value::Float64(1.0),
                    Value::Float64(0.0),
                    Value::Float64(0.0)
                ],
                &mut gen
            )
            .is_err());
    }

    #[test]
    fn gbm_terminal_mean_matches_theory() {
        // E[S_T] = S0 * exp(mu * T) for GBM (Euler bias is small for many steps).
        let vg = GbmTerminalVg::new(64);
        let params = [
            Value::Float64(100.0),
            Value::Float64(0.05),
            Value::Float64(0.2),
            Value::Float64(1.0),
        ];
        let s = run_scalar(&vg, &params, 13, 40_000);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let expected = 100.0 * (0.05f64).exp();
        assert!(
            (mean - expected).abs() < 1.0,
            "mean = {mean}, expected = {expected}"
        );
        assert!(s.iter().all(|&x| x > 0.0));
        let mut gen = Pcg64::new(1);
        assert!(vg
            .generate(
                &[
                    Value::Float64(-5.0),
                    Value::Float64(0.0),
                    Value::Float64(0.1),
                    Value::Float64(1.0)
                ],
                &mut gen
            )
            .is_err());
    }
}
