//! The bundle executor: runs a [`PlanNode`] over a catalog, producing a
//! [`BundleSet`].
//!
//! The executor implements the MCDB "run the plan once over tuple bundles"
//! discipline (paper §1): no matter how many Monte Carlo repetitions (or how
//! large the Gibbs block), the deterministic work — scans, joins on
//! deterministic attributes, constant-only predicates — happens exactly once.
//! Random attributes are materialized as blocks of stream values with full
//! lineage so that the MCDB baseline can read repetition `i` directly and the
//! Gibbs Looper can re-map stream positions to DB versions (paper §5–§6).
//!
//! Instantiation ranges are explicit in [`ExecOptions`]: MCDB materializes
//! positions `0..num_values`; a replenishing MCDB-R run materializes
//! `base_pos..base_pos + num_values` ("the `Instantiate` operation never adds
//! stream values to a Gibbs tuple that have already been processed; it only
//! adds new or currently assigned values", paper §9).

use std::collections::HashMap;
use std::sync::Arc;

use mcdbr_prng::seed_for;
use mcdbr_storage::{Catalog, Column, Error, Result, Schema, Value};

use crate::bundle::{BundleSet, BundleValue, SharedColumn, TupleBundle};
use crate::expr::Expr;
use crate::plan::{OutputColumn, PlanNode, RandomTableSpec};
use crate::session::check_block_cells;
use crate::stream_registry::StreamRegistry;

/// Options controlling a plan execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Master seed; every stream seed is derived from it.
    pub master_seed: u64,
    /// Number of stream values to materialize per random attribute.
    /// For the MCDB baseline this equals the number of Monte Carlo
    /// repetitions; for MCDB-R it is the Gibbs block size.
    pub num_values: usize,
    /// First stream position to materialize (0 for an initial run, the next
    /// unprocessed position for a replenishment run).
    pub base_pos: u64,
}

impl ExecOptions {
    /// Options for an MCDB run with `n` Monte Carlo repetitions.
    pub fn monte_carlo(master_seed: u64, n: usize) -> Self {
        ExecOptions {
            master_seed,
            num_values: n,
            base_pos: 0,
        }
    }
}

/// The bundle executor.
///
/// The executor also counts how many times plans have been run through it
/// (`plans_executed`), which the Appendix D timing / plan-execution
/// experiments report, and how many distinct streams its last execution
/// registered (`streams_registered`).
#[derive(Debug, Default)]
pub struct Executor {
    plans_executed: usize,
    streams_registered: usize,
}

impl Executor {
    /// Create a new executor.
    pub fn new() -> Self {
        Executor::default()
    }

    /// Number of plan executions performed so far (initial runs plus
    /// replenishment runs).
    pub fn plans_executed(&self) -> usize {
        self.plans_executed
    }

    /// Number of distinct streams the last [`Executor::execute`] registered
    /// — every random-table row it read, whether or not a later filter
    /// dropped the tuple (0 before the first execution).
    pub fn streams_registered(&self) -> usize {
        self.streams_registered
    }

    /// Execute `plan` against `catalog`, materializing random attributes as
    /// dictated by `opts`.
    pub fn execute(
        &mut self,
        plan: &PlanNode,
        catalog: &Catalog,
        opts: &ExecOptions,
    ) -> Result<BundleSet> {
        self.plans_executed += 1;
        let mut registry = StreamRegistry::new();
        let (schema, bundles) = exec_node(plan, catalog, opts, &mut registry)?;
        self.streams_registered = registry.len();
        Ok(BundleSet {
            schema,
            bundles,
            num_reps: opts.num_values,
        })
    }
}

fn exec_node(
    plan: &PlanNode,
    catalog: &Catalog,
    opts: &ExecOptions,
    registry: &mut StreamRegistry,
) -> Result<(Schema, Vec<TupleBundle>)> {
    match plan {
        PlanNode::TableScan { table } => {
            let t = catalog.get(table)?;
            // Page-at-a-time scan through the shared buffer pool: the
            // iterator pins one decoded frame at a time, so the resident
            // set stays bounded by the pool's frame budget even for cold
            // tables.
            let bundles = t
                .iter()
                .map(|row| TupleBundle::constant(row.into_values()))
                .collect();
            Ok((t.schema().clone(), bundles))
        }
        PlanNode::RandomTable(spec) => exec_random_table(spec, catalog, opts, registry),
        PlanNode::Filter { input, predicate } => {
            let (schema, bundles) = exec_node(input, catalog, opts, registry)?;
            let filtered = apply_filter(&schema, bundles, predicate, opts.num_values)?;
            Ok((schema, filtered))
        }
        PlanNode::Project { input, exprs } => {
            let (in_schema, bundles) = exec_node(input, catalog, opts, registry)?;
            let out_schema = plan.schema(catalog)?;
            let projected = apply_project(&in_schema, bundles, exprs, opts.num_values)?;
            Ok((out_schema, projected))
        }
        PlanNode::Join {
            left, right, on, ..
        } => {
            let (ls, lb) = exec_node(left, catalog, opts, registry)?;
            let (rs, rb) = exec_node(right, catalog, opts, registry)?;
            let out_schema = ls.join(&rs);
            let joined = apply_hash_join(&ls, lb, &rs, rb, on)?;
            Ok((out_schema, joined))
        }
        PlanNode::Split { input, column } => {
            let (schema, bundles) = exec_node(input, catalog, opts, registry)?;
            let split = apply_split(&schema, bundles, column, opts.num_values)?;
            Ok((schema, split))
        }
    }
}

/// Generate the bundles of an uncertain table (paper §2 / Fig. 2's
/// Seed + Instantiate).
fn exec_random_table(
    spec: &RandomTableSpec,
    catalog: &Catalog,
    opts: &ExecOptions,
    registry: &mut StreamRegistry,
) -> Result<(Schema, Vec<TupleBundle>)> {
    let param_table = catalog.get(&spec.param_table)?;
    let param_schema = param_table.schema();
    let out_schema = spec.schema(catalog)?;
    let vg_fields = spec.vg.output_fields().len();

    let mut bundles = Vec::new();
    for (row_idx, param_row) in param_table.iter().enumerate() {
        // Seed operator: derive and register this tuple's stream.
        let seed = seed_for(opts.master_seed, spec.table_tag, row_idx as u64);
        let params: Vec<Value> = spec
            .vg_params
            .iter()
            .map(|e| e.eval(param_schema, param_row.values()))
            .collect::<Result<_>>()?;
        registry.register(seed, spec.vg.clone(), params.clone());

        // Instantiate operator: materialize the block of stream values.
        // One VG invocation per position; all output rows/columns of that
        // invocation share the position.  The first position's row count
        // sizes the block, which must fit the budget before the rest is made.
        let source = registry.source(seed)?.clone();
        let mut per_pos_rows = Vec::new();
        for i in 0..opts.num_values {
            let rows = source.generate_at(seed, opts.base_pos + i as u64)?;
            if i == 0 {
                registry.reserve_cells(rows.len() * vg_fields, opts.num_values)?;
                per_pos_rows.reserve_exact(opts.num_values);
            }
            per_pos_rows.push(rows);
        }
        let vg_rows = per_pos_rows.first().map(|r| r.len()).unwrap_or(1);
        if per_pos_rows.iter().any(|r| r.len() != vg_rows) {
            return Err(Error::Invalid(format!(
                "VG function {} produced a varying number of output rows across stream \
                 positions; the bundle executor requires a fixed row count",
                spec.vg.name()
            )));
        }

        for vg_row in 0..vg_rows {
            let mut values = Vec::with_capacity(spec.columns.len());
            for col in &spec.columns {
                match col {
                    OutputColumn::Param { source: src, .. } => {
                        let idx = param_schema.index_of(src)?;
                        values.push(BundleValue::Const(param_row.value(idx).clone()));
                    }
                    OutputColumn::Vg { vg_col, .. } => {
                        let mut block = Column::default();
                        for rows in &per_pos_rows {
                            block.push_value(rows[vg_row].value(*vg_col));
                        }
                        values.push(BundleValue::Random {
                            seed,
                            vg_row,
                            vg_col: *vg_col,
                            base_pos: opts.base_pos,
                            values: SharedColumn::from_column(block),
                        });
                    }
                }
            }
            bundles.push(TupleBundle {
                values,
                is_pres: None,
            });
        }
    }
    Ok((out_schema, bundles))
}

/// Apply a filter: constant-only predicates drop bundles, predicates that
/// touch random attributes become per-repetition presence masks.
fn apply_filter(
    schema: &Schema,
    bundles: Vec<TupleBundle>,
    predicate: &Expr,
    num_reps: usize,
) -> Result<Vec<TupleBundle>> {
    let referenced = predicate.referenced_columns();
    let ref_indices: Vec<usize> = referenced
        .iter()
        .map(|c| schema.index_of(c))
        .collect::<Result<_>>()?;

    let mut out = Vec::with_capacity(bundles.len());
    for mut bundle in bundles {
        let touches_random = ref_indices.iter().any(|&i| !bundle.values[i].is_const());
        if !touches_random {
            // Deterministic predicate for this bundle: evaluate once.
            let row = bundle.row_at(0);
            if predicate.eval_bool(schema, &row)? {
                out.push(bundle);
            }
        } else {
            // Random predicate: evaluate per repetition into isPres
            // (paper §5: "An array of isPres values is created when a
            // selection predicate is applied to a random attribute").
            let mut mask = Vec::with_capacity(num_reps);
            for rep in 0..num_reps {
                let row = bundle.row_at(rep);
                mask.push(predicate.eval_bool(schema, &row)?);
            }
            bundle.restrict_presence(&mask);
            // "If the predicate is not satisfied in any DB instance, then the
            // entire Gibbs tuple is dropped."
            if !bundle.absent_everywhere(num_reps) {
                out.push(bundle);
            }
        }
    }
    Ok(out)
}

/// Apply a projection.  Plain column references keep their lineage; computed
/// expressions become constants (if every input is constant) or lose lineage
/// into [`BundleValue::Computed`] otherwise.
fn apply_project(
    schema: &Schema,
    bundles: Vec<TupleBundle>,
    exprs: &[(String, Expr)],
    num_reps: usize,
) -> Result<Vec<TupleBundle>> {
    let mut out = Vec::with_capacity(bundles.len());
    for bundle in bundles {
        let mut values = Vec::with_capacity(exprs.len());
        for (_, expr) in exprs {
            if let Expr::Column(name) = expr {
                let idx = schema.index_of(name)?;
                values.push(bundle.values[idx].clone());
                continue;
            }
            let referenced = expr.referenced_columns();
            let all_const = referenced
                .iter()
                .map(|c| schema.index_of(c))
                .collect::<Result<Vec<_>>>()?
                .into_iter()
                .all(|i| bundle.values[i].is_const());
            if all_const {
                let row = bundle.row_at(0);
                values.push(BundleValue::Const(expr.eval(schema, &row)?));
            } else {
                let mut computed = Column::default();
                for rep in 0..num_reps {
                    let row = bundle.row_at(rep);
                    computed.push_value(&expr.eval(schema, &row)?);
                }
                values.push(BundleValue::Computed(SharedColumn::from_column(computed)));
            }
        }
        out.push(TupleBundle {
            values,
            is_pres: bundle.is_pres.clone(),
        });
    }
    Ok(out)
}

/// A hashable key over constant join values.  Shared with the two-phase
/// [`crate::session::ExecSession`], whose symbolic join must order its output
/// exactly like this executor's.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum JoinKey {
    Null,
    Int(i64),
    Bits(u64),
    Bool(bool),
    Str(std::sync::Arc<str>),
}

pub(crate) fn join_key(v: &Value) -> JoinKey {
    match v {
        Value::Null => JoinKey::Null,
        Value::Int64(i) => JoinKey::Int(*i),
        // Integral floats hash like the corresponding integer so that joins
        // across Int64 / Float64 columns behave like SQL numeric equality.
        Value::Float64(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => JoinKey::Int(*f as i64),
        Value::Float64(f) => JoinKey::Bits(f.to_bits()),
        Value::Bool(b) => JoinKey::Bool(*b),
        Value::Utf8(s) => JoinKey::Str(s.clone()),
    }
}

/// Hash inner equi-join on deterministic attributes.  Joining on a random
/// attribute is an error: the plan must Split it first (paper §8).
fn apply_hash_join(
    left_schema: &Schema,
    left: Vec<TupleBundle>,
    right_schema: &Schema,
    right: Vec<TupleBundle>,
    on: &[(String, String)],
) -> Result<Vec<TupleBundle>> {
    if on.is_empty() {
        return Err(Error::Invalid("join requires at least one key pair".into()));
    }
    let left_keys: Vec<usize> = on
        .iter()
        .map(|(l, _)| left_schema.index_of(l))
        .collect::<Result<_>>()?;
    let right_keys: Vec<usize> = on
        .iter()
        .map(|(_, r)| right_schema.index_of(r))
        .collect::<Result<_>>()?;

    // Build side: the right input.
    let mut table: HashMap<Vec<JoinKey>, Vec<usize>> = HashMap::with_capacity(right.len());
    for (idx, bundle) in right.iter().enumerate() {
        let key = bundle_key(bundle, right_schema, &right_keys, "right")?;
        if key.iter().any(|k| matches!(k, JoinKey::Null)) {
            continue; // SQL: NULL keys never join
        }
        table.entry(key).or_default().push(idx);
    }

    let mut out = Vec::new();
    for bundle in &left {
        let key = bundle_key(bundle, left_schema, &left_keys, "left")?;
        if key.iter().any(|k| matches!(k, JoinKey::Null)) {
            continue;
        }
        if let Some(matches) = table.get(&key) {
            for &ridx in matches {
                out.push(bundle.concat(&right[ridx]));
            }
        }
    }
    Ok(out)
}

fn bundle_key(
    bundle: &TupleBundle,
    schema: &Schema,
    key_cols: &[usize],
    side: &str,
) -> Result<Vec<JoinKey>> {
    key_cols
        .iter()
        .map(|&i| match &bundle.values[i] {
            BundleValue::Const(v) => Ok(join_key(v)),
            _ => Err(random_join_key(side, &schema.field(i).name)),
        })
        .collect()
}

/// The error for a join key that is random in some bundle, naming the key
/// column; shared with the two-phase session's skeleton pass.
pub(crate) fn random_join_key(side: &str, column: &str) -> Error {
    Error::InvalidOperation(format!(
        "{side} join key column {column} is a random attribute; apply Split before joining \
         on a random attribute (paper §8)"
    ))
}

/// MCDB's Split operation (paper §8): replace a random column by one bundle
/// per distinct value, with presence restricted to the repetitions in which
/// the stream took that value.
///
/// Every variant carries a presence flag per repetition, so the variants of
/// all bundles count toward [`crate::MAX_BLOCK_CELLS`] as they are found,
/// before any is built.
fn apply_split(
    schema: &Schema,
    bundles: Vec<TupleBundle>,
    column: &str,
    num_reps: usize,
) -> Result<Vec<TupleBundle>> {
    let idx = schema.index_of(column)?;
    // Per bundle with a random `column`: its distinct values in
    // first-appearance order, and the one each repetition took (`None` for a
    // value equal to nothing, such as NULL or NaN, which is present in no
    // variant).
    let mut variants = 0u64;
    let mut enumerated = Vec::with_capacity(bundles.len());
    for bundle in &bundles {
        if bundle.values[idx].is_const() {
            enumerated.push(None);
            continue;
        }
        let mut first_seen = HashMap::new();
        let mut distinct: Vec<Value> = Vec::new();
        let mut taken = Vec::with_capacity(num_reps);
        for rep in 0..num_reps {
            let v = bundle.values[idx].value_at(rep);
            let Some(class) = sql_eq_class(&v) else {
                taken.push(None);
                continue;
            };
            let k = *first_seen.entry(class).or_insert(distinct.len());
            if k == distinct.len() {
                variants += 1;
                check_block_cells(variants, num_reps)?;
                distinct.push(v);
            }
            taken.push(Some(k));
        }
        enumerated.push(Some((distinct, taken)));
    }
    let mut out = Vec::new();
    for (bundle, enumerated) in bundles.into_iter().zip(enumerated) {
        let Some((distinct, taken)) = enumerated else {
            out.push(bundle);
            continue;
        };
        for (k, v) in distinct.into_iter().enumerate() {
            let mask: Vec<bool> = taken.iter().map(|&t| t == Some(k)).collect();
            let mut split = bundle.clone();
            split.values[idx] = BundleValue::Const(v);
            split.restrict_presence(&mask);
            if !split.absent_everywhere(num_reps) {
                out.push(split);
            }
        }
    }
    Ok(out)
}

/// The class of values [`Value::sql_eq`] holds equal to `v`: numbers
/// (booleans included) by their `f64`, with −0 as +0, and strings by their
/// text; `None` for a value equal to nothing (NULL, NaN).
#[derive(PartialEq, Eq, Hash)]
enum SqlEqClass {
    Number(u64),
    Text(Arc<str>),
}

fn sql_eq_class(v: &Value) -> Option<SqlEqClass> {
    match v {
        Value::Null => None,
        Value::Utf8(s) => Some(SqlEqClass::Text(Arc::clone(s))),
        number => {
            let x = number.as_f64().ok()?;
            let x = if x == 0.0 { 0.0 } else { x };
            (!x.is_nan()).then_some(SqlEqClass::Number(x.to_bits()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::scalar_random_table;
    use crate::stream_registry::StreamSource;
    use mcdbr_storage::{Field, TableBuilder};
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

    #[test]
    fn scan_produces_constant_bundles() {
        let catalog = catalog();
        let mut exec = Executor::new();
        let set = exec
            .execute(
                &PlanNode::scan("means"),
                &catalog,
                &ExecOptions::monte_carlo(7, 4),
            )
            .unwrap();
        assert_eq!(set.len(), 3);
        assert!(set.bundles.iter().all(|b| b.is_fully_const()));
        assert_eq!(exec.plans_executed(), 1);
    }

    #[test]
    fn random_table_materializes_blocks_with_lineage() {
        let catalog = catalog();
        let mut exec = Executor::new();
        let set = exec
            .execute(&losses_plan(), &catalog, &ExecOptions::monte_carlo(7, 5))
            .unwrap();
        assert_eq!(set.len(), 3);
        assert_eq!(set.schema.names(), vec!["cid", "val"]);
        let seeds = set.bundles.iter().filter_map(|b| b.values[1].seed());
        assert_eq!(seeds.collect::<std::collections::BTreeSet<_>>().len(), 3);
        assert_eq!(exec.streams_registered(), 3);
        for bundle in &set.bundles {
            assert!(bundle.values[0].is_const());
            match &bundle.values[1] {
                BundleValue::Random {
                    values, base_pos, ..
                } => {
                    assert_eq!(values.len(), 5);
                    assert_eq!(*base_pos, 0);
                }
                other => panic!("expected random attribute, got {other:?}"),
            }
        }
        // The bundle's lineage regenerates exactly the materialized values
        // (customer 1's recipe: Normal(3, 1)).
        let source = StreamSource {
            vg: Arc::new(NormalVg),
            params: vec![Value::Float64(3.0), Value::Float64(1.0)].into(),
        };
        let BundleValue::Random {
            seed,
            vg_row,
            vg_col,
            values,
            ..
        } = &set.bundles[0].values[1]
        else {
            panic!("expected random attribute");
        };
        for (i, v) in values.values_out().into_iter().enumerate() {
            let regen = source.value_at(*seed, i as u64, *vg_row, *vg_col).unwrap();
            assert_eq!(regen, v);
        }
    }

    #[test]
    fn executions_are_reproducible_for_a_master_seed() {
        let catalog = catalog();
        let mut exec = Executor::new();
        let a = exec
            .execute(&losses_plan(), &catalog, &ExecOptions::monte_carlo(42, 3))
            .unwrap();
        let b = exec
            .execute(&losses_plan(), &catalog, &ExecOptions::monte_carlo(42, 3))
            .unwrap();
        let c = exec
            .execute(&losses_plan(), &catalog, &ExecOptions::monte_carlo(43, 3))
            .unwrap();
        assert_eq!(a.bundles, b.bundles);
        assert_ne!(a.bundles, c.bundles);
        assert_eq!(exec.plans_executed(), 3);
    }

    #[test]
    fn replenishment_range_continues_the_stream() {
        // Positions 5..10 of a later run line up with positions 5..10 of a
        // longer initial run — the §9 property that replenishment only adds
        // "new or currently assigned" values, never different ones.
        let catalog = catalog();
        let mut exec = Executor::new();
        let long = exec
            .execute(&losses_plan(), &catalog, &ExecOptions::monte_carlo(7, 10))
            .unwrap();
        let replenish = ExecOptions {
            base_pos: 5,
            ..ExecOptions::monte_carlo(7, 5)
        };
        let block = exec.execute(&losses_plan(), &catalog, &replenish).unwrap();
        for (lb, bb) in long.bundles.iter().zip(block.bundles.iter()) {
            let (long_vals, block_vals) = match (&lb.values[1], &bb.values[1]) {
                (
                    BundleValue::Random { values: a, .. },
                    BundleValue::Random {
                        values: b,
                        base_pos,
                        ..
                    },
                ) => {
                    assert_eq!(*base_pos, 5);
                    (a, b)
                }
                _ => panic!("expected random attributes"),
            };
            assert_eq!(&long_vals.values_out()[5..10], &block_vals.values_out()[..]);
        }
    }

    #[test]
    fn deterministic_filter_drops_bundles() {
        let catalog = catalog();
        let mut exec = Executor::new();
        let plan = losses_plan().filter(Expr::col("cid").lt(Expr::lit(3i64)));
        let set = exec
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(7, 4))
            .unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.bundles.iter().all(|b| b.is_pres.is_none()));
    }

    #[test]
    fn random_filter_becomes_presence() {
        let catalog = catalog();
        let mut exec = Executor::new();
        // Loss > mean: true roughly half the time per repetition.
        let plan = losses_plan().filter(Expr::col("val").gt(Expr::lit(4.0)));
        let set = exec
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(7, 64))
            .unwrap();
        // Bundles that survive carry per-repetition presence masks.
        assert!(!set.is_empty());
        for b in &set.bundles {
            let pres = b
                .is_pres
                .as_ref()
                .expect("random filter must create isPres");
            assert_eq!(pres.len(), 64);
            assert!(
                pres.iter().any(|&p| p),
                "never-present bundles must be dropped"
            );
            // Presence must agree with the predicate on the materialized values.
            for (rep, &present) in pres.iter().enumerate() {
                let val = b.values[1].value_at(rep).as_f64().unwrap();
                assert_eq!(present, val > 4.0);
            }
        }
    }

    #[test]
    fn projection_preserves_lineage_for_plain_columns() {
        let catalog = catalog();
        let mut exec = Executor::new();
        let plan = losses_plan().project(vec![
            ("loss", Expr::col("val")),
            ("cid", Expr::col("cid")),
            ("shifted", Expr::col("val").add(Expr::lit(10.0))),
            ("const_tag", Expr::lit(1i64)),
        ]);
        let set = exec
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(7, 3))
            .unwrap();
        let b = &set.bundles[0];
        assert!(
            matches!(b.values[0], BundleValue::Random { .. }),
            "lineage preserved"
        );
        assert!(b.values[1].is_const());
        assert!(
            matches!(b.values[2], BundleValue::Computed(_)),
            "derived loses lineage"
        );
        assert!(b.values[3].is_const());
        // The computed column equals the random column plus ten, per repetition.
        for rep in 0..3 {
            let raw = b.values[0].value_at(rep).as_f64().unwrap();
            let shifted = b.values[2].value_at(rep).as_f64().unwrap();
            assert!((shifted - raw - 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hash_join_on_deterministic_keys() {
        let catalog = catalog();
        let mut exec = Executor::new();
        let plan = losses_plan().join(PlanNode::scan("regions"), vec![("cid", "cid")]);
        let set = exec
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(7, 2))
            .unwrap();
        // cid 1 joins once, cid 2 joins twice, cid 3 never joins => 3 bundles.
        assert_eq!(set.len(), 3);
        assert_eq!(set.schema.names(), vec!["cid", "val", "cid_1", "region"]);
        // Every joined bundle keeps the random attribute's lineage.
        assert!(set
            .bundles
            .iter()
            .all(|b| matches!(b.values[1], BundleValue::Random { .. })));
    }

    #[test]
    fn join_on_random_attribute_requires_split() {
        let catalog = catalog();
        let mut exec = Executor::new();
        let plan = losses_plan().join(PlanNode::scan("regions"), vec![("val", "cid")]);
        let err = exec.execute(&plan, &catalog, &ExecOptions::monte_carlo(7, 2));
        assert!(err.is_err());
    }

    #[test]
    fn split_enumerates_discrete_random_values() {
        // A discrete uncertain attribute with two categories: Split must
        // produce one bundle per category with complementary presence.
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
        let spec = RandomTableSpec {
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
        let mut exec = Executor::new();
        let n = 32;
        let plan = PlanNode::random_table(spec).split("age");
        let set = exec
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(11, n))
            .unwrap();
        assert_eq!(set.len(), 2, "both ages should appear in 32 repetitions");
        // Presence masks partition the repetitions.
        let pres: Vec<&Vec<bool>> = set
            .bundles
            .iter()
            .map(|b| b.is_pres.as_ref().unwrap())
            .collect();
        for rep in 0..n {
            let count = pres.iter().filter(|m| m[rep]).count();
            assert_eq!(count, 1, "exactly one age per repetition");
        }
        // Split columns are now constants, so joining on them is legal.
        assert!(set.bundles.iter().all(|b| b.values[1].is_const()));
    }

    #[test]
    fn split_classes_are_the_classes_sql_eq_holds_equal() {
        let values = [
            Value::Null,
            Value::Float64(f64::NAN),
            Value::Float64(0.0),
            Value::Float64(-0.0),
            Value::Int64(0),
            Value::Bool(false),
            Value::Bool(true),
            Value::Int64(1),
            Value::Float64(1.5),
            Value::Int64(1 << 53),
            Value::Int64((1 << 53) + 1),
            Value::Float64(f64::INFINITY),
            Value::str("1"),
            Value::str("a"),
            Value::str("a"),
        ];
        for a in &values {
            for b in &values {
                let class = sql_eq_class(a);
                let same = class.is_some() && class == sql_eq_class(b);
                assert_eq!(same, a.sql_eq(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn split_passthrough_for_constant_columns() {
        let catalog = catalog();
        let mut exec = Executor::new();
        let plan = losses_plan().split("cid");
        let set = exec
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(7, 4))
            .unwrap();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn missing_tables_and_columns_error() {
        let catalog = catalog();
        let mut exec = Executor::new();
        assert!(exec
            .execute(
                &PlanNode::scan("nope"),
                &catalog,
                &ExecOptions::monte_carlo(1, 1)
            )
            .is_err());
        let plan = losses_plan().filter(Expr::col("nonexistent").gt(Expr::lit(0.0)));
        assert!(exec
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(1, 1))
            .is_err());
        let plan =
            PlanNode::scan("means").join(PlanNode::scan("regions"), Vec::<(&str, &str)>::new());
        assert!(exec
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(1, 1))
            .is_err());
    }
}
