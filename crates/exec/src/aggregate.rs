//! Per-repetition aggregation.
//!
//! An MCDB query result is not a single number but one number per generated
//! DB instance (paper §1).  This module evaluates an aggregation query once
//! per Monte Carlo repetition, producing the vector of query-result samples
//! that the `mcdbr-mcdb` result-distribution machinery (and, at smaller
//! granularity, the Gibbs Looper) consumes.
//!
//! There is one aggregator, and it folds every bundle once, on the calling
//! thread: `Aggregation::fold` folds one bundle's aggregand over all of a
//! window's repetitions into group-major lanes.  [`evaluate_aggregate`]
//! walks a materialized [`BundleSet`] with it, and
//! [`crate::shard::fold_block`] feeds it each bundle's inputs straight from
//! a block's generated cells; both finish alike (`Aggregation::finish`:
//! groups in the order of their first present bundle).  Repetitions are
//! never split into ranges: within one repetition the floating-point
//! accumulation order over bundles is the bit-identity contract, and one
//! pass keeps it with no partial to merge.
//!
//! Grouping follows paper Appendix A footnote 4: "Grouping is handled by, in
//! effect, treating a GROUP BY query over g groups as g separate,
//! simultaneous queries" — group keys must therefore be deterministic
//! (constant) attributes.

use mcdbr_storage::{Error, Mask, Result, Schema, Value};

use crate::bundle::{BundleSet, BundleValue};
use crate::expr::Expr;
use crate::program::{Lane, Program, Vals};

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the aggregand (0.0 over an empty group instance).
    Sum,
    /// Count of contributing tuples.
    Count,
    /// Average of the aggregand (NaN over an empty group instance).
    Avg,
    /// Minimum of the aggregand (NaN over an empty group instance).
    Min,
    /// Maximum of the aggregand (NaN over an empty group instance).
    Max,
}

/// An aggregate to compute: `func(expr) AS alias`.
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregand, e.g. `val` or `sal2 - sal1`.
    pub expr: Expr,
    /// Output name, e.g. `totalLoss`.
    pub alias: String,
}

impl AggregateSpec {
    /// `SUM(expr) AS alias`
    pub fn sum(expr: Expr, alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Sum,
            expr,
            alias: alias.into(),
        }
    }

    /// `COUNT(*) AS alias`
    pub fn count(alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Count,
            expr: Expr::lit(1i64),
            alias: alias.into(),
        }
    }

    /// `AVG(expr) AS alias`
    pub fn avg(expr: Expr, alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Avg,
            expr,
            alias: alias.into(),
        }
    }

    /// `MIN(expr) AS alias`
    pub fn min(expr: Expr, alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Min,
            expr,
            alias: alias.into(),
        }
    }

    /// `MAX(expr) AS alias`
    pub fn max(expr: Expr, alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Max,
            expr,
            alias: alias.into(),
        }
    }
}

/// Query-result samples: for each group, one aggregate value per repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResultSamples {
    /// Names of the grouping columns (empty for an ungrouped query).
    pub group_columns: Vec<String>,
    /// `(group key, per-repetition aggregate values)` pairs, in first-seen
    /// group order.  Ungrouped queries have exactly one entry with an empty
    /// key.
    pub groups: Vec<(Vec<Value>, Vec<f64>)>,
}

impl QueryResultSamples {
    /// The per-repetition samples of an ungrouped query.
    pub fn single(&self) -> Result<&[f64]> {
        if self.groups.len() == 1 {
            Ok(&self.groups[0].1)
        } else {
            Err(Error::InvalidOperation(format!(
                "expected a single group, found {}",
                self.groups.len()
            )))
        }
    }

    /// The samples for a specific group key.
    pub fn group(&self, key: &[Value]) -> Option<&[f64]> {
        self.groups
            .iter()
            .find(|(k, _)| k.len() == key.len() && k.iter().zip(key).all(|(a, b)| a.sql_eq(b)))
            .map(|(_, v)| v.as_slice())
    }
}

/// Evaluate `agg` over `set`, once per repetition.
///
/// `final_predicate` is an optional extra selection applied per repetition
/// before a tuple contributes to the aggregate — this mirrors the selection
/// predicate that MCDB-R pulls up into the GibbsLooper (paper Appendix A,
/// input 3), and lets the naive-MCDB baseline execute exactly the same query
/// specification.
///
/// One pass on the calling thread: every bundle, in set order, folds over
/// all `0..num_reps` repetitions (`Aggregation::fold`, the step
/// [`crate::shard::fold_block`] runs over a block's cells).  A set keeps
/// only bundles present somewhere, so every group its keys name is in the
/// result, in first-seen order.
pub fn evaluate_aggregate(
    set: &BundleSet,
    agg: &AggregateSpec,
    group_by: &[String],
    final_predicate: Option<&Expr>,
) -> Result<QueryResultSamples> {
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|g| set.schema.index_of(g))
        .collect::<Result<_>>()?;
    // Group keys must be deterministic.
    for bundle in &set.bundles {
        if let Some(&gi) = key_idx.iter().find(|&&gi| !bundle.values[gi].is_const()) {
            return Err(GroupLayout::random_key_error(&set.schema.field(gi).name));
        }
    }
    let key_of = |b: usize| -> Vec<Value> {
        let values = &set.bundles[b].values;
        key_idx.iter().map(|&gi| values[gi].value_at(0)).collect()
    };
    let layout = GroupLayout::discover(set.bundles.len(), !group_by.is_empty(), key_of);
    let n = set.num_reps;
    let mut aggregation = Aggregation::new(&set.schema, layout, agg, final_predicate, n);
    for (b, bundle) in set.bundles.iter().enumerate() {
        aggregation.present(b)?;
        // Repetitions past a presence vector's end count as absent.
        let mut sel = match bundle.is_pres {
            None => Mask::ones(n),
            Some(_) => {
                let mut sel = Mask::default();
                sel.fill_with(n, |r| bundle.is_present(r));
                sel
            }
        };
        aggregation.fold(b, &mut sel, |column| {
            lane_of(&bundle.values[column], &set.schema.field(column).name, n)
        })?;
    }
    Ok(aggregation.finish(group_by, key_of))
}

/// One aggregation in progress over every repetition of a window: the
/// group layout, the program of the final predicate and the aggregand
/// (compiled once), the lanes bundles fold into, and each group's first
/// present bundle.
pub(crate) struct Aggregation {
    layout: GroupLayout,
    program: Program,
    first: Vec<Option<usize>>,
    lanes: Lanes,
}

impl Aggregation {
    /// An empty aggregation of `reps` repetitions.
    pub(crate) fn new(
        schema: &Schema,
        layout: GroupLayout,
        agg: &AggregateSpec,
        final_predicate: Option<&Expr>,
        reps: usize,
    ) -> Aggregation {
        let lanes = layout.groups * reps;
        Aggregation {
            program: Program::compile(schema, final_predicate, Some(&agg.expr)),
            first: vec![None; layout.groups],
            lanes: Lanes {
                func: agg.func,
                len: reps,
                count: vec![0; lanes],
                acc: vec![0.0; lanes],
            },
            layout,
        }
    }

    /// Record that bundle `b` is present in some repetition, so the result
    /// has its group — an error when groups are keyed by a random
    /// attribute, as over the materialized block.
    pub(crate) fn present(&mut self, b: usize) -> Result<()> {
        if let Some(column) = &self.layout.random_key {
            return Err(GroupLayout::random_key_error(column));
        }
        self.first[self.layout.group_of[b]].get_or_insert(b);
        Ok(())
    }

    /// The one per-bundle step of every aggregation: run the program on
    /// bundle `b`'s contributing repetitions `sel` (presence; the final
    /// predicate narrows it), reading schema column `c` as `input(c)`, and
    /// fold the aggregand into `b`'s group.  Per `(repetition, group)` the
    /// lanes receive exactly the `f64`s `Expr::eval` gives, bundle after
    /// bundle, and fold them as `Accum::add` does, so the result is
    /// bit-identical to the per-repetition referee the tests keep.  Errors
    /// if and only if a selected repetition errors.
    pub(crate) fn fold<'a>(
        &mut self,
        b: usize,
        sel: &mut Mask,
        mut input: impl FnMut(usize) -> Result<Lane<'a>>,
    ) -> Result<()> {
        if sel.none() {
            // No selected row can err, and nothing contributes.
            return Ok(());
        }
        let slots = self.program.slots();
        let lane = self.program.eval_block(sel, |slot| input(slots[slot]))?;
        let vals = lane.f64s(sel)?;
        self.lanes.fold(self.layout.group_of[b], &vals, sel);
        Ok(())
    }

    /// The result: the one group of an ungrouped query, whatever is
    /// present, or else the groups some bundle is present in, ordered by
    /// their first present bundle and keyed by its `key_of`.
    pub(crate) fn finish(
        self,
        group_by: &[String],
        key_of: impl Fn(usize) -> Vec<Value>,
    ) -> QueryResultSamples {
        let len = self.lanes.len;
        let vals = self.lanes.finish();
        let lane = |g: usize| vals[g * len..(g + 1) * len].to_vec();
        let groups = if self.layout.grouped {
            let mut firsts: Vec<(usize, usize)> = (self.first.iter().enumerate())
                .filter_map(|(g, first)| Some(((*first)?, g)))
                .collect();
            firsts.sort_unstable();
            (firsts.into_iter())
                .map(|(b, g)| (key_of(b), lane(g)))
                .collect()
        } else {
            vec![(Vec::new(), lane(0))]
        };
        QueryResultSamples {
            group_columns: group_by.to_vec(),
            groups,
        }
    }
}

/// The candidate groups of a call's bundles: every distinct key over *all*
/// of them, in first-seen order, and each bundle's group.  Which groups the
/// result holds — and in which order — depends on which bundles turn out
/// present; see `Aggregation::finish`.
pub(crate) struct GroupLayout {
    /// Whether the query has a `GROUP BY`; without one it has exactly one
    /// group, with an empty key.
    grouped: bool,
    /// Each bundle's group.
    group_of: Vec<usize>,
    /// How many groups there are.
    groups: usize,
    /// The random attribute the groups are keyed by, if they are: an error
    /// as soon as some bundle is present.
    random_key: Option<String>,
}

impl GroupLayout {
    /// Discover the groups of `bundles` bundles, bundle `b` keyed by
    /// `key_of(b)`.  Keys compare by `Value::sql_eq`, an equivalence on the
    /// values it does not set apart (NULLs and NaNs equal nothing), so any
    /// subset of the bundles discovers the same groups in the same relative
    /// order.
    pub(crate) fn discover(
        bundles: usize,
        grouped: bool,
        key_of: impl Fn(usize) -> Vec<Value>,
    ) -> GroupLayout {
        if !grouped {
            return GroupLayout {
                grouped,
                group_of: vec![0; bundles],
                groups: 1,
                random_key: None,
            };
        }
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut group_of = Vec::with_capacity(bundles);
        for b in 0..bundles {
            let key = key_of(b);
            let same = |k: &Vec<Value>| k.iter().zip(&key).all(|(a, b)| a.sql_eq(b));
            let g = keys.iter().position(same).unwrap_or_else(|| {
                keys.push(key);
                keys.len() - 1
            });
            group_of.push(g);
        }
        GroupLayout {
            grouped,
            group_of,
            groups: keys.len(),
            random_key: None,
        }
    }

    /// Groups keyed by the random attribute `column` over `bundles` bundles:
    /// no key to discover, and an error once a bundle is present.
    pub(crate) fn random_key(bundles: usize, column: &str) -> GroupLayout {
        GroupLayout {
            grouped: true,
            group_of: vec![0; bundles],
            groups: 0,
            random_key: Some(column.to_string()),
        }
    }

    fn random_key_error(column: &str) -> Error {
        Error::InvalidOperation(format!(
            "group-by column {column} is a random attribute; grouping keys must be \
             deterministic (paper App. A, fn. 4)"
        ))
    }
}

/// A bundle attribute's first `n` repetitions as a program input: a
/// constant, or its column read in place — an error naming the attribute
/// `name` when the column holds fewer than `n` values.
fn lane_of<'a>(value: &'a BundleValue, name: &str, n: usize) -> Result<Lane<'a>> {
    let Some(col) = value.column() else {
        return Ok(Lane::constant(value.value_at(0)));
    };
    if col.len() < n {
        return Err(Error::Invalid(format!(
            "column {name} holds {} values for {n} repetitions",
            col.len()
        )));
    }
    Ok(Lane::column_range(col, 0..n))
}

/// The accumulators as flat, group-major lanes: the `(repetition, group)`
/// accumulator is lane `group * len + repetition`, split into a count and
/// one `f64` that folds the sum, minimum or maximum.
struct Lanes {
    func: AggFunc,
    len: usize,
    count: Vec<u64>,
    acc: Vec<f64>,
}

impl Lanes {
    /// Fold one bundle's aggregand `vals` on the rows of `sel` into group
    /// `g`: bundles in the outer loop, the repetitions in the inner one.
    fn fold(&mut self, g: usize, vals: &Vals<'_, f64>, sel: &Mask) {
        let base = g * self.len;
        match (vals, sel.all()) {
            // A sum needs no count, and over a dense range vectorizes.
            (Vals::Rows(v), true) if self.func == AggFunc::Sum => {
                for (a, &x) in self.acc[base..base + self.len].iter_mut().zip(v.iter()) {
                    *a += x;
                }
            }
            (_, true) => (0..self.len).for_each(|i| self.add(base + i, vals.at(i))),
            (_, false) => {
                for (w, &word) in sel.words().iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let i = w * 64 + bits.trailing_zeros() as usize;
                        self.add(base + i, vals.at(i));
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// [`Accum::add`] on lane `i`.
    fn add(&mut self, i: usize, x: f64) {
        let acc = &mut self.acc[i];
        *acc = match self.func {
            AggFunc::Min if self.count[i] > 0 => acc.min(x),
            AggFunc::Max if self.count[i] > 0 => acc.max(x),
            AggFunc::Min | AggFunc::Max => x,
            _ => *acc + x,
        };
        self.count[i] += 1;
    }

    /// [`Accum::finish`] on every lane.
    fn finish(self) -> Vec<f64> {
        self.count
            .iter()
            .zip(&self.acc)
            .map(|(&count, &a)| {
                let acc = Accum {
                    count,
                    sum: a,
                    min: a,
                    max: a,
                };
                acc.finish(self.func)
            })
            .collect()
    }
}

/// One `(repetition, group)` accumulator, finished the same way by every
/// aggregate function.
#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Accum {
    fn finish(self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
            AggFunc::Avg => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / self.count as f64
                }
            }
            AggFunc::Min => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.min
                }
            }
            AggFunc::Max => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.max
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{BundleValue, TupleBundle};
    use mcdbr_storage::{Column, Field, Schema};
    use std::borrow::Cow;

    /// The referee: one repetition's aggregates over every group, by
    /// `Expr::eval` on each present bundle's row, in set order.
    fn accumulate_rep(
        set: &BundleSet,
        layout: &GroupLayout,
        agg: &AggregateSpec,
        final_predicate: Option<&Expr>,
        rep: usize,
    ) -> Result<Vec<Accum>> {
        let schema = &set.schema;
        let mut accs = vec![Accum::default(); layout.groups];
        for (bundle, &gidx) in set.bundles.iter().zip(&layout.group_of) {
            if !bundle.is_present(rep) {
                continue;
            }
            let row = bundle.row_at(rep);
            if let Some(pred) = final_predicate {
                if !pred.eval_bool(schema, &row)? {
                    continue;
                }
            }
            accs[gidx].add(agg.expr.eval_f64(schema, &row)?);
        }
        Ok(accs)
    }

    impl Accum {
        fn add(&mut self, x: f64) {
            if self.count == 0 {
                self.min = x;
                self.max = x;
            } else {
                self.min = self.min.min(x);
                self.max = self.max.max(x);
            }
            self.count += 1;
            self.sum += x;
        }
    }

    /// Build a small bundle set by hand: three "customers" with known
    /// per-repetition losses and a deterministic region.
    fn test_set() -> BundleSet {
        let schema = Schema::new(vec![Field::utf8("region"), Field::float64("loss")]);
        let mk = |region: &str, seed: u64, vals: Vec<f64>| TupleBundle {
            values: vec![
                BundleValue::Const(Value::str(region)),
                BundleValue::Random {
                    seed,
                    vg_row: 0,
                    vg_col: 0,
                    base_pos: 0,
                    values: crate::bundle::SharedColumn::from_f64s(vals),
                },
            ],
            is_pres: None,
        };
        BundleSet {
            schema,
            bundles: vec![
                mk("EU", 1, vec![1.0, 2.0, 3.0]),
                mk("EU", 2, vec![10.0, 20.0, 30.0]),
                mk("US", 3, vec![100.0, 200.0, 300.0]),
            ],
            num_reps: 3,
        }
    }

    #[test]
    fn ungrouped_sum_per_repetition() {
        let set = test_set();
        let agg = AggregateSpec::sum(Expr::col("loss"), "totalLoss");
        let res = evaluate_aggregate(&set, &agg, &[], None).unwrap();
        assert_eq!(res.single().unwrap(), &[111.0, 222.0, 333.0]);
    }

    #[test]
    fn grouped_aggregates() {
        let set = test_set();
        let agg = AggregateSpec::sum(Expr::col("loss"), "totalLoss");
        let res = evaluate_aggregate(&set, &agg, &["region".to_string()], None).unwrap();
        assert_eq!(res.groups.len(), 2);
        assert_eq!(res.group(&[Value::str("EU")]).unwrap(), &[11.0, 22.0, 33.0]);
        assert_eq!(
            res.group(&[Value::str("US")]).unwrap(),
            &[100.0, 200.0, 300.0]
        );
        assert!(res.group(&[Value::str("APAC")]).is_none());
        assert!(res.single().is_err());
    }

    #[test]
    fn count_avg_min_max() {
        let set = test_set();
        let count = evaluate_aggregate(&set, &AggregateSpec::count("n"), &[], None).unwrap();
        assert_eq!(count.single().unwrap(), &[3.0, 3.0, 3.0]);
        let avg = evaluate_aggregate(&set, &AggregateSpec::avg(Expr::col("loss"), "a"), &[], None)
            .unwrap();
        assert_eq!(avg.single().unwrap(), &[37.0, 74.0, 111.0]);
        let min = evaluate_aggregate(&set, &AggregateSpec::min(Expr::col("loss"), "m"), &[], None)
            .unwrap();
        assert_eq!(min.single().unwrap(), &[1.0, 2.0, 3.0]);
        let max = evaluate_aggregate(&set, &AggregateSpec::max(Expr::col("loss"), "M"), &[], None)
            .unwrap();
        assert_eq!(max.single().unwrap(), &[100.0, 200.0, 300.0]);
    }

    #[test]
    fn final_predicate_restricts_contributions() {
        let set = test_set();
        let agg = AggregateSpec::sum(Expr::col("loss"), "totalLoss");
        let pred = Expr::col("loss").gt_eq(Expr::lit(10.0));
        let res = evaluate_aggregate(&set, &agg, &[], Some(&pred)).unwrap();
        assert_eq!(res.single().unwrap(), &[110.0, 220.0, 330.0]);
    }

    #[test]
    fn presence_masks_exclude_tuples() {
        let mut set = test_set();
        set.bundles[2].restrict_presence(&[true, false, true]);
        let agg = AggregateSpec::sum(Expr::col("loss"), "totalLoss");
        let res = evaluate_aggregate(&set, &agg, &[], None).unwrap();
        assert_eq!(res.single().unwrap(), &[111.0, 22.0, 333.0]);
    }

    #[test]
    fn empty_instances_follow_sql_conventions() {
        let mut set = test_set();
        for b in &mut set.bundles {
            b.restrict_presence(&[false, true, true]);
        }
        let sum = evaluate_aggregate(&set, &AggregateSpec::sum(Expr::col("loss"), "s"), &[], None)
            .unwrap();
        assert_eq!(sum.single().unwrap()[0], 0.0);
        let avg = evaluate_aggregate(&set, &AggregateSpec::avg(Expr::col("loss"), "a"), &[], None)
            .unwrap();
        assert!(avg.single().unwrap()[0].is_nan());
        let count = evaluate_aggregate(&set, &AggregateSpec::count("n"), &[], None).unwrap();
        assert_eq!(count.single().unwrap()[0], 0.0);

        // Bundles over zero repetitions: every group is present, each with
        // an empty lane, grouped or not and under a final predicate.
        let mut none = test_set();
        none.num_reps = 0;
        for b in &mut none.bundles {
            if let BundleValue::Random { values, .. } = &mut b.values[1] {
                *values = crate::bundle::SharedColumn::default();
            }
        }
        let pred = Expr::col("loss").gt_eq(Expr::lit(10.0));
        let region = ["region".to_string()];
        let (eu, us) = (vec![Value::str("EU")], vec![Value::str("US")]);
        for (group_by, final_predicate, keys) in [
            (&region[..], None, vec![eu, us]),
            (&[][..], Some(&pred), vec![vec![]]),
        ] {
            for agg in [
                AggregateSpec::sum(Expr::col("loss"), "s"),
                AggregateSpec::avg(Expr::col("loss"), "a"),
                AggregateSpec::min(Expr::col("loss"), "m"),
            ] {
                let res = evaluate_aggregate(&none, &agg, group_by, final_predicate).unwrap();
                let got: Vec<_> = res.groups.iter().map(|(k, _)| k.clone()).collect();
                assert_eq!(got, keys, "{agg:?}");
                assert!(res.groups.iter().all(|(_, lane)| lane.is_empty()));
            }
        }
    }

    #[test]
    fn grouping_on_random_attribute_is_rejected() {
        let set = test_set();
        let agg = AggregateSpec::sum(Expr::col("loss"), "s");
        assert!(evaluate_aggregate(&set, &agg, &["loss".to_string()], None).is_err());
        assert!(evaluate_aggregate(&set, &agg, &["missing".to_string()], None).is_err());
    }

    #[test]
    fn random_columns_shorter_than_the_repetitions_are_a_typed_error() {
        // `BundleSet`'s fields are public: a set can claim more repetitions
        // than its columns hold.  The fold refuses it by name.
        let mut set = test_set();
        set.num_reps = 4;
        let agg = AggregateSpec::sum(Expr::col("loss"), "s");
        let err = evaluate_aggregate(&set, &agg, &[], None).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert!(err.to_string().contains("column loss"), "{err}");
    }

    #[test]
    fn expression_aggregands() {
        // SUM(2*loss + 1) — exercised because the salary-inversion query
        // aggregates an expression over two attributes.
        let set = test_set();
        let agg = AggregateSpec::sum(
            Expr::col("loss").mul(Expr::lit(2.0)).add(Expr::lit(1.0)),
            "s",
        );
        let res = evaluate_aggregate(&set, &agg, &[], None).unwrap();
        assert_eq!(res.single().unwrap(), &[225.0, 447.0, 669.0]);
    }

    #[test]
    fn empty_bundle_set_gives_single_empty_group() {
        let set = BundleSet {
            schema: Schema::new(vec![Field::float64("x")]),
            bundles: vec![],
            num_reps: 4,
        };
        let res =
            evaluate_aggregate(&set, &AggregateSpec::sum(Expr::col("x"), "s"), &[], None).unwrap();
        assert_eq!(res.single().unwrap(), &[0.0, 0.0, 0.0, 0.0]);
    }

    /// Nine bundles over `(region, x: Float64, k: Int64)` with seeded values;
    /// `x` mixes in ±0.0, NaN and ±inf.  With `presence`, two of every three
    /// bundles drop seeded repetitions, and every other one of those has a
    /// presence vector one repetition short (out of range counts as absent).
    fn seeded_set(reps: usize, presence: bool) -> BundleSet {
        let schema = Schema::new(vec![
            Field::utf8("region"),
            Field::float64("x"),
            Field::int64("k"),
        ]);
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let bundles = (0..9usize)
            .map(|b| {
                let x: Vec<f64> = (0..reps)
                    .map(|_| match next() {
                        r if r % 13 == 0 => specials[(r >> 8) as usize % specials.len()],
                        r => (r >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0,
                    })
                    .collect();
                let mut k = Column::default();
                for _ in 0..reps {
                    k.push_i64((next() % 7) as i64 - 3);
                }
                let is_pres = (presence && b % 3 != 0)
                    .then(|| (0..reps - b % 2).map(|_| next() % 4 != 0).collect());
                TupleBundle {
                    values: vec![
                        BundleValue::Const(Value::str(["EU", "US", "APAC"][b % 3])),
                        BundleValue::Random {
                            seed: b as u64,
                            vg_row: 0,
                            vg_col: 0,
                            base_pos: 0,
                            values: crate::bundle::SharedColumn::from_f64s(x),
                        },
                        BundleValue::Computed(crate::bundle::SharedColumn::from_column(k)),
                    ],
                    is_pres,
                }
            })
            .collect();
        BundleSet {
            schema,
            bundles,
            num_reps: reps,
        }
    }

    /// Aggregate `set`, asserting every `(repetition, group)` value
    /// bit-equal to the scalar referee's; returns how many values it
    /// compared.
    fn compare_with_referee(
        set: &BundleSet,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
    ) -> usize {
        let case = format!("{agg:?} by {group_by:?} where {final_predicate:?}");
        let res = evaluate_aggregate(set, agg, group_by, final_predicate).unwrap();
        let key_idx: Vec<usize> = (group_by.iter())
            .map(|g| set.schema.index_of(g).unwrap())
            .collect();
        let key_of = |b: usize| -> Vec<Value> {
            let values = &set.bundles[b].values;
            key_idx.iter().map(|&gi| values[gi].value_at(0)).collect()
        };
        let layout = GroupLayout::discover(set.bundles.len(), !group_by.is_empty(), key_of);
        // Every bundle of a set is present somewhere: every group, in
        // first-seen order.
        assert_eq!(res.groups.len(), layout.groups, "{case}");
        let mut compared = 0;
        for rep in 0..set.num_reps {
            let referee = accumulate_rep(set, &layout, agg, final_predicate, rep).unwrap();
            for (g, (acc, (_, lane))) in referee.iter().zip(&res.groups).enumerate() {
                let want = acc.finish(agg.func);
                assert_eq!(
                    lane[rep].to_bits(),
                    want.to_bits(),
                    "{case}: rep {rep} group {g}"
                );
                compared += 1;
            }
        }
        compared
    }

    #[test]
    fn streaming_plan_is_bit_identical_to_the_scalar_referee() {
        let reps = 70;
        let (x, k) = (Expr::col("x"), Expr::col("k"));
        let aggregands = [
            x.clone(),
            k.clone(),
            x.clone().lt(k.clone()),
            x.clone().mul(Expr::lit(2.0)).add(k.clone()),
            Expr::lit(1.5),
        ];
        let funcs = [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ];
        let pred = x.clone().gt(Expr::lit(-1.0));
        let region = ["region".to_string()];
        let mut compared = 0;
        for presence in [false, true] {
            let set = seeded_set(reps, presence);
            for (expr, func) in aggregands.iter().flat_map(|e| funcs.map(|f| (e, f))) {
                let agg = AggregateSpec {
                    func,
                    expr: expr.clone(),
                    alias: "a".into(),
                };
                for group_by in [&[][..], &region[..]] {
                    for final_predicate in [None, Some(&pred)] {
                        compared += compare_with_referee(&set, &agg, group_by, final_predicate);
                    }
                }
            }
        }
        // 2 presences × 5 aggregands × 5 functions × 2 predicates × 70
        // repetitions × (1 + 3) groups.
        assert_eq!(compared, 2 * 5 * 5 * 2 * reps * 4);
    }

    #[test]
    fn dense_sum_reads_the_shared_segment_without_a_selection_vector() {
        let set = seeded_set(70, false);
        for bundle in &set.bundles {
            // A bare Float64 column is the bundle's shared segment, read in
            // place, and every repetition is selected.
            let seg = bundle.values[1].column().unwrap();
            let lane = lane_of(&bundle.values[1], "loss", 70).unwrap();
            let sel = Mask::ones(70);
            let in_place = |v: &[f64]| std::ptr::eq(v, &seg.f64_slice().unwrap()[..70]);
            assert!(
                matches!(lane.f64s(&sel).unwrap(), Vals::Rows(Cow::Borrowed(v)) if in_place(v))
            );
            assert!(sel.all());
        }
    }
}
