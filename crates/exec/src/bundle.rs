//! Tuple bundles: rows whose attributes are constant or random-with-lineage.
//!
//! An MCDB tuple bundle (paper §1) "encapsulates the instantiations of a
//! tuple over a set of generated DB instances and carries along the
//! pseudorandom number seeds used by the VG functions to instantiate the
//! uncertain data values".  A Gibbs tuple (paper §5) additionally needs
//! lineage — which stream each random value came from — and carries a block
//! of materialized stream values rather than exactly one value per Monte
//! Carlo repetition.
//!
//! [`TupleBundle`] covers both: each attribute is a [`BundleValue`], either
//! * [`BundleValue::Const`] — the same value in every DB instance,
//! * [`BundleValue::Random`] — full lineage (seed, VG output row/column,
//!   block base position) plus the materialized block of values, or
//! * [`BundleValue::Computed`] — per-repetition values with no lineage, the
//!   result of projecting an expression over random attributes (allowed in
//!   the MCDB baseline path, rejected by the Gibbs Looper which must keep
//!   lineage intact).
//!
//! Presence (`isPres`, paper §5) is a per-repetition boolean vector: `None`
//! means "present in every instance".
//!
//! Since the end-to-end columnar migration, the materialized values behind
//! `Random` and `Computed` attributes are one [`SharedColumn`] — a shared,
//! refcounted [`Column`] — instead of a boxed `Vec<Value>`.  The bundle-set
//! boundary is no longer a transpose-and-box: phase 2 hands each bundle an
//! `Arc` to the very column the VG kernel filled, joins fan the same `Arc`
//! out to every matching bundle, and the aggregation / looper / dispatch
//! layers read contiguous typed slices.

use std::ops::Deref;
use std::sync::Arc;

use mcdbr_prng::SeedId;
use mcdbr_storage::{Column, Schema, Value};

/// The materialized values of one random or computed attribute: one
/// shared, immutable column, read through [`Deref`] to [`Column`].
///
/// A bundle holds an `Arc` of the column its VG kernel produced (or its
/// projection computed).  Sharing is the point: a join that fans one stream
/// block out to `m` bundles clones `m` refcounts, not `m` value vectors.
///
/// Lifetime rule: the column is immutable from the moment it enters a
/// bundle.  Generated cell columns are therefore moved out of the pooled
/// buffer into their own `Arc` and the buffer is released immediately — a
/// bundle never points into the block pool, and the pool keeps no handle
/// on the column, which is freed with its last bundle.
#[derive(Debug, Clone, Default)]
pub struct SharedColumn(Arc<Column>);

impl SharedColumn {
    /// Share `col` (a refcount bump, no heap allocation).
    pub fn from_arc(col: Arc<Column>) -> Self {
        SharedColumn(col)
    }

    /// Own `col`.
    pub fn from_column(col: Column) -> Self {
        Self::from_arc(Arc::new(col))
    }

    /// A `Float64` column of `values` (test/bench convenience).
    pub fn from_f64s(values: impl IntoIterator<Item = f64>) -> Self {
        let mut col = Column::default();
        for v in values {
            col.push_f64(v);
        }
        Self::from_column(col)
    }
}

impl Deref for SharedColumn {
    type Target = Column;

    fn deref(&self) -> &Column {
        &self.0
    }
}

impl FromIterator<Value> for SharedColumn {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut col = Column::default();
        for v in iter {
            col.push_value(&v);
        }
        Self::from_column(col)
    }
}

/// Value-wise equality; null-free float columns compare slice-at-a-time.
impl PartialEq for SharedColumn {
    fn eq(&self, other: &Self) -> bool {
        if let (Some(a), Some(b)) = (self.f64_slice(), other.f64_slice()) {
            return a == b;
        }
        self.len() == other.len() && (0..self.len()).all(|i| self.value_at(i) == other.value_at(i))
    }
}

/// One attribute of a tuple bundle.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleValue {
    /// The attribute has the same value in every DB instance.
    Const(Value),
    /// A random attribute with lineage to its stream.
    Random {
        /// The stream (TS-seed) this attribute's values come from.
        seed: SeedId,
        /// Which row of the VG function's output table this attribute reads.
        vg_row: usize,
        /// Which column of the VG function's output table this attribute reads.
        vg_col: usize,
        /// Stream position of the column's first value.
        base_pos: u64,
        /// Materialized values for positions
        /// `base_pos .. base_pos + values.len()`.
        values: SharedColumn,
    },
    /// Per-repetition values without lineage (derived by a projection).
    Computed(SharedColumn),
}

impl BundleValue {
    /// Whether this attribute is constant across DB instances.
    pub fn is_const(&self) -> bool {
        matches!(self, BundleValue::Const(_))
    }

    /// The seed backing this attribute, if it is a lineaged random attribute.
    pub fn seed(&self) -> Option<SeedId> {
        match self {
            BundleValue::Random { seed, .. } => Some(*seed),
            _ => None,
        }
    }

    /// The value of this attribute in Monte Carlo repetition `rep`
    /// (equivalently, at block offset `rep` for a Gibbs block), boxed — a
    /// scalar copy or a string refcount bump.
    ///
    /// Panics if `rep` is outside the materialized column — callers are
    /// expected to have instantiated enough positions (the executor always
    /// materializes exactly `num_reps` values in MCDB mode).
    pub fn value_at(&self, rep: usize) -> Value {
        match self {
            BundleValue::Const(v) => v.clone(),
            BundleValue::Random { values, .. } => values.value_at(rep),
            BundleValue::Computed(values) => values.value_at(rep),
        }
    }

    /// The column behind a random or computed attribute (`None` for
    /// constants).
    pub fn column(&self) -> Option<&SharedColumn> {
        match self {
            BundleValue::Const(_) => None,
            BundleValue::Random { values, .. } => Some(values),
            BundleValue::Computed(values) => Some(values),
        }
    }

    /// Number of materialized values (None for constants, which cover any
    /// number of repetitions).
    pub fn materialized_len(&self) -> Option<usize> {
        self.column().map(|values| values.len())
    }
}

/// A tuple bundle: one logical tuple across all generated DB instances.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TupleBundle {
    /// The attributes.
    pub values: Vec<BundleValue>,
    /// Per-repetition presence (`isPres`); `None` = present everywhere.
    pub is_pres: Option<Vec<bool>>,
}

impl TupleBundle {
    /// A bundle whose attributes are all constants (a deterministic tuple).
    pub fn constant(values: Vec<Value>) -> Self {
        TupleBundle {
            values: values.into_iter().map(BundleValue::Const).collect(),
            is_pres: None,
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Whether every attribute is constant.
    pub fn is_fully_const(&self) -> bool {
        self.values.iter().all(BundleValue::is_const)
    }

    /// Whether the bundle is present in repetition `rep`.
    pub fn is_present(&self, rep: usize) -> bool {
        match &self.is_pres {
            None => true,
            Some(flags) => flags.get(rep).copied().unwrap_or(false),
        }
    }

    /// Restrict presence by AND-ing in a per-repetition mask.
    pub fn restrict_presence(&mut self, mask: &[bool]) {
        match &mut self.is_pres {
            None => self.is_pres = Some(mask.to_vec()),
            Some(flags) => {
                for (f, m) in flags.iter_mut().zip(mask) {
                    *f = *f && *m;
                }
            }
        }
    }

    /// True if the bundle is absent from every one of the first `num_reps`
    /// repetitions, i.e. it can be dropped from an MCDB plan entirely.
    pub fn absent_everywhere(&self, num_reps: usize) -> bool {
        match &self.is_pres {
            None => false,
            Some(flags) => flags.iter().take(num_reps).all(|&p| !p),
        }
    }

    /// Materialize the row of this bundle for repetition `rep` (ignoring
    /// presence; callers check [`TupleBundle::is_present`] first).
    pub fn row_at(&self, rep: usize) -> Vec<Value> {
        self.values.iter().map(|v| v.value_at(rep)).collect()
    }

    /// Concatenate two bundles (used by join operators).  Presence vectors
    /// are AND-ed.
    pub fn concat(&self, other: &TupleBundle) -> TupleBundle {
        let mut values = self.values.clone();
        values.extend(other.values.iter().cloned());
        let is_pres = match (&self.is_pres, &other.is_pres) {
            (None, None) => None,
            (Some(a), None) => Some(a.clone()),
            (None, Some(b)) => Some(b.clone()),
            (Some(a), Some(b)) => Some(a.iter().zip(b.iter()).map(|(x, y)| *x && *y).collect()),
        };
        TupleBundle { values, is_pres }
    }
}

/// The result of executing a plan over bundles.
#[derive(Debug, Clone)]
pub struct BundleSet {
    /// Output schema (column names / types of the bundles).
    pub schema: Schema,
    /// The bundles.
    pub bundles: Vec<TupleBundle>,
    /// Number of Monte Carlo repetitions materialized per random attribute
    /// (MCDB mode), or the Gibbs block size (MCDB-R mode).
    pub num_reps: usize,
}

impl BundleSet {
    /// Count of bundles.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// True if there are no bundles.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_attr(seed: SeedId, values: Vec<f64>) -> BundleValue {
        BundleValue::Random {
            seed,
            vg_row: 0,
            vg_col: 0,
            base_pos: 0,
            values: SharedColumn::from_f64s(values),
        }
    }

    #[test]
    fn constant_bundles() {
        let b = TupleBundle::constant(vec![Value::Int64(1), Value::str("Sue")]);
        assert!(b.is_fully_const());
        assert_eq!(b.arity(), 2);
        assert!(b.values.iter().all(|v| v.seed().is_none()));
        assert!(b.is_present(0) && b.is_present(99));
        assert_eq!(b.row_at(5), vec![Value::Int64(1), Value::str("Sue")]);
    }

    #[test]
    fn random_attribute_lineage_and_values() {
        let b = TupleBundle {
            values: vec![
                BundleValue::Const(Value::str("Joe")),
                random_attr(17, vec![2.59, 3.26, 2.23, 4.56]),
            ],
            is_pres: None,
        };
        assert!(!b.is_fully_const());
        assert_eq!(b.row_at(1), vec![Value::str("Joe"), Value::Float64(3.26)]);
        assert_eq!(b.values[1].materialized_len(), Some(4));
        assert_eq!(b.values[0].materialized_len(), None);
        assert_eq!(b.values[1].seed(), Some(17));
        assert_eq!(b.values[0].seed(), None);
    }

    #[test]
    fn presence_restriction() {
        let mut b = TupleBundle::constant(vec![Value::Int64(1)]);
        b.restrict_presence(&[true, false, true, true]);
        assert!(b.is_present(0));
        assert!(!b.is_present(1));
        b.restrict_presence(&[true, true, false, true]);
        assert_eq!(b.is_pres, Some(vec![true, false, false, true]));
        assert!(!b.absent_everywhere(4));
        b.restrict_presence(&[false, false, false, false]);
        assert!(b.absent_everywhere(4));
        // Out-of-range repetitions are treated as absent once a mask exists.
        assert!(!b.is_present(10));
    }

    #[test]
    fn concat_ands_presence() {
        let mut a = TupleBundle::constant(vec![Value::Int64(1)]);
        a.restrict_presence(&[true, false]);
        let mut b = TupleBundle::constant(vec![Value::Int64(2)]);
        b.restrict_presence(&[true, true]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 2);
        assert_eq!(c.is_pres, Some(vec![true, false]));
        let d = TupleBundle::constant(vec![Value::Int64(3)]).concat(&TupleBundle::constant(vec![]));
        assert_eq!(d.is_pres, None);
    }

    #[test]
    fn bundle_set_seed_collection() {
        let set = BundleSet {
            schema: Schema::empty(),
            bundles: vec![
                TupleBundle {
                    values: vec![random_attr(5, vec![1.0])],
                    is_pres: None,
                },
                TupleBundle {
                    values: vec![random_attr(2, vec![1.0])],
                    is_pres: None,
                },
            ],
            num_reps: 1,
        };
        let seeds = set.bundles.iter().flat_map(|b| &b.values);
        assert_eq!(
            seeds.filter_map(BundleValue::seed).collect::<Vec<_>>(),
            [5, 2]
        );
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }
}
