//! Stream recipes: from a stream to "how to generate this stream".
//!
//! Paper §4.1: every uncertain value (or correlated block of values) in the
//! database is backed by a stream of random data, identified by the PRNG seed
//! that produces it.  A [`StreamSource`] records the VG function and the
//! parameter row that turn raw stream positions into data values, so anything
//! holding one can (re)generate the value at *any* stream position on demand
//! — which is exactly what
//!
//! * naive MCDB needs to instantiate repetitions `0..n`,
//! * the Gibbs rejection sampler needs to "go to the stream whenever it needs
//!   a loss value" (§4.1), and
//! * the replenishment pass needs to regenerate already-assigned values and
//!   extend blocks without re-deriving parameters (§9).
//!
//! The plan skeleton keeps one source per stream it registers; the reference
//! [`crate::Executor`] keeps its own seed-addressed `StreamRegistry`.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcdbr_prng::{RandomStream, SeedId};
use mcdbr_storage::{Error, Result, Tuple, Value};
use mcdbr_vg::VgFunction;

use crate::session::check_block_cells;

/// How to generate one stream: a VG function plus its bound parameter row.
///
/// Both fields are reference-counted so that cloning a source — which
/// happens once per stream when a plan skeleton is built — shares rather
/// than copies the parameter row.
#[derive(Debug, Clone)]
pub struct StreamSource {
    /// The VG function invoked at every stream position.
    pub vg: Arc<dyn VgFunction>,
    /// The parameter row bound from the parameter table (paper §2).
    pub params: Arc<[Value]>,
}

impl StreamSource {
    /// Generate the full VG output table at stream position `pos`.
    pub fn generate_at(&self, seed: SeedId, pos: u64) -> Result<Vec<Tuple>> {
        let mut gen = RandomStream::new(seed).generator_at(pos);
        self.vg.generate(&self.params, &mut gen)
    }

    /// Generate the scalar value `(vg_row, vg_col)` of the VG output for
    /// `seed` at stream position `pos`.
    pub fn value_at(&self, seed: SeedId, pos: u64, vg_row: usize, vg_col: usize) -> Result<Value> {
        let rows = self.generate_at(seed, pos)?;
        let row = rows.get(vg_row).ok_or_else(|| {
            Error::Invalid(format!(
                "stream {seed}: VG output has {} rows, wanted row {vg_row}",
                rows.len()
            ))
        })?;
        if vg_col >= row.arity() {
            return Err(Error::Invalid(format!(
                "stream {seed}: VG output has {} columns, wanted column {vg_col}",
                row.arity()
            )));
        }
        Ok(row.value(vg_col).clone())
    }
}

/// The reference executor's registry of every stream one plan execution
/// referenced, by concrete seed, and of the cells a position of its block
/// holds.
#[derive(Debug, Default)]
pub(crate) struct StreamRegistry {
    sources: BTreeMap<SeedId, StreamSource>,
    cells_per_position: u64,
}

impl StreamRegistry {
    /// Create an empty registry.
    pub(crate) fn new() -> Self {
        StreamRegistry::default()
    }

    /// Register a stream.  Registering the same seed twice (a self-join of
    /// one uncertain table) keeps one entry; the executor derives seeds with
    /// [`mcdbr_prng::seed_for`], so both registrations carry one recipe.
    pub(crate) fn register(
        &mut self,
        seed: SeedId,
        vg: Arc<dyn VgFunction>,
        params: impl Into<Arc<[Value]>>,
    ) {
        self.sources.insert(
            seed,
            StreamSource {
                vg,
                params: params.into(),
            },
        );
    }

    /// Look up a stream source.
    pub(crate) fn source(&self, seed: SeedId) -> Result<&StreamSource> {
        self.sources
            .get(&seed)
            .ok_or_else(|| Error::Invalid(format!("unknown stream seed {seed}")))
    }

    /// Count `cells` more cells a position toward the execution's block
    /// of `positions` positions, refusing it past [`crate::MAX_BLOCK_CELLS`].
    pub(crate) fn reserve_cells(&mut self, cells: usize, positions: usize) -> Result<()> {
        self.cells_per_position = self.cells_per_position.saturating_add(cells as u64);
        check_block_cells(self.cells_per_position, positions)
    }

    /// Number of registered streams.
    pub(crate) fn len(&self) -> usize {
        self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_vg::{MultiNormalVg, NormalVg};

    fn normal_params(mean: f64) -> Vec<Value> {
        vec![Value::Float64(mean), Value::Float64(1.0)]
    }

    #[test]
    fn register_and_generate() {
        let mut reg = StreamRegistry::new();
        reg.register(7, Arc::new(NormalVg), normal_params(3.0));
        reg.register(7, Arc::new(NormalVg), normal_params(3.0));
        assert_eq!(reg.len(), 1, "a seed registered twice is one stream");
        let v = reg.source(7).unwrap().value_at(7, 0, 0, 0).unwrap();
        assert!(v.as_f64().unwrap().is_finite());
        assert!(reg.source(8).is_err());
    }

    #[test]
    fn generation_is_deterministic_and_position_addressable() {
        let mut reg = StreamRegistry::new();
        reg.register(42, Arc::new(NormalVg), normal_params(5.0));
        let source = reg.source(42).unwrap();
        let a = source.value_at(42, 3, 0, 0).unwrap();
        let b = source.value_at(42, 3, 0, 0).unwrap();
        let c = source.value_at(42, 4, 0, 0).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn out_of_range_rows_and_cols_error() {
        let mut reg = StreamRegistry::new();
        reg.register(1, Arc::new(NormalVg), normal_params(0.0));
        let source = reg.source(1).unwrap();
        assert!(source.value_at(1, 0, 1, 0).is_err());
        assert!(source.value_at(1, 0, 0, 5).is_err());
    }

    #[test]
    fn multi_row_vg_outputs_are_addressable() {
        let source = StreamSource {
            vg: Arc::new(MultiNormalVg::new(3, 0.5)),
            params: vec![Value::Float64(0.0), Value::Float64(1.0)].into(),
        };
        let rows = source.generate_at(9, 0).unwrap();
        assert_eq!(rows.len(), 3);
        // Row index is in column 0; the value in column 1.
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.value(0), &Value::Int64(i as i64));
            assert_eq!(source.value_at(9, 0, i, 1).unwrap(), row.value(1).clone());
        }
    }
}
