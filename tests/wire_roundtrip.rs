//! Property-style tests over the dispatch wire format: every frame's
//! encode→decode round trip is the identity, truncated or corrupted bytes
//! come back as typed errors (never panics), and version negotiation
//! rejects mismatched peers at the handshake.
//!
//! One seeded mutation harness ([`mutate`]) drives real frames of every
//! tag, sealed pages and heap records through bit flips, truncation at
//! every offset, `u32` prefixes inflated past the input, and splices of
//! two encodings.  Each case must decode to a typed error or to a value
//! whose re-encoding decodes to the same value, and no decode may reserve
//! more memory than its input can justify (a counting allocator checks).
//!
//! Like `property_invariants.rs`, the build environment has no registry
//! access, so instead of `proptest` these use a seeded case generator over
//! the repository's own [`Pcg64`]: each property runs for pseudorandom
//! configurations whose case seed is carried in every failure message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mcdbr::dispatch::wire::{
    self, Frame, PlanKey, QueryStats, ReplyCode, ServerStats, TaskHeader, TaskStats, WireError,
    WIRE_MAGIC, WIRE_VERSION,
};
use mcdbr::dispatch::worker::run_worker;
use mcdbr::exec::plan::{scalar_random_table, OutputColumn, RandomTableSpec};
use mcdbr::exec::{
    AggFunc, AggregateSpec, BundleValue, CellCols, Expr, PlanNode, QueryResultSamples, TupleBundle,
};
use mcdbr::prng::{Pcg64, StreamKey, StreamKeyRange};
use mcdbr::storage::pager::DiskCounters;
use mcdbr::storage::{
    fnv1a, Catalog, Column, ColumnBlock, Error, Field, HeapFile, Page, Reader, Schema, Table,
    TableBuilder, Tuple, Value, FNV_OFFSET,
};
use mcdbr::vg::{
    BayesianDemandVg, DiscreteVg, GbmTerminalVg, MultiNormalVg, NormalVg, PoissonVg, UniformVg,
    VgFunction,
};

const CASES: u64 = 64;

/// Records the largest single allocation each thread makes, so the harness
/// can check that a decode reserves memory in proportion to its input and
/// never to a count the input merely claims.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only a const-initialized
// thread-local `Cell` (no destructor, no allocation) and cannot unwind.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Run `decode` over `input`, failing `ctx` when any single allocation it
/// makes exceeds what `input.len()` bytes can justify.  The widest
/// legitimate fan-out is an all-NULL column: 8 bitmap bytes vouch for 64
/// rows of 24-byte tuples.
fn bounded<T>(input: &[u8], ctx: &str, decode: impl FnOnce() -> T) -> T {
    PEAK.with(|p| p.set(0));
    let out = decode();
    let peak = PEAK.with(|p| p.get());
    assert!(
        peak <= 256 * input.len() + (64 << 10),
        "{ctx}: a {}-byte input reserved {peak} bytes at once",
        input.len()
    );
    out
}

/// Feed `visit` every mutation of `bytes`: 32 seeded single-bit flips,
/// truncation at every offset, every 4-byte window rewritten as a `u32`
/// claiming one byte more than remains and as `0xFFFF_FFFF`, and five
/// splices with `other` (four cut points plus plain concatenation).
fn mutate(bytes: &[u8], other: &[u8], g: &mut Gen, mut visit: impl FnMut(&str, &[u8])) {
    let mut m = bytes.to_vec();
    for _ in 0..32 {
        let (at, bit) = (g.usize_in(0, m.len()), g.usize_in(0, 8));
        m[at] ^= 1 << bit;
        visit("bit flip", &m);
        m[at] ^= 1 << bit;
    }
    for cut in 0..bytes.len() {
        visit("truncation", &bytes[..cut]);
    }
    for at in 0..bytes.len().saturating_sub(3) {
        let remaining = (bytes.len() - at - 4) as u32;
        for claim in [remaining + 1, u32::MAX] {
            m[at..at + 4].copy_from_slice(&claim.to_le_bytes());
            visit("inflated u32 prefix", &m);
        }
        m[at..at + 4].copy_from_slice(&bytes[at..at + 4]);
    }
    for _ in 0..4 {
        let (i, j) = (
            g.usize_in(0, bytes.len() + 1),
            g.usize_in(0, other.len() + 1),
        );
        visit("splice", &[&bytes[..i], &other[j..]].concat());
    }
    visit("splice", &[bytes, other].concat());
}

struct Gen {
    rng: Pcg64,
}

impl Gen {
    fn new(case: u64) -> Self {
        Gen {
            rng: Pcg64::new(0x77697265 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.rng.next_u64() % (hi - lo) as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.rng.next_u64().is_multiple_of(2)
    }

    /// A random value, optionally including the bit-exactness landmines
    /// (NaN with payload, negative zero, infinities).
    fn value(&mut self, specials: bool) -> Value {
        match self.usize_in(0, if specials { 6 } else { 5 }) {
            0 => Value::Null,
            1 => Value::Int64(self.u64() as i64),
            2 => Value::Float64(f64::from_bits(self.u64() & !(0x7ffu64 << 52))),
            3 => Value::Bool(self.bool()),
            4 => {
                let len = self.usize_in(0, 12);
                let s: String = (0..len)
                    .map(|_| char::from(b'a' + (self.u64() % 26) as u8))
                    .collect();
                Value::str(s)
            }
            _ => [
                Value::Float64(f64::from_bits(0x7ff8_dead_beef_0001)),
                Value::Float64(-0.0),
                Value::Float64(f64::INFINITY),
                Value::Float64(f64::NEG_INFINITY),
            ][self.usize_in(0, 4)]
            .clone(),
        }
    }

    fn expr(&mut self, depth: usize) -> Expr {
        if depth == 0 || self.usize_in(0, 3) == 0 {
            return if self.bool() {
                Expr::col(format!("c{}", self.usize_in(0, 5)))
            } else {
                Expr::Literal(self.value(false))
            };
        }
        match self.usize_in(0, 3) {
            0 => self.expr(depth - 1).add(self.expr(depth - 1)),
            1 => self.expr(depth - 1).lt(self.expr(depth - 1)),
            _ => Expr::Not(Box::new(self.expr(depth - 1))),
        }
    }

    fn vg(&mut self) -> Arc<dyn VgFunction> {
        match self.usize_in(0, 7) {
            0 => Arc::new(NormalVg),
            1 => Arc::new(UniformVg),
            2 => Arc::new(PoissonVg),
            3 => {
                let n = self.usize_in(1, 5);
                Arc::new(DiscreteVg::new((0..n).map(|_| self.value(false)).collect()))
            }
            4 => Arc::new(MultiNormalVg::new(
                self.usize_in(1, 4),
                (self.u64() % 1000) as f64 / 1000.0,
            )),
            5 => Arc::new(BayesianDemandVg),
            _ => Arc::new(GbmTerminalVg::new(self.usize_in(1, 64))),
        }
    }

    fn plan(&mut self, depth: usize) -> PlanNode {
        let leaf = if self.bool() {
            PlanNode::scan(format!("t{}", self.usize_in(0, 3)))
        } else {
            let num_params = self.usize_in(0, 3);
            let num_cols = self.usize_in(1, 4);
            PlanNode::RandomTable(RandomTableSpec {
                name: format!("U{}", self.usize_in(0, 9)),
                param_table: format!("t{}", self.usize_in(0, 3)),
                vg: self.vg(),
                vg_params: (0..num_params).map(|_| self.expr(2)).collect(),
                columns: (0..num_cols)
                    .map(|i| {
                        if self.bool() {
                            OutputColumn::Param {
                                source: format!("c{}", self.usize_in(0, 5)),
                                as_name: format!("a{i}"),
                            }
                        } else {
                            OutputColumn::Vg {
                                vg_col: self.usize_in(0, 3),
                                as_name: format!("a{i}"),
                            }
                        }
                    })
                    .collect(),
                table_tag: self.u64(),
            })
        };
        if depth == 0 {
            return leaf;
        }
        match self.usize_in(0, 5) {
            0 => self.plan(depth - 1).filter(self.expr(2)),
            1 => self.plan(depth - 1).project(vec![
                ("p0".to_string(), self.expr(2)),
                ("p1".to_string(), self.expr(1)),
            ]),
            2 => self
                .plan(depth - 1)
                .join(self.plan(depth - 1), vec![("c0", "c1")]),
            3 => self
                .plan(depth - 1)
                .split(format!("c{}", self.usize_in(0, 5))),
            _ => leaf,
        }
    }

    fn table(&mut self) -> Table {
        let cols = self.usize_in(1, 4);
        let fields: Vec<Field> = (0..cols)
            .map(|i| match self.usize_in(0, 4) {
                0 => Field::int64(format!("c{i}")),
                1 => Field::float64(format!("c{i}")),
                2 => Field::utf8(format!("c{i}")),
                _ => Field::boolean(format!("c{i}")),
            })
            .collect();
        let rows = self.usize_in(0, 10);
        let mut builder = TableBuilder::new(Schema::new(fields));
        for _ in 0..rows {
            // Cell types drift from the declared field type on purpose:
            // the codec must carry the actual values, Mixed columns
            // included.
            builder = builder.tuple(Tuple::new((0..cols).map(|_| self.value(true)).collect()));
        }
        builder.build().unwrap()
    }

    fn bundle(&mut self, specials: bool) -> TupleBundle {
        let arity = self.usize_in(1, 5);
        let reps = self.usize_in(0, 9);
        let values = (0..arity)
            .map(|_| match self.usize_in(0, 3) {
                0 => BundleValue::Const(self.value(specials)),
                1 => BundleValue::Random {
                    seed: self.u64(),
                    vg_row: self.usize_in(0, 4),
                    vg_col: self.usize_in(0, 4),
                    base_pos: self.u64(),
                    values: (0..reps).map(|_| self.value(specials)).collect(),
                },
                _ => BundleValue::Computed((0..reps).map(|_| self.value(specials)).collect()),
            })
            .collect();
        let is_pres = if self.bool() {
            Some((0..reps).map(|_| self.bool()).collect())
        } else {
            None
        };
        TupleBundle { values, is_pres }
    }

    fn aggregate(&mut self) -> AggregateSpec {
        AggregateSpec {
            func: [
                AggFunc::Sum,
                AggFunc::Count,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ][self.usize_in(0, 5)],
            expr: self.expr(2),
            alias: format!("agg{}", self.usize_in(0, 9)),
        }
    }

    /// Per-repetition sample payloads, raw-bit floats included (NaN
    /// payloads, infinities) — the QueryResult frame must carry them
    /// bit-exactly.
    fn samples(&mut self) -> QueryResultSamples {
        let num_columns = self.usize_in(0, 3);
        let group_columns: Vec<String> = (0..num_columns).map(|i| format!("g{i}")).collect();
        let groups = (0..self.usize_in(0, 5))
            .map(|_| {
                let key: Vec<Value> = (0..num_columns).map(|_| self.value(false)).collect();
                let xs: Vec<f64> = (0..self.usize_in(0, 16))
                    .map(|_| f64::from_bits(self.u64()))
                    .collect();
                (key, xs)
            })
            .collect();
        QueryResultSamples {
            group_columns,
            groups,
        }
    }

    fn key_range(&mut self) -> StreamKeyRange {
        let start = StreamKey::new(self.u64() % 16, self.u64());
        if self.bool() {
            StreamKeyRange { start, end: None }
        } else {
            StreamKeyRange {
                start,
                end: Some(StreamKey::new(self.u64() % 16, self.u64())),
            }
        }
    }
}

/// Register every table a plan may reference so `encode_plan` can snapshot
/// it: `t0` in its open tail only, `t1` and `t2` across many tiny pages.
fn catalog_for(_plan: &PlanNode, g: &mut Gen) -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..3 {
        let table = g.table();
        let table = match i {
            0 => table,
            _ => {
                Table::with_page_budget(table.schema().clone(), table.iter().collect(), 32).unwrap()
            }
        };
        catalog.register(format!("t{i}"), table).unwrap();
    }
    catalog
}

/// A catalog holding exactly `tables`.
fn catalog_of(tables: &[(String, Table)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, table) in tables {
        catalog.register(name.clone(), table.clone()).unwrap();
    }
    catalog
}

/// Whether two tables hold the same layout and the same bits: schema, every
/// sealed page's bytes, and every row value (floats by their bits, so NaN
/// payloads count).
fn same_table(a: &Table, b: &Table) -> bool {
    let bytes = |t: &Table| -> Vec<Vec<u8>> {
        (t.pages().iter())
            .map(|p| p.load_bytes().unwrap().to_vec())
            .collect()
    };
    let bits = |t: &Table| -> Vec<Vec<String>> {
        t.iter()
            .map(|row| {
                (row.values().iter())
                    .map(|v| match v {
                        Value::Float64(x) => format!("f{:x}", x.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    };
    a.schema() == b.schema() && bytes(a) == bytes(b) && bits(a) == bits(b)
}

/// FNV-1a of the plan bytes that start at `at` in `frame`, exactly as far
/// as the plan decoder reads.
fn hash_of_plan_bytes(frame: &[u8], at: usize) -> u64 {
    let mut r = Reader::new(&frame[at..]);
    PlanNode::decode_wire(&mut r).unwrap();
    fnv1a(FNV_OFFSET, &frame[at..at + r.position()])
}

#[test]
fn plan_frames_round_trip_identically() {
    let mut multi_page = 0;
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let depth = g.usize_in(1, 4);
        let plan = g.plan(depth);
        let catalog = catalog_for(&plan, &mut g);
        let key = PlanKey::new(&plan, &catalog);
        let payload = wire::encode_plan(key, &plan, &catalog).unwrap();
        let Frame::Plan {
            key: got_key,
            plan: got_plan,
            tables,
        } = wire::decode_frame(&payload).unwrap()
        else {
            panic!("case {case}: wrong frame shape");
        };
        assert_eq!(got_key, key, "case {case}");
        // The key's fingerprint is the hash of the plan bytes in the same
        // frame (tag, then the 16-byte key, then the plan).
        assert_eq!(hash_of_plan_bytes(&payload, 17), plan.fingerprint());
        assert_eq!(got_key.fingerprint, plan.fingerprint(), "case {case}");
        // PlanNode carries trait objects, so equality is asserted through
        // the structural fingerprint (every execution-relevant field) plus
        // the rendered tree (names).
        assert_eq!(
            got_plan.fingerprint(),
            plan.fingerprint(),
            "case {case}: fingerprint drifted across the wire"
        );
        assert_eq!(got_plan.to_string(), plan.to_string(), "case {case}");
        // The frame carries the tables the plan reads, by name in name
        // order, each with its pages' bytes verbatim and its rows
        // value-exact.
        assert!(!tables.is_empty(), "case {case}: every plan reads a table");
        assert!(tables.windows(2).all(|w| w[0].0 < w[1].0), "case {case}");
        for (name, table) in &tables {
            let original = catalog.get(name).unwrap();
            assert!(same_table(table, original), "case {case}: {name} drifted");
            multi_page += usize::from(table.pages().len() > 1);
        }
        // Re-encoding the decoded plan from a catalog of exactly the
        // decoded tables is byte-identical: the strongest identity check,
        // NaN payloads and all, and proof the frame held no table more or
        // less than the plan reads.
        let re = wire::encode_plan(got_key, &got_plan, &catalog_of(&tables)).unwrap();
        assert_eq!(re, payload, "case {case}: re-encode differs");
    }
    assert!(multi_page > 0, "no case shipped a table of several pages");
}

#[test]
fn task_bundle_and_stats_frames_round_trip_identically() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let task = TaskHeader {
            key: PlanKey {
                fingerprint: g.u64(),
                epoch: g.u64(),
            },
            master_seed: g.u64(),
            key_range: g.key_range(),
            base_pos: g.u64(),
            num_values: g.usize_in(0, 100_000),
        };
        match wire::decode_frame(&wire::encode_task(&task)).unwrap() {
            Frame::Task(got) => assert_eq!(got, task, "case {case}"),
            other => panic!("case {case}: decoded {other:?}"),
        }

        // Bundles without float specials compare by PartialEq...
        let idx = g.usize_in(0, 1000);
        let bundle = g.bundle(false);
        match wire::decode_frame(&wire::encode_bundle(idx, Some(&bundle))).unwrap() {
            Frame::Bundle {
                idx: got_idx,
                bundle: Some(got),
            } => {
                assert_eq!(got_idx, idx, "case {case}");
                assert_eq!(got, bundle, "case {case}");
            }
            other => panic!("case {case}: decoded {other:?}"),
        }
        // ...bundles *with* NaN payloads / -0.0 / infinities are asserted
        // byte-exact through a re-encode (PartialEq can't see NaN bits).
        let special = g.bundle(true);
        let payload = wire::encode_bundle(idx, Some(&special));
        let Frame::Bundle {
            bundle: Some(got), ..
        } = wire::decode_frame(&payload).unwrap()
        else {
            panic!("case {case}: bundle frame shape");
        };
        assert_eq!(
            wire::encode_bundle(idx, Some(&got)),
            payload,
            "case {case}: special-value bundle not bit-identical"
        );

        // Absent bundles and stats frames.
        match wire::decode_frame(&wire::encode_bundle(idx, None)).unwrap() {
            Frame::Bundle { bundle: None, .. } => {}
            other => panic!("case {case}: decoded {other:?}"),
        }
        let stats = TaskStats {
            cells: g.usize_in(0, 100),
            warm_hit: g.bool(),
        };
        match wire::decode_frame(&wire::encode_task_stats(stats)).unwrap() {
            Frame::TaskStats(got) => assert_eq!(got, stats, "case {case}"),
            other => panic!("case {case}: decoded {other:?}"),
        }
    }
}

/// One stream's real VG output cells: `vg` over `n` positions.
fn generated_cells(vg: &dyn VgFunction, params: &[Value], n: usize) -> CellCols {
    let mut block = ColumnBlock::new();
    let seed = StreamKey::new(3, 9).bind(77);
    vg.generate_block_into(params, seed, 0, n, &mut block)
        .unwrap();
    let (rows, cols) = (block.rows_per_pos(), block.cols());
    let columns = (0..rows * cols)
        .map(|i| block.column(i / cols, i % cols).clone())
        .collect();
    CellCols::from_columns(rows, cols, columns).unwrap()
}

/// One cell's value at `pos`, floats by their bits.
fn cell_bits(column: &Column, pos: usize) -> String {
    match column.value_at(pos) {
        Value::Float64(x) => format!("f{:#x}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

#[test]
fn cells_frames_round_trip_identically() {
    // Hand-built floats: a NaN payload, -0.0, infinities and a null.
    let mut special = Column::default();
    for v in [
        Value::Float64(f64::from_bits(0x7ff8_dead_beef_0001)),
        Value::Float64(-0.0),
        Value::Float64(f64::INFINITY),
        Value::Null,
        Value::Float64(f64::NEG_INFINITY),
        Value::Float64(1.5),
    ] {
        special.push_value(&v);
    }
    let special = CellCols::from_columns(1, 1, vec![special]).unwrap();
    let labels = ["lo", "mid", "hi"].map(Value::str).to_vec();
    let weights = [1.0, 2.0, 3.0].map(Value::Float64);
    let discrete = generated_cells(&DiscreteVg::new(labels), &weights, 40);
    assert_eq!(
        discrete.columns()[0].data_type(),
        Some(mcdbr::storage::DataType::Utf8)
    );
    let moments = [Value::Float64(1.0), Value::Float64(2.0)];
    let grid = generated_cells(&MultiNormalVg::new(3, 0.5), &moments, 25);
    assert_eq!(grid.shape(), (3, 2));
    for (idx, cells) in [(0usize, special), (17, discrete), (1 << 40, grid)] {
        let payload = wire::encode_cells(idx, &cells);
        let Frame::Cells {
            idx: got_idx,
            cells: got,
        } = wire::decode_frame(&payload).unwrap()
        else {
            panic!("stream {idx}: not a Cells frame");
        };
        assert_eq!(got_idx, idx as u64);
        assert_eq!(got.shape(), cells.shape());
        assert_eq!(got.columns().len(), cells.columns().len());
        for (a, b) in got.columns().iter().zip(cells.columns()) {
            assert_eq!(a.len(), b.len(), "stream {idx}");
            assert_eq!(a.data_type(), b.data_type(), "stream {idx}");
            for pos in 0..a.len() {
                assert_eq!(a.nulls().get(pos), b.nulls().get(pos), "stream {idx}");
                assert_eq!(cell_bits(a, pos), cell_bits(b, pos), "stream {idx}");
            }
        }
        // The decoded cells re-encode to the same bytes.
        assert_eq!(wire::encode_cells(idx, &got), payload, "stream {idx}");
    }
}

#[test]
fn control_frames_round_trip() {
    match wire::decode_frame(&wire::encode_hello()).unwrap() {
        Frame::Hello { magic, version } => {
            assert_eq!(magic, WIRE_MAGIC);
            assert_eq!(version, WIRE_VERSION);
        }
        other => panic!("decoded {other:?}"),
    }
    match wire::decode_frame(&wire::encode_error("it broke")).unwrap() {
        Frame::Error { message } => assert_eq!(message, "it broke"),
        other => panic!("decoded {other:?}"),
    }
    assert!(matches!(
        wire::decode_frame(&wire::encode_shutdown()).unwrap(),
        Frame::Shutdown
    ));
}

#[test]
fn query_frames_round_trip_identically() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let depth = g.usize_in(1, 3);
        let plan = g.plan(depth);
        let aggregate = g.aggregate();
        let final_predicate = if g.bool() { Some(g.expr(2)) } else { None };
        let group_by: Vec<String> = (0..g.usize_in(0, 4)).map(|i| format!("k{i}")).collect();
        let (reps, master_seed) = (g.u64(), g.u64());
        let payload = wire::encode_query(
            &plan,
            &aggregate,
            final_predicate.as_ref(),
            &group_by,
            reps,
            master_seed,
        )
        .unwrap();
        let Frame::Query {
            plan: got_plan,
            aggregate: got_agg,
            final_predicate: got_pred,
            group_by: got_group,
            reps: got_reps,
            master_seed: got_seed,
        } = wire::decode_frame(&payload).unwrap()
        else {
            panic!("case {case}: wrong frame shape");
        };
        assert_eq!(hash_of_plan_bytes(&payload, 1), plan.fingerprint());
        assert_eq!(got_plan.fingerprint(), plan.fingerprint(), "case {case}");
        assert_eq!(got_plan.to_string(), plan.to_string(), "case {case}");
        assert_eq!(got_agg.func, aggregate.func, "case {case}");
        assert_eq!(got_agg.expr, aggregate.expr, "case {case}");
        assert_eq!(got_agg.alias, aggregate.alias, "case {case}");
        assert_eq!(got_pred, final_predicate, "case {case}");
        assert_eq!(got_group, group_by, "case {case}");
        assert_eq!((got_reps, got_seed), (reps, master_seed), "case {case}");
        // Byte-exact re-encode closes the loop on anything PartialEq is
        // blind to.
        let re = wire::encode_query(
            &got_plan,
            &got_agg,
            got_pred.as_ref(),
            &got_group,
            got_reps,
            got_seed,
        )
        .unwrap();
        assert_eq!(re, payload, "case {case}: re-encode differs");
    }
}

#[test]
fn server_reply_frames_round_trip_identically() {
    for case in 0..CASES {
        let mut g = Gen::new(case.wrapping_add(7777));

        // QueryResult: per-repetition samples must survive bit-exactly,
        // NaN payloads included — proven by byte-identical re-encode.
        let samples = g.samples();
        let payload = wire::encode_query_result(&samples);
        let Frame::QueryResult(got) = wire::decode_frame(&payload).unwrap() else {
            panic!("case {case}: wrong frame shape");
        };
        assert_eq!(got.group_columns, samples.group_columns, "case {case}");
        assert_eq!(got.groups.len(), samples.groups.len(), "case {case}");
        for ((ka, va), (kb, vb)) in got.groups.iter().zip(&samples.groups) {
            assert_eq!(ka, kb, "case {case}");
            assert!(
                va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "case {case}: sample bits drifted"
            );
        }
        assert_eq!(wire::encode_query_result(&got), payload, "case {case}");

        // ErrorReply: every code survives with its message.
        for code in [
            ReplyCode::Busy,
            ReplyCode::ShuttingDown,
            ReplyCode::Invalid,
            ReplyCode::Internal,
        ] {
            let message = format!("m{}", g.u64());
            match wire::decode_frame(&wire::encode_error_reply(code, &message)).unwrap() {
                Frame::ErrorReply {
                    code: got_code,
                    message: got_message,
                } => {
                    assert_eq!(got_code, code, "case {case}");
                    assert_eq!(got_message, message, "case {case}");
                }
                other => panic!("case {case}: decoded {other:?}"),
            }
        }

        // QueryStats and ServerStats counter frames.
        let stats = QueryStats {
            skeleton_hit: g.bool(),
            plan_executions: g.u64(),
            shards_spawned: g.u64(),
            queue_wait_ns: g.u64(),
            exec_ns: g.u64(),
        };
        match wire::decode_frame(&wire::encode_query_stats(stats)).unwrap() {
            Frame::QueryStats(got) => assert_eq!(got, stats, "case {case}"),
            other => panic!("case {case}: decoded {other:?}"),
        }
        let server = ServerStats {
            queries_served: g.u64(),
            skeleton_hits: g.u64(),
            skeleton_misses: g.u64(),
            plan_executions: g.u64(),
            shards_spawned: g.u64(),
            busy_rejections: g.u64(),
            connections: g.u64(),
            inflight: g.u64(),
            query_timeouts: g.u64(),
        };
        match wire::decode_frame(&wire::encode_server_stats(server)).unwrap() {
            Frame::ServerStats(got) => assert_eq!(got, server, "case {case}"),
            other => panic!("case {case}: decoded {other:?}"),
        }
    }
    assert!(matches!(
        wire::decode_frame(&wire::encode_stats_request()).unwrap(),
        Frame::StatsRequest
    ));
}

/// One real frame of every tag, drawn from `g`.
fn frames_of_every_tag(g: &mut Gen) -> Vec<Vec<u8>> {
    let plan = g.plan(2);
    let catalog = catalog_for(&plan, g);
    let key = PlanKey::new(&plan, &catalog);
    vec![
        wire::encode_hello(),
        wire::encode_plan(key, &plan, &catalog).unwrap(),
        wire::encode_task(&TaskHeader {
            key,
            master_seed: g.u64(),
            key_range: g.key_range(),
            base_pos: g.u64(),
            num_values: 7,
        }),
        wire::encode_bundle(3, Some(&g.bundle(true))),
        wire::encode_cells(
            5,
            &generated_cells(
                &MultiNormalVg::new(3, 0.5),
                &[Value::Float64(1.0), Value::Float64(2.0)],
                7,
            ),
        ),
        wire::encode_task_stats(TaskStats {
            cells: 1,
            warm_hit: true,
        }),
        wire::encode_error("worker failed"),
        wire::encode_shutdown(),
        wire::encode_query(&plan, &g.aggregate(), Some(&g.expr(2)), &["k".into()], 8, 3).unwrap(),
        wire::encode_query_result(&g.samples()),
        wire::encode_error_reply(ReplyCode::Timeout, "too slow"),
        wire::encode_query_stats(QueryStats::default()),
        wire::encode_stats_request(),
        wire::encode_server_stats(ServerStats::default()),
    ]
}

#[test]
fn truncated_frames_return_typed_errors() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        for (fi, frame) in frames_of_every_tag(&mut g).iter().enumerate() {
            // Every strict prefix must fail with a typed error, not panic
            // (sample larger frames to keep the suite fast).
            let step = (frame.len() / 64).max(1);
            for cut in (0..frame.len()).step_by(step) {
                let err = wire::decode_frame(&frame[..cut])
                    .expect_err(&format!("case {case} frame {fi} cut {cut} decoded"));
                assert!(
                    matches!(err, WireError::Truncated { .. } | WireError::Corrupt(_)),
                    "case {case} frame {fi} cut {cut}: unexpected {err:?}"
                );
            }
        }
    }
}

/// A stream that claims the largest legal frame and then ends: the reader
/// reports a truncated payload without reserving the claimed gigabyte.
#[test]
fn a_claimed_frame_length_reserves_nothing_before_the_bytes_arrive() {
    let mut stream = wire::MAX_FRAME_LEN.to_le_bytes().to_vec();
    stream.extend_from_slice(b"only a few payload bytes");
    for input in [&stream[..4], &stream[..]] {
        let err = bounded(input, "read_frame", || {
            wire::read_frame(&mut std::io::Cursor::new(input)).unwrap_err()
        });
        assert!(
            matches!(
                err,
                WireError::Truncated {
                    what: "frame payload"
                }
            ),
            "{err:?}"
        );
    }
}

/// Re-encode a decoded frame with the public encoders.
fn reencode(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Hello { magic, version } => wire::encode_hello_with(*magic, *version),
        Frame::Plan { key, plan, tables } => {
            wire::encode_plan(*key, plan, &catalog_of(tables)).unwrap()
        }
        Frame::Task(task) => wire::encode_task(task),
        Frame::Bundle { idx, bundle } => wire::encode_bundle(*idx, bundle.as_ref()),
        Frame::Cells { idx, cells } => wire::encode_cells(*idx as usize, cells),
        Frame::TaskStats(stats) => wire::encode_task_stats(*stats),
        Frame::Error { message } => wire::encode_error(message),
        Frame::Shutdown => wire::encode_shutdown(),
        Frame::Query {
            plan,
            aggregate,
            final_predicate,
            group_by,
            reps,
            master_seed,
        } => wire::encode_query(
            plan,
            aggregate,
            final_predicate.as_ref(),
            group_by,
            *reps,
            *master_seed,
        )
        .unwrap(),
        Frame::QueryResult(samples) => wire::encode_query_result(samples),
        Frame::ErrorReply { code, message } => wire::encode_error_reply(*code, message),
        Frame::QueryStats(stats) => wire::encode_query_stats(*stats),
        Frame::StatsRequest => wire::encode_stats_request(),
        Frame::ServerStats(stats) => wire::encode_server_stats(*stats),
    }
}

/// A frame's value as text.  A table's pages get fresh frame ids on every
/// decode, so a `Plan` frame's tables are rendered by content instead, and
/// a column's string dictionary is a hash map, so `Cells` frames render
/// their values.
fn render(frame: &Frame) -> String {
    match frame {
        Frame::Cells { idx, cells } => format!(
            "{idx} {:?} {:?}",
            cells.shape(),
            (cells.columns().iter())
                .map(|c| (0..c.len()).map(|pos| cell_bits(c, pos)).collect())
                .collect::<Vec<Vec<String>>>()
        ),
        Frame::Plan { key, plan, tables } => format!(
            "{key:?} {plan:?} {:?}",
            (tables.iter())
                .map(|(name, t)| (name, t.schema(), t.iter().collect::<Vec<_>>()))
                .collect::<Vec<_>>()
        ),
        other => format!("{other:?}"),
    }
}

/// The harness oracle for one (possibly mutated) frame: a typed error, or
/// a value whose re-encoding decodes to the same value, bit for bit.
fn check_frame(bytes: &[u8], ctx: &str) {
    let frame = match bounded(bytes, ctx, || wire::decode_frame(bytes)) {
        Err(WireError::Truncated { .. } | WireError::Corrupt(_)) => return,
        Err(other) => panic!("{ctx}: untyped decode failure {other:?}"),
        Ok(frame) => frame,
    };
    // `encode_plan` takes the tables its plan reads from a catalog, and a
    // mutated Plan frame may carry others, so it is checked in parts: its
    // plan through a Query frame, each table through a Plan frame that
    // scans only it.
    let parts = match frame {
        Frame::Plan { key, plan, tables } => {
            let query = Frame::Query {
                plan,
                aggregate: AggregateSpec::sum(Expr::col("x"), "s"),
                final_predicate: None,
                group_by: Vec::new(),
                reps: 0,
                master_seed: 0,
            };
            let scans = tables.into_iter().map(|(name, table)| Frame::Plan {
                key,
                plan: PlanNode::scan(name.clone()),
                tables: vec![(name, table)],
            });
            std::iter::once(query).chain(scans).collect()
        }
        other => vec![other],
    };
    for frame in parts {
        let encoded = reencode(&frame);
        let again = wire::decode_frame(&encoded)
            .unwrap_or_else(|e| panic!("{ctx}: the re-encoding does not decode: {e}"));
        assert_eq!(render(&again), render(&frame), "{ctx}: value drifted");
        assert_eq!(reencode(&again), encoded, "{ctx}: bits drifted");
    }
}

#[test]
fn corrupted_frames_never_panic_and_bad_tags_are_typed() {
    assert!(matches!(
        wire::decode_frame(&[99, 0, 0]),
        Err(WireError::Corrupt(_))
    ));
    assert!(matches!(
        wire::decode_frame(&[]),
        Err(WireError::Truncated { .. })
    ));
    // Tags 14 and 15 named frames of earlier versions; they are unknown now.
    for tag in [14u8, 15] {
        assert!(matches!(
            wire::decode_frame(&[tag, 0, 0, 0, 0]),
            Err(WireError::Corrupt(_))
        ));
    }
    for case in 0..4 {
        let mut g = Gen::new(case);
        let frames = frames_of_every_tag(&mut g);
        let tags: std::collections::BTreeSet<u8> = frames.iter().map(|f| f[0]).collect();
        let every: std::collections::BTreeSet<u8> = (1..=13).chain([16]).collect();
        assert_eq!(tags, every, "one frame of every tag");
        for (fi, frame) in frames.iter().enumerate() {
            check_frame(frame, &format!("case {case} frame {fi} unmutated"));
            let other = &frames[(fi + 1) % frames.len()];
            mutate(frame, other, &mut g, |kind, bytes| {
                check_frame(bytes, &format!("case {case} frame {fi} {kind}"))
            });
        }
    }
}

/// The harness oracle for one (possibly mutated) sealed page.
fn check_page(bytes: &[u8], ctx: &str) {
    let page = match bounded(bytes, ctx, || Page::from_bytes(bytes.to_vec())) {
        Err(Error::Invalid(_)) => return,
        Err(other) => panic!("{ctx}: untyped page failure {other:?}"),
        Ok(page) => page,
    };
    let rows = page.decode_rows().unwrap();
    let resealed = Page::seal(page.num_cols(), &rows).decode_rows().unwrap();
    assert_eq!(format!("{resealed:?}"), format!("{rows:?}"), "{ctx}");
}

#[test]
fn corrupted_pages_and_heap_records_never_panic() {
    let mut g = Gen::new(0x9a6e);
    let mut pages: Vec<Vec<u8>> = vec![Page::seal(0, &[]).load_bytes().unwrap().to_vec()];
    for _ in 0..3 {
        let table = g.table();
        pages.extend(
            table
                .pages()
                .iter()
                .map(|p| p.load_bytes().unwrap().to_vec()),
        );
    }
    for (pi, page) in pages.iter().enumerate() {
        check_page(page, &format!("page {pi} unmutated"));
        let other = &pages[(pi + 1) % pages.len()];
        mutate(page, other, &mut g, |kind, bytes| {
            check_page(bytes, &format!("page {pi} {kind}"))
        });
    }

    // Heap records: mutate the record region of a real two-record spill
    // file under an open heap; every read is a typed error or the exact
    // payload that was appended.
    let path =
        std::env::temp_dir().join(format!("mcdbr-wire-roundtrip-{}.heap", std::process::id()));
    let heap = HeapFile::create(&path, Arc::new(DiskCounters::default())).unwrap();
    let payloads = [&pages[1], &pages[2]];
    for payload in payloads {
        heap.append_page(payload).unwrap();
    }
    let file = std::fs::read(&path).unwrap();
    let (header, records) = file.split_at(4096);
    mutate(records, &[], &mut g, |kind, bytes| {
        std::fs::write(&path, [header, bytes].concat()).unwrap();
        for (slot, payload) in payloads.iter().enumerate() {
            match heap.read_page(slot) {
                Ok(read) => assert_eq!(&&read, payload, "slot {slot} {kind}"),
                Err(Error::CorruptPage(_)) => {}
                Err(other) => panic!("slot {slot} {kind}: untyped failure {other:?}"),
            }
        }
    });
}

#[test]
fn zero_field_table_data_cannot_claim_page_rows() {
    // A Plan frame carrying a table whose only page is an 8-byte
    // zero-column header claiming 2^26 rows: no column vouches for them,
    // so it is refused.  The same frame claiming no rows decodes.
    let frame = |page_rows: u32| {
        let mut frame = vec![2u8];
        frame.extend_from_slice(&7u64.to_le_bytes()); // key fingerprint
        frame.extend_from_slice(&0u64.to_le_bytes()); // key epoch
        frame.push(1); // plan: a scan
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.push(b'z'); // of table `z`
        frame.extend_from_slice(&1u32.to_le_bytes()); // tables
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.push(b'z'); // table name
        frame.extend_from_slice(&0u32.to_le_bytes()); // fields
        frame.extend_from_slice(&1u32.to_le_bytes()); // pages
        frame.extend_from_slice(&8u32.to_le_bytes()); // page length
        frame.extend_from_slice(&0u32.to_le_bytes()); // page columns
        frame.extend_from_slice(&page_rows.to_le_bytes()); // page rows
        frame.extend_from_slice(&0u64.to_le_bytes()); // tail rows
        frame
    };
    assert!(matches!(
        wire::decode_frame(&frame(1 << 26)),
        Err(WireError::Corrupt(_))
    ));
    assert!(matches!(
        wire::decode_frame(&frame(0)),
        Ok(Frame::Plan { tables, .. }) if tables.len() == 1
    ));
}

#[test]
fn deeply_nested_expressions_are_corrupt_not_a_stack_overflow() {
    // A Query frame scanning `t` and summing `NOT NOT ... x`, `depth`
    // negations deep.
    let frame = |depth: usize| {
        let mut f = vec![8u8, 1, 1, 0, 0, 0, b't', 1];
        f.extend(vec![4u8; depth]);
        f.extend([1, 1, 0, 0, 0, b'x']);
        f.extend([1, 0, 0, 0, b's', 0, 0, 0, 0, 0]);
        f.extend([8u64.to_le_bytes(), 1u64.to_le_bytes()].concat());
        f
    };
    assert!(matches!(
        wire::decode_frame(&frame(200)),
        Ok(Frame::Query { .. })
    ));
    assert!(matches!(
        wire::decode_frame(&frame(1 << 20)),
        Err(WireError::Corrupt(_))
    ));
}

/// A `Query` frame and a `Plan` frame around `plan`'s bytes, written past
/// the encoders' token check.
fn frames_around(plan: &PlanNode) -> [Vec<u8>; 2] {
    let mut bytes = Vec::new();
    plan.encode_wire(&mut bytes);
    // Tag 8, the plan, SUM(x) AS s with no predicate or groups, 8 reps,
    // master seed 1.
    let query = [
        &[8u8][..],
        &bytes,
        &[1, 1, 1, 0, 0, 0, b'x', 1, 0, 0, 0, b's', 0, 0, 0, 0, 0],
        &8u64.to_le_bytes(),
        &1u64.to_le_bytes(),
    ]
    .concat();
    // Tag 2, a 16-byte key, the plan, no tables.
    let plan_frame = [&[2u8][..], &[0; 16], &bytes, &[0; 4]].concat();
    [query, plan_frame]
}

#[test]
fn hostile_vg_configurations_are_corrupt_frames_and_never_encode() {
    let sized = |vg: Arc<dyn VgFunction>| {
        PlanNode::random_table(scalar_random_table("U", "t", vg, vec![], &[], "v", 1))
    };
    // The frames decode when the configuration is one the repo uses...
    for frame in frames_around(&sized(Arc::new(MultiNormalVg::new(4, 0.5)))) {
        wire::decode_frame(&frame).unwrap();
    }
    // ...and not when it asks every stream position for 2^40 normals
    // (an abort on allocation) or 2^62 Euler steps (hours of phase 1).
    for plan in [
        sized(Arc::new(MultiNormalVg::new(1 << 40, 0.5))),
        sized(Arc::new(GbmTerminalVg::new(1 << 62))),
    ] {
        for frame in frames_around(&plan) {
            let err = wire::decode_frame(&frame).unwrap_err();
            assert!(matches!(err, WireError::Corrupt(_)), "{err:?}");
        }
        let agg = AggregateSpec::sum(Expr::col("v"), "s");
        let err = wire::encode_query(&plan, &agg, None, &[], 8, 1).unwrap_err();
        assert!(matches!(err, WireError::Unserializable(_)), "{err:?}");
    }
}

#[test]
fn task_key_ranges_round_trip_and_bad_bound_flags_are_corrupt() {
    let task = |key_range| TaskHeader {
        key: PlanKey {
            fingerprint: 1,
            epoch: 2,
        },
        master_seed: 3,
        key_range,
        base_pos: 4,
        num_values: 5,
    };
    for range in [
        StreamKeyRange::all(),
        StreamKeyRange {
            start: StreamKey::new(0xDEAD_BEEF, u64::MAX),
            end: Some(StreamKey::new(u64::MAX, 0)),
        },
    ] {
        let payload = wire::encode_task(&task(range));
        match wire::decode_frame(&payload).unwrap() {
            Frame::Task(got) => assert_eq!(got.key_range, range),
            other => panic!("decoded {other:?}"),
        }
        // The bound flag follows the 1-byte tag, 24 key/seed bytes and the
        // 16-byte start key: anything but 0/1 there is corrupt, not short.
        let mut bad = payload.clone();
        bad[1 + 24 + 16] = 7;
        assert!(matches!(
            wire::decode_frame(&bad),
            Err(WireError::Corrupt(_))
        ));
    }
}

#[test]
fn handshake_rejects_version_and_magic_mismatches() {
    // Drive the real worker loop over in-memory pipes: a peer announcing a
    // different protocol version (or the wrong magic) must be rejected at
    // the handshake — with an Error frame on the way out — before any
    // plan or task bytes are consumed.
    for (magic, version, expect_message) in [
        (WIRE_MAGIC, WIRE_VERSION + 9, "version mismatch"),
        (0x0BAD_F00D, WIRE_VERSION, "bad handshake magic"),
    ] {
        let mut input = Vec::new();
        wire::write_frame(&mut input, &wire::encode_hello_with(magic, version)).unwrap();
        let mut reader = std::io::Cursor::new(input);
        let mut output = Vec::new();
        let result = run_worker(&mut reader, &mut output);
        assert!(result.is_err(), "worker accepted a mismatched handshake");
        let mut cursor = std::io::Cursor::new(output);
        let (payload, _) = wire::read_frame(&mut cursor).unwrap().unwrap();
        match wire::decode_frame(&payload).unwrap() {
            Frame::Error { message } => assert!(
                message.contains(expect_message),
                "unexpected handshake error: {message}"
            ),
            other => panic!("expected an Error frame, got {other:?}"),
        }
    }
    // And the well-formed handshake is answered with a matching Hello.
    let mut input = Vec::new();
    wire::write_frame(&mut input, &wire::encode_hello()).unwrap();
    let mut reader = std::io::Cursor::new(input);
    let mut output = Vec::new();
    run_worker(&mut reader, &mut output).unwrap();
    let (payload, _) = wire::read_frame(&mut std::io::Cursor::new(output))
        .unwrap()
        .unwrap();
    assert!(matches!(
        wire::decode_frame(&payload).unwrap(),
        Frame::Hello {
            magic: WIRE_MAGIC,
            version: WIRE_VERSION
        }
    ));
}
