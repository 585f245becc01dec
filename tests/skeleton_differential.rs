//! Seeded differential test of the columnar skeleton pass against the
//! one-shot executor.
//!
//! Catalogs are generated from a seed (duplicate and `Null` join keys on
//! both sides, integral floats, strings, an empty parameter table), and a
//! fixed list of plan shapes takes its constants from the same seed.  Every
//! cacheable plan's session blocks must equal `Executor::execute` bundle for
//! bundle — on the in-process backend, split into one and three shard
//! units, and on a skeleton re-bound to a fresh master seed out of a
//! `SessionCache`.  The skeleton's read-only view of each tuple
//! (`PlanSkeleton::lineage`, what the Gibbs looper reads instead of
//! bundles) must name what the block's bundles hold.

use std::sync::Arc;

use mcdbr::exec::plan::{scalar_random_table, OutputColumn};
use mcdbr::exec::{
    assemble_block, BlockBufferPool, BundleSet, BundleValue, DeterministicPrefix, ExecOptions,
    ExecSession, Executor, Expr, Lineage, PlanNode, RandomTableSpec, SessionCache, ShardTask,
    TupleBundle,
};
use mcdbr::prng::Pcg64;
use mcdbr::storage::{Catalog, Field, Schema, TableBuilder, Value};
use mcdbr::vg::{DiscreteVg, MultiNormalVg, NormalVg};
use mcdbr::workloads::{
    salary_inversion_catalog, salary_inversion_query, TpchConfig, TpchWorkload,
};

/// Block windows every session materializes, in order.
const BLOCKS: [(u64, usize); 2] = [(0, 8), (8, 5)];

fn pick<T: Clone>(rng: &mut Pcg64, options: &[T]) -> T {
    options[rng.next_below(options.len() as u64) as usize].clone()
}

/// `orders` (the parameter table), `items` (a scanned table) and `nothing`
/// (an empty parameter table), with join keys drawn from a small range so
/// that both sides repeat them, and an occasional `Null` key.
fn catalog(rng: &mut Pcg64) -> Catalog {
    let key = |rng: &mut Pcg64| {
        if rng.next_below(8) == 0 {
            Value::Null
        } else {
            Value::Int64(rng.next_below(5) as i64)
        }
    };
    let tag = |rng: &mut Pcg64| pick(rng, &[Value::str("x"), Value::str("y"), Value::Null]);
    let param_schema = Schema::new(vec![
        Field::int64("id"),
        Field::float64("kf"),
        Field::utf8("s"),
        Field::float64("m"),
        Field::float64("w_lo"),
    ]);
    let mut orders = TableBuilder::new(param_schema.clone());
    for _ in 0..3 + rng.next_below(8) {
        let id = rng.next_below(5) as f64;
        // Mostly integral floats (they join Int64 keys), sometimes not.
        let kf = if rng.next_below(4) == 0 { id + 0.5 } else { id };
        orders = orders.row([
            key(rng),
            Value::Float64(kf),
            tag(rng),
            Value::Float64(rng.next_f64() * 4.0 - 2.0),
            Value::Float64(0.2 + 0.6 * rng.next_f64()),
        ]);
    }
    let mut items = TableBuilder::new(Schema::new(vec![
        Field::int64("id"),
        Field::utf8("s"),
        Field::float64("w"),
    ]));
    for _ in 0..4 + rng.next_below(10) {
        items = items.row([key(rng), tag(rng), Value::Float64(rng.next_f64() * 10.0)]);
    }
    let mut catalog = Catalog::new();
    catalog.register("orders", orders.build().unwrap()).unwrap();
    catalog.register("items", items.build().unwrap()).unwrap();
    catalog
        .register("nothing", TableBuilder::new(param_schema).build().unwrap())
        .unwrap();
    catalog
}

/// `val ~ Normal(m, 1)` per parameter row, keeping `id`, `kf` and `s`.
fn losses(param_table: &str, tag: u64) -> PlanNode {
    PlanNode::random_table(scalar_random_table(
        "losses",
        param_table,
        Arc::new(NormalVg),
        vec![Expr::col("m"), Expr::lit(1.0)],
        &["id", "kf", "s"],
        "val",
        tag,
    ))
}

/// Three correlated `(component, value)` rows per order: a multi-row VG.
fn components() -> PlanNode {
    PlanNode::random_table(RandomTableSpec {
        name: "components".into(),
        param_table: "orders".into(),
        vg: Arc::new(MultiNormalVg::new(3, 0.5)),
        vg_params: vec![Expr::col("m"), Expr::lit(1.0)],
        columns: vec![
            OutputColumn::Param {
                source: "id".into(),
                as_name: "id".into(),
            },
            OutputColumn::Vg {
                vg_col: 0,
                as_name: "component".into(),
            },
            OutputColumn::Vg {
                vg_col: 1,
                as_name: "value".into(),
            },
        ],
        table_tag: 3,
    })
}

/// A discrete random `age` per order, for `Split` over a random column.
fn ages() -> PlanNode {
    PlanNode::random_table(RandomTableSpec {
        name: "ages".into(),
        param_table: "orders".into(),
        vg: Arc::new(DiscreteVg::new(vec![Value::Int64(20), Value::Int64(21)])),
        vg_params: vec![Expr::col("w_lo"), Expr::lit(1.0).sub(Expr::col("w_lo"))],
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
        table_tag: 4,
    })
}

/// The plan shapes, with constants drawn from `rng`, each named and marked
/// with whether the session must cache its skeleton.
fn plans(rng: &mut Pcg64) -> Vec<(&'static str, PlanNode, bool)> {
    let cut = rng.next_below(5) as i64;
    let level = rng.next_f64() * 2.0 - 1.0;
    let scale = pick(rng, &[0.5, 2.0, 3.0]);
    let items = || PlanNode::scan("items");
    let filtered = losses("orders", 1)
        .filter(Expr::col("id").lt(Expr::lit(cut)))
        .join(items(), vec![("id", "id")])
        .filter(Expr::col("val").gt(Expr::lit(level)));
    vec![
        (
            "multi-key join, duplicates and Null keys on both sides",
            losses("orders", 1).join(items(), vec![("id", "id"), ("s", "s")]),
            true,
        ),
        (
            "Int64 join integral Float64",
            items().join(losses("orders", 1), vec![("id", "kf")]),
            true,
        ),
        (
            "Float64 join Int64 and Utf8",
            losses("orders", 2).join(items(), vec![("kf", "id"), ("s", "s")]),
            true,
        ),
        ("deterministic and random filters", filtered.clone(), true),
        (
            "projections",
            filtered.clone().project(vec![
                ("id", Expr::col("id")),
                ("twice_w", Expr::col("w").mul(Expr::lit(scale))),
                ("loss", Expr::col("val").mul(Expr::lit(scale))),
                ("mixed", Expr::col("val").add(Expr::col("w"))),
                ("s", Expr::col("s")),
            ]),
            true,
        ),
        (
            "a filter over a deferred projection",
            losses("orders", 1)
                .project(vec![
                    ("id", Expr::col("id")),
                    ("loss", Expr::col("val").mul(Expr::lit(scale))),
                ])
                .filter(Expr::col("loss").gt(Expr::lit(level))),
            true,
        ),
        (
            "Split over a constant column",
            losses("orders", 1)
                .split("id")
                .join(items(), vec![("id", "id")]),
            true,
        ),
        ("Split over a random column", ages().split("age"), false),
        (
            "multi-row VG",
            components()
                .filter(Expr::col("value").gt(Expr::lit(level)))
                .join(items(), vec![("id", "id")]),
            true,
        ),
        (
            "empty parameter table",
            losses("nothing", 5)
                .filter(Expr::col("val").gt(Expr::lit(level)))
                .join(items(), vec![("id", "id")]),
            true,
        ),
        (
            "self-join of one random table",
            losses("orders", 1)
                .join(losses("orders", 1), vec![("id", "id")])
                .project(vec![
                    ("id", Expr::col("id")),
                    ("sum", Expr::col("val").add(Expr::col("val_1"))),
                    ("val", Expr::col("val")),
                ]),
            true,
        ),
    ]
}

/// The executor's block, and how many streams it registered.
fn execute(
    plan: &PlanNode,
    catalog: &Catalog,
    master_seed: u64,
    block: (u64, usize),
) -> (BundleSet, usize) {
    let mut executor = Executor::new();
    let set = executor
        .execute(
            plan,
            catalog,
            &ExecOptions {
                master_seed,
                num_values: block.1,
                base_pos: block.0,
            },
        )
        .unwrap();
    (set, executor.streams_registered())
}

/// Bundle-for-bundle identity, constants compared by bits.
/// One block of `prefix` as `shards` planned units, assembled.
fn sharded_block(
    prefix: &DeterministicPrefix,
    shards: usize,
    (base, n): (u64, usize),
) -> BundleSet {
    let pool = BlockBufferPool::new();
    let cells = ShardTask::plan(prefix, shards, base, n)
        .iter()
        .flat_map(|task| task.run(&pool, 2).unwrap())
        .map(|(_, cells)| cells)
        .collect();
    assemble_block(prefix, cells, base, n, 2).unwrap()
}

fn assert_bit_identical(want: &BundleSet, got: &BundleSet, what: &str) {
    assert_eq!(want.schema, got.schema, "{what}: schema");
    assert_eq!(want.num_reps, got.num_reps, "{what}: repetitions");
    assert_eq!(
        want.bundles.len(),
        got.bundles.len(),
        "{what}: bundle count"
    );
    for (i, (w, g)) in want.bundles.iter().zip(&got.bundles).enumerate() {
        assert_eq!(w.is_pres, g.is_pres, "{what}: presence of bundle {i}");
        assert_eq!(
            w.values.len(),
            g.values.len(),
            "{what}: arity of bundle {i}"
        );
        for (c, (wv, gv)) in w.values.iter().zip(&g.values).enumerate() {
            match (wv, gv) {
                (BundleValue::Const(Value::Float64(a)), BundleValue::Const(Value::Float64(b))) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: bundle {i} column {c}");
                }
                _ => assert_eq!(wv, gv, "{what}: bundle {i} column {c}"),
            }
        }
    }
}

#[test]
fn skeleton_sessions_equal_the_executor_on_seeded_catalogs_and_plans() {
    let mut bundles_seen = 0;
    for seed in 0..6u64 {
        let mut rng = Pcg64::new(0x5EED_0000 + seed);
        let catalog = catalog(&mut rng);
        for (name, plan, cacheable) in plans(&mut rng) {
            let master = 100 + seed;
            let what = format!("seed {seed}, {name}");
            let (expected, streams): (Vec<BundleSet>, Vec<usize>) = BLOCKS
                .iter()
                .map(|&block| execute(&plan, &catalog, master, block))
                .unzip();
            let streams = streams[0];
            bundles_seen += expected[0].bundles.len();

            let mut session = ExecSession::prepare(&plan, &catalog, master).unwrap();
            assert_eq!(session.is_cached(), cacheable, "{what}");
            if let Some(prefix) = session.prefix() {
                assert_eq!(prefix.num_streams(), streams, "{what}: streams");
                for shards in [1, 3] {
                    for (&block, want) in BLOCKS.iter().zip(&expected) {
                        let got = sharded_block(prefix, shards, block);
                        assert_bit_identical(want, &got, &format!("{what}, {shards} shards"));
                    }
                }
            }
            for (&(base, n), want) in BLOCKS.iter().zip(&expected) {
                let got = session.instantiate_block(&catalog, base, n).unwrap();
                assert_bit_identical(want, &got, &what);
            }
            if !cacheable {
                // Fallback blocks generate every registered stream.
                let values: usize = BLOCKS.iter().map(|&(_, n)| streams * n).sum();
                assert_eq!(session.values_materialized(), values as u64, "{what}");
            }

            // A cache hit re-binds the stored skeleton to a new master seed;
            // an uncacheable plan is never stored, so it misses again.
            let cache = SessionCache::new();
            let _ = cache.session(&plan, &catalog, master).unwrap();
            let rebound = master + 1_000;
            let mut session = cache.session(&plan, &catalog, rebound).unwrap();
            assert_eq!(
                session.skeleton_hit(),
                cacheable,
                "{what}: the second lookup hits iff the plan is cacheable"
            );
            for &block in &BLOCKS {
                let (want, _) = execute(&plan, &catalog, rebound, block);
                if let Some(prefix) = session.prefix() {
                    let got = sharded_block(prefix, 3, block);
                    assert_bit_identical(&want, &got, &format!("{what}, cache hit, 3 shards"));
                }
                let got = session
                    .instantiate_block(&catalog, block.0, block.1)
                    .unwrap();
                assert_bit_identical(&want, &got, &format!("{what}, cache hit"));
            }
        }
    }
    assert!(
        bundles_seen > 100,
        "the generated plans must produce bundles"
    );
}

#[test]
fn join_key_errors_name_the_random_column_on_both_paths() {
    let catalog = catalog(&mut Pcg64::new(1));
    let plans = [
        (
            losses("orders", 1).join(PlanNode::scan("items"), vec![("val", "id")]),
            "left join key column val",
        ),
        (
            PlanNode::scan("items").join(losses("orders", 1), vec![("id", "id"), ("id", "val")]),
            "right join key column val",
        ),
    ];
    for (plan, name) in plans {
        let executor = Executor::new()
            .execute(&plan, &catalog, &ExecOptions::monte_carlo(7, 4))
            .unwrap_err()
            .to_string();
        let session = ExecSession::prepare(&plan, &catalog, 7)
            .unwrap_err()
            .to_string();
        assert!(executor.contains(name), "executor: {executor}");
        assert_eq!(session, executor, "both paths report the same error");
    }
}

/// Whether the skeleton's view of tuple `idx` names what `bundle` holds in
/// every column: the same constant bits, the same stream cell (seed, VG
/// row and column), a computed column where the bundle computed one.
fn view_names(prefix: &DeterministicPrefix, idx: usize, bundle: &TupleBundle) -> bool {
    let skeleton = prefix.skeleton();
    let seed_of = |at: usize| skeleton.active_keys()[at].bind(prefix.master_seed());
    (bundle.values.iter().enumerate()).all(|(c, value)| match (skeleton.lineage(idx, c), value) {
        (Lineage::Const(Value::Float64(a)), BundleValue::Const(Value::Float64(b))) => {
            a.to_bits() == b.to_bits()
        }
        (Lineage::Const(a), BundleValue::Const(b)) => a == b,
        (
            Lineage::Stream { at, vg_row, vg_col },
            &BundleValue::Random {
                seed,
                vg_row: row,
                vg_col: col,
                ..
            },
        ) => (seed_of(at), vg_row, vg_col) == (seed, row, col),
        (Lineage::Computed, BundleValue::Computed(_)) => true,
        _ => false,
    })
}

#[test]
fn the_skeleton_view_names_what_every_bundle_holds() {
    let tpch = TpchWorkload::generate(TpchConfig::test_scale()).unwrap();
    let salaries = salary_inversion_catalog(12, 3).unwrap();
    let seeded = catalog(&mut Pcg64::new(1));
    // The looper tests' weighted fan-out: one loss stream per customer,
    // joined to the weighted items that repeat its key.
    let mut means = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]));
    for (cid, m) in [(0, 3.0), (1, 4.0), (2, 5.0)] {
        means = means.row([Value::Int64(cid), Value::Float64(m)]);
    }
    let mut items = TableBuilder::new(Schema::new(vec![Field::int64("icid"), Field::float64("w")]));
    for (cid, w) in [(0, 1.0), (1, 0.5), (0, 1.0), (2, -1.0), (0, 2.0), (1, -0.0)] {
        items = items.row([Value::Int64(cid), Value::Float64(w)]);
    }
    let mut weighted = Catalog::new();
    weighted.register("means", means.build().unwrap()).unwrap();
    weighted.register("items", items.build().unwrap()).unwrap();
    let losses = PlanNode::random_table(scalar_random_table(
        "Losses",
        "means",
        Arc::new(NormalVg),
        vec![Expr::col("m"), Expr::lit(1.0)],
        &["cid"],
        "val",
        1,
    ));
    let cases = [
        ("TPC-H join", &tpch.catalog, tpch.total_loss_query().plan),
        (
            "salary inversion",
            &salaries,
            salary_inversion_query(100.0, 40.0, 4.0).plan,
        ),
        (
            "weighted fan-out",
            &weighted,
            losses
                .clone()
                .join(PlanNode::scan("items"), vec![("cid", "icid")]),
        ),
        (
            "projected computed column",
            &weighted,
            losses.clone().project(vec![
                ("scaled", Expr::col("val").mul(Expr::lit(2.0))),
                ("val", Expr::col("val")),
            ]),
        ),
        (
            "multi-row VG",
            &seeded,
            components().join(PlanNode::scan("items"), vec![("id", "id")]),
        ),
        (
            "filter on a random column",
            &weighted,
            losses.filter(Expr::col("val").gt(Expr::lit(4.0))),
        ),
    ];
    for (what, catalog, plan) in cases {
        let master = 77;
        let mut session = ExecSession::prepare(&plan, catalog, master).unwrap();
        let set = session.instantiate_block(catalog, 0, 8).unwrap();
        let prefix = session.prefix().unwrap();
        let skeleton = prefix.skeleton();
        assert!(!set.bundles.is_empty(), "{what}");
        for bundle in &set.bundles {
            assert_eq!(
                skeleton.defers_presence(),
                bundle.is_pres.is_some(),
                "{what}"
            );
        }
        if !skeleton.defers_presence() {
            // Without presence predicates a block keeps every tuple, in
            // skeleton order.
            assert_eq!(set.bundles.len(), skeleton.num_bundles(), "{what}");
            for (idx, bundle) in set.bundles.iter().enumerate() {
                assert!(view_names(prefix, idx, bundle), "{what}: tuple {idx}");
            }
            continue;
        }
        // A block drops the tuples present nowhere: its bundles are the
        // rest, in skeleton order.
        let mut tuples = 0..skeleton.num_bundles();
        for (i, bundle) in set.bundles.iter().enumerate() {
            let named = tuples.any(|idx| view_names(prefix, idx, bundle));
            assert!(named, "{what}: bundle {i} named by no tuple in order");
        }
    }
}
