//! `sample_block` against the two-call path it replaces.
//!
//! `ExecSession::sample_block` instantiates and aggregates a block in one
//! call: the backend generates the block's cells and the session folds
//! every bundle once straight into the aggregate, so no `BundleSet` exists.
//! This suite holds it, bit for bit, to `instantiate_block` followed by
//! `evaluate_aggregate` — groups, their order and keys, every sample — on
//! the in-process backend (its cells at several thread counts folded by
//! `fold_block`), and on two worker
//! processes, whose cells the coordinator either folds (`sample_block`) or
//! assembles into the set (`instantiate_block`); and it requires both sides
//! to fail together.  The shapes are the ones where
//! fusing could go wrong: presence predicates that drop a bundle in every
//! repetition, a `GROUP BY` whose first group is never present, a final
//! predicate, a computed aggregand, every aggregate function, empty
//! results, a stream fanned out to several bundles by a join, a VG function
//! with several output rows per position, and the `Split` fallback.

use mcdbr::dispatch::ProcessBackend;
use mcdbr::exec::aggregate::{evaluate_aggregate, AggFunc, AggregateSpec, QueryResultSamples};
use mcdbr::exec::plan::{scalar_random_table, OutputColumn, RandomTableSpec};
use mcdbr::exec::{
    fold_block, BlockBufferPool, ExecBackend, ExecSession, Expr, InProcessBackend, PlanNode,
};
use mcdbr::storage::{Catalog, Field, Result, Schema, TableBuilder, Value};
use mcdbr::vg::{MultiNormalVg, NormalVg};
use std::sync::Arc;

/// Twelve customers and their line items.  Customer 0 (region `ZZ`, alone)
/// has a mean loss so low that `val > 0` never holds; customers 1–4 sit
/// near zero, so the predicate keeps some repetitions only.  Customers join
/// 0–3 items each (customer 0 one), so most streams fan out to several
/// bundles.
fn catalog() -> Catalog {
    let regions = [
        "ZZ", "EU", "US", "EU", "APAC", "US", "EU", "US", "APAC", "EU", "US", "EU",
    ];
    let mut params = TableBuilder::new(Schema::new(vec![
        Field::int64("cid"),
        Field::float64("m"),
        Field::utf8("region"),
    ]));
    for (cid, &region) in regions.iter().enumerate() {
        let m = match cid {
            0 => -100.0,
            1..=4 => 0.25 * cid as f64 - 0.5,
            _ => 1.0 + cid as f64,
        };
        params = params.row([
            Value::Int64(cid as i64),
            Value::Float64(m),
            Value::str(region),
        ]);
    }
    let mut items = TableBuilder::new(Schema::new(vec![Field::int64("icid"), Field::float64("w")]));
    for cid in 0..12i64 {
        for k in 0..((cid * 7 + 1) % 4) {
            items = items.row([Value::Int64(cid), Value::Float64(1.0 + k as f64)]);
        }
    }
    let mut catalog = Catalog::new();
    catalog.register("params", params.build().unwrap()).unwrap();
    catalog.register("items", items.build().unwrap()).unwrap();
    catalog
}

fn losses() -> PlanNode {
    PlanNode::random_table(scalar_random_table(
        "Losses",
        "params",
        Arc::new(NormalVg),
        vec![Expr::col("m"), Expr::lit(1.0)],
        &["cid", "region"],
        "val",
        1,
    ))
}

/// Three correlated rows `(component, val)` per customer and position.
fn multi() -> PlanNode {
    let keep = |name: &str| OutputColumn::Param {
        source: name.into(),
        as_name: name.into(),
    };
    PlanNode::random_table(RandomTableSpec {
        name: "Multi".into(),
        param_table: "params".into(),
        vg: Arc::new(MultiNormalVg::new(3, 0.5)),
        vg_params: vec![Expr::col("m"), Expr::lit(1.0)],
        columns: vec![
            keep("cid"),
            keep("region"),
            OutputColumn::Vg {
                vg_col: 0,
                as_name: "component".into(),
            },
            OutputColumn::Vg {
                vg_col: 1,
                as_name: "val".into(),
            },
        ],
        table_tag: 2,
    })
}

fn plans() -> Vec<(&'static str, PlanNode)> {
    let positive = || Expr::col("val").gt(Expr::lit(0.0));
    let joined = || losses().join(PlanNode::scan("items"), vec![("cid", "icid")]);
    vec![
        ("join", joined()),
        ("join, presence", joined().filter(positive())),
        ("presence", losses().filter(positive())),
        (
            "no bundles",
            joined().filter(Expr::col("cid").gt(Expr::lit(1000i64))),
        ),
        (
            "never present",
            losses().filter(Expr::col("val").gt(Expr::lit(1e9))),
        ),
        ("multi-row VG, presence", multi().filter(positive())),
        ("split fallback", multi().split("component")),
    ]
}

fn queries() -> Vec<(AggregateSpec, Vec<String>, Option<Expr>)> {
    let funcs = [
        AggFunc::Sum,
        AggFunc::Count,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];
    let aggregands = [Expr::col("val"), Expr::col("val").mul(Expr::lit(1.0))];
    let mut out = Vec::new();
    for func in funcs {
        for expr in &aggregands {
            for group_by in [vec![], vec!["region".to_string()]] {
                for pred in [None, Some(Expr::col("val").gt(Expr::lit(1.0)))] {
                    let agg = AggregateSpec {
                        func,
                        expr: expr.clone(),
                        alias: "a".into(),
                    };
                    out.push((agg, group_by.clone(), pred));
                }
            }
        }
    }
    // Both sides must fail: a random grouping key, a zero divisor in a
    // present repetition, a string aggregand.
    let sum = |e: Expr| AggregateSpec::sum(e, "a");
    out.push((sum(Expr::col("val")), vec!["val".into()], None));
    let zero = Expr::col("val").sub(Expr::col("val"));
    out.push((sum(Expr::col("val").div(zero)), vec![], None));
    out.push((sum(Expr::col("region")), vec![], None));
    out
}

fn assert_same(case: &str, got: &Result<QueryResultSamples>, want: &Result<QueryResultSamples>) {
    let (got, want) = match (got, want) {
        (Err(_), Err(_)) => return,
        (Ok(got), Ok(want)) => (got, want),
        _ => panic!("{case}: one side failed: {got:?} vs {want:?}"),
    };
    assert_eq!(got.group_columns, want.group_columns, "{case}");
    let keys = |s: &QueryResultSamples| s.groups.iter().map(|g| g.0.clone()).collect::<Vec<_>>();
    assert_eq!(keys(got), keys(want), "{case}: groups differ");
    for ((key, a), (_, b)) in got.groups.iter().zip(&want.groups) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{case}: group {key:?}");
    }
}

#[test]
fn sample_block_is_bit_identical_to_instantiate_then_aggregate() {
    let catalog = catalog();
    let queries = queries();
    let process: Arc<dyn ExecBackend> = Arc::new(ProcessBackend::new(2));
    let (mut compared, mut failed, mut groups) = (0usize, 0usize, 0usize);
    for (name, plan) in plans() {
        for n in [1usize, 7, 250] {
            let base = 13;
            let mut reference = ExecSession::prepare(&plan, &catalog, 99).unwrap();
            let set = reference.instantiate_block(&catalog, base, n).unwrap();
            let wants: Vec<_> = (queries.iter())
                .map(|(agg, by, pred)| evaluate_aggregate(&set, agg, by, pred.as_ref()))
                .collect();
            // Two workers: the fold of their cells, and the set assembled
            // from the same cells, each against the in-process pair.
            let mut remote = ExecSession::prepare(&plan, &catalog, 99)
                .unwrap()
                .with_backend(Arc::clone(&process));
            let remote_set = remote.instantiate_block(&catalog, base, n).unwrap();
            for ((agg, by, pred), want) in queries.iter().zip(&wants) {
                let case = format!("{name}, n = {n}, 2 workers: {agg:?} by {by:?} where {pred:?}");
                let folded = remote.sample_block(&catalog, base, n, agg, by, pred.as_ref());
                assert_same(&format!("{case}, fold"), &folded, want);
                let assembled = evaluate_aggregate(&remote_set, agg, by, pred.as_ref());
                assert_same(&format!("{case}, assembly"), &assembled, want);
                compared += 2;
                match want {
                    Ok(s) => groups += 2 * s.groups.len(),
                    Err(_) => failed += 2,
                }
            }
            let mut session = ExecSession::prepare(&plan, &catalog, 99)
                .unwrap()
                .with_backend(Arc::new(InProcessBackend::new()));
            for ((agg, by, pred), want) in queries.iter().zip(&wants) {
                let case = format!("{name}, n = {n}: {agg:?} by {by:?} where {pred:?}");
                let got = session.sample_block(&catalog, base, n, agg, by, pred.as_ref());
                assert_same(&case, &got, want);
                compared += 1;
                match want {
                    Ok(s) => groups += s.groups.len(),
                    Err(_) => failed += 1,
                }
            }
            // One block per call, each counting what a block counts.
            let calls = queries.len() as u64;
            assert_eq!(session.blocks_materialized() as u64, calls, "{name}");
            let values = reference.values_materialized() * calls;
            assert_eq!(session.values_materialized(), values, "{name}");
            // The session's path at explicit widths: the backend's cells
            // folded once, or a fallback plan's set aggregated by the
            // backend.
            let (local, pool) = (InProcessBackend::new(), BlockBufferPool::new());
            for threads in [1, 2, 3] {
                for ((agg, by, pred), want) in queries.iter().zip(&wants) {
                    let case =
                        format!("{name}, n = {n}, x{threads}: {agg:?} by {by:?} where {pred:?}");
                    let got = match session.prefix() {
                        Some(prefix) => (local.instantiate_cells(prefix, &pool, threads, base, n))
                            .and_then(|cells| fold_block(prefix, cells, n, agg, by, pred.as_ref())),
                        None => {
                            let set = session.instantiate_block(&catalog, base, n).unwrap();
                            local.aggregate(&set, agg, by, pred.as_ref(), threads)
                        }
                    };
                    assert_same(&case, &got, want);
                    compared += 1;
                    match want {
                        Ok(s) => groups += s.groups.len(),
                        Err(_) => failed += 1,
                    }
                }
            }
        }
    }
    // 7 plans x 3 repetition counts x 43 queries x (the session + 3 thread
    // counts + the fold and the assembly on two workers); the error cases
    // fail on every plan that has a present bundle, and the grouped ones see
    // every region that has one.
    assert_eq!(compared, 7 * 3 * 43 * (1 + 3 + 2));
    // The cached plans' blocks crossed the wire, for each set and each
    // fold: one task per worker, or one in all on the plan with no bundles
    // (no active stream to split).
    let stats = process.shard_stats();
    assert_eq!(stats.tasks_dispatched, (5 * 2 + 1) * 3 * (1 + 43));
    assert_eq!(stats.worker_respawns, 0);
    assert!(
        failed > 0 && failed < compared,
        "{failed} of {compared} failed"
    );
    assert!(groups > compared, "{groups} groups over {compared} cases");
}

#[test]
fn the_first_seen_group_is_numbered_only_where_it_is_present() {
    // `ZZ`'s only customer comes first in every plan and is never present:
    // the result must not have its group at all, and the others keep the
    // order of their first present bundle.
    let catalog = catalog();
    let plan = losses()
        .join(PlanNode::scan("items"), vec![("cid", "icid")])
        .filter(Expr::col("val").gt(Expr::lit(0.0)));
    let agg = AggregateSpec::sum(Expr::col("val"), "a");
    let by = ["region".to_string()];
    let mut session = ExecSession::prepare(&plan, &catalog, 7).unwrap();
    let got = session
        .sample_block(&catalog, 0, 64, &agg, &by, None)
        .unwrap();
    let keys: Vec<Value> = got.groups.iter().map(|g| g.0[0].clone()).collect();
    assert!(!keys.contains(&Value::str("ZZ")), "{keys:?}");
    let set = session.instantiate_block(&catalog, 0, 64).unwrap();
    let want = evaluate_aggregate(&set, &agg, &by, None);
    assert_same("first-seen group", &Ok(got), &want);
}
