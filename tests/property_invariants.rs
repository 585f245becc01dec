//! Property-style tests over the core invariants of the system: quantile /
//! order-statistic conventions, frequency tables, parameter theory identities,
//! TS-seed bookkeeping, and the purge/clone/perturb loop.
//!
//! The build environment has no registry access, so instead of `proptest`
//! these use a small seeded case generator over the repository's own
//! [`Pcg64`]: each property is checked for 64 pseudorandom configurations,
//! and every failure message carries the case seed so a case can be replayed
//! exactly.

use mcdbr::core::params::{h_c, staged_parameters_with_m};
use mcdbr::core::{IndependentSumModel, ScalarCloner, TsSeed};
use mcdbr::exec::program::Lane;
use mcdbr::exec::{Expr, Program};
use mcdbr::mcdb::ResultDistribution;
use mcdbr::prng::Pcg64;
use mcdbr::risk::value_at_risk;
use mcdbr::storage::{
    BufferPool, Column, DataType, Field, Mask, Page, Schema, Table, Tuple, Value,
};
use mcdbr::vg::Distribution;

const CASES: u64 = 64;

/// Deterministic case generator: uniform helpers over ranges.
struct Gen {
    rng: Pcg64,
}

impl Gen {
    fn new(case: u64) -> Self {
        Gen {
            rng: Pcg64::new(0x70726f70 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        }
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.rng.next_u64() % (hi - lo) as u64) as usize
    }

    fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.rng.next_u64() % (hi - lo)
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64_open() * (hi - lo)
    }

    fn vec_f64(&mut self, len_lo: usize, len_hi: usize, lo: f64, hi: f64) -> Vec<f64> {
        let len = self.usize_in(len_lo, len_hi);
        (0..len).map(|_| self.f64_in(lo, hi)).collect()
    }
}

/// The empirical quantile is monotone in the level and bracketed by the
/// sample extremes.
#[test]
fn quantiles_are_monotone() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let mut samples = g.vec_f64(2, 200, -1e6, 1e6);
        let (q1, q2) = (g.f64_in(0.01, 0.99), g.f64_in(0.01, 0.99));
        let dist = ResultDistribution::from_samples(&samples);
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let a = dist.quantile(lo).unwrap();
        let b = dist.quantile(hi).unwrap();
        assert!(
            a <= b,
            "case {case}: quantile({lo}) = {a} > quantile({hi}) = {b}"
        );
        samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!(
            a >= samples[0] && b <= *samples.last().unwrap(),
            "case {case}: quantiles escape the sample range"
        );
    }
}

/// Frequency tables are proper probability vectors with sorted support.
#[test]
fn frequency_tables_sum_to_one() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let len = g.usize_in(1, 300);
        let floats: Vec<f64> = (0..len)
            .map(|_| g.usize_in(0, 200) as f64 - 100.0)
            .collect();
        let dist = ResultDistribution::from_samples(&floats);
        let ft = dist.frequency_table(0.0);
        let total: f64 = ft.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case}: total = {total}");
        assert!(
            ft.windows(2).all(|w| w[0].0 < w[1].0),
            "case {case}: frequency table support not sorted"
        );
    }
}

/// VaR never exceeds expected shortfall computed at the VaR threshold.
#[test]
fn var_below_expected_shortfall() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let samples = g.vec_f64(10, 300, -1e3, 1e3);
        let p = g.f64_in(0.01, 0.5);
        let var = value_at_risk(&samples, p).unwrap();
        let tail: Vec<f64> = samples.iter().copied().filter(|&x| x >= var).collect();
        let es = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(es >= var - 1e-9, "case {case}: ES {es} < VaR {var}");
    }
}

/// Appendix C identities: the even split satisfies ∏ pᵢ = p and h_c stays
/// within [p, 1].
#[test]
fn staged_parameter_identities() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let n_total = g.usize_in(20, 5000);
        let p = g.f64_in(0.0005, 0.2);
        let m = g.usize_in(1, 8).min(n_total);
        let params = staged_parameters_with_m(n_total, p, m);
        let prod: f64 = params.step_probabilities().iter().product();
        assert!(
            (prod - p).abs() < 1e-9,
            "case {case}: ∏ pᵢ = {prod} vs p = {p}"
        );
        let ns: Vec<f64> = params.step_sizes().iter().map(|&n| n as f64).collect();
        let ps = params.step_probabilities();
        for c in [1.0, 2.0] {
            let h = h_c(&ns, &ps, c);
            assert!(h >= p - 1e-9 && h <= 1.0 + 1e-9, "case {case}: h_c = {h}");
        }
    }
}

/// TS-seed bookkeeping: `max_used` tracks every assignment and cloning copies
/// columns exactly.
#[test]
fn ts_seed_bookkeeping() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let num_versions = g.usize_in(1, 16);
        let mut ts = TsSeed::new(7, num_versions);
        let num_ops = g.usize_in(0, 50);
        for _ in 0..num_ops {
            let v = g.usize_in(0, 16) % num_versions;
            let pos = g.u64_in(0, 500);
            ts.assign(v, pos);
            assert!(ts.max_used >= pos, "case {case}: max_used fell behind");
            assert_eq!(ts.assigned(v), pos, "case {case}: assignment lost");
        }
        let src = 0;
        let want = ts.assigned(src);
        ts.reassign_from(&vec![src; num_versions]);
        assert!(
            (0..num_versions).all(|v| ts.assigned(v) == want),
            "case {case}: reassign_from did not copy the column"
        );
    }
}

// ===== The compiled expression program against `Expr::eval` =====

/// A random value of every type: signed zeros, NaN, infinities, `Int64`s at
/// both ends of the range, small integers (zero included) and strings.
fn rand_value(g: &mut Gen) -> Value {
    match g.u64_in(0, 13) {
        0 => Value::Null,
        1 => Value::Bool(g.u64_in(0, 2) == 0),
        2 => Value::str(["a", "b", ""][g.usize_in(0, 3)]),
        3 => Value::Int64([i64::MAX, i64::MIN + 1][g.usize_in(0, 2)] - g.u64_in(0, 2) as i64),
        4..=6 => Value::Int64(g.u64_in(0, 7) as i64 - 3),
        7 => [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][g.usize_in(0, 5)].into(),
        _ => Value::Float64(g.f64_in(-4.0, 4.0)),
    }
}

/// One column per lane representation, by name: `Float64`, `Int64`,
/// `Bool`, `Utf8`, boxed `Mixed`, a broadcast constant, all-null (untyped).
const LANES: [&str; 7] = ["f", "i", "b", "s", "m", "k", "z"];

/// `n` rows of the column `LANES[c]` names; half the columns hold nulls.
fn rand_lane_column(g: &mut Gen, c: usize, n: usize) -> Column {
    let mut col = Column::default();
    let null_density = g.f64_in(-0.3, 0.3);
    for _ in 0..n {
        let v = loop {
            let v = rand_value(g);
            let fits = match LANES[c] {
                "f" => matches!(v, Value::Float64(_)),
                "i" => matches!(v, Value::Int64(_)),
                "b" => matches!(v, Value::Bool(_)),
                "s" => matches!(v, Value::Utf8(_)),
                "m" => true,
                _ => v.is_null(),
            };
            if fits {
                break v;
            }
        };
        match g.rng.next_f64() < null_density {
            true => col.push_null(),
            false => col.push_value(&v),
        }
    }
    col
}

/// A random expression of depth at most `depth` over every `BinaryOp`,
/// `NOT`, literals of every type, the lanes and an unknown column — or, with
/// `ints`, over `+`, `-` and `*` of the `Int64` lane, the constant and
/// `Int64` literals only, where checked arithmetic overflows often.
fn rand_expr(g: &mut Gen, depth: usize, ints: bool) -> Expr {
    use mcdbr::exec::BinaryOp::*;
    if ints && (depth == 0 || g.u64_in(0, 3) == 0) {
        return match g.u64_in(0, 3) {
            0 => Expr::lit([i64::MAX, i64::MIN, 2][g.usize_in(0, 3)]),
            1 => Expr::col("k"),
            _ => Expr::col("i"),
        };
    }
    if ints {
        let op = [Add, Sub, Mul][g.usize_in(0, 3)];
        let (lhs, rhs) = (rand_expr(g, depth - 1, ints), rand_expr(g, depth - 1, ints));
        return Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
    }
    if depth == 0 || g.u64_in(0, 4) == 0 {
        return match g.u64_in(0, 40) {
            0..=11 => Expr::lit(rand_value(g)),
            12 => Expr::col("missing"),
            13..=30 => Expr::col(["f", "i", "k"][g.usize_in(0, 3)]),
            _ => Expr::col(LANES[g.usize_in(0, LANES.len())]),
        };
    }
    if g.u64_in(0, 13) == 0 {
        return rand_expr(g, depth - 1, ints).not();
    }
    let ops = [Add, Sub, Mul, Div, Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or];
    Expr::Binary {
        op: ops[g.usize_in(0, ops.len())],
        lhs: Box::new(rand_expr(g, depth - 1, ints)),
        rhs: Box::new(rand_expr(g, depth - 1, ints)),
    }
}

/// Both drivers of `Program` agree with `Expr::eval` — row by row on
/// random trees over every operator, literal type and lane representation:
/// the row driver on every row (the same value bits, or both `Err`), the
/// column driver on a random selection (it errors iff some selected row
/// does; otherwise the selection it narrows to is exactly the rows the
/// predicate keeps, each holding the referee's value).
#[test]
fn program_drivers_match_expr_eval_on_random_trees() {
    let schema = Schema::new(
        LANES
            .iter()
            .map(|&n| Field::new(n, DataType::Float64))
            .collect(),
    );
    let (mut ok_calls, mut err_calls) = (0, 0);
    for case in 0..400 {
        let mut g = Gen::new(0x70726f67 ^ case);
        let n = g.usize_in(1, 140);
        let cols: Vec<Column> = (0..LANES.len())
            .map(|c| rand_lane_column(&mut g, c, n))
            .collect();
        let konst = rand_value(&mut g);
        let lanes: Vec<Lane<'_>> = cols
            .iter()
            .zip(LANES)
            .map(|(col, name)| match name {
                "k" => Lane::constant(konst.clone()),
                _ => Lane::column(col),
            })
            .collect();
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                (cols.iter().zip(LANES))
                    .map(|(col, name)| {
                        if name == "k" {
                            konst.clone()
                        } else {
                            col.value_at(i)
                        }
                    })
                    .collect()
            })
            .collect();
        let pred = (g.u64_in(0, 3) == 0).then(|| rand_expr(&mut g, 3, false));
        let ints = case % 4 == 0;
        let depth = if ints { g.usize_in(1, 3) } else { 4 };
        let expr = rand_expr(&mut g, depth, ints);
        let program = Program::compile(&schema, pred.as_ref(), Some(&expr));
        let ctx = format!("case {case}: {pred:?} / `{expr}`");
        let want: Vec<mcdbr::storage::Result<Option<Value>>> = (rows.iter())
            .map(|row| match &pred {
                Some(p) if !p.eval_bool(&schema, row)? => Ok(None),
                _ => expr.eval(&schema, row).map(Some),
            })
            .collect();
        for (i, row) in rows.iter().enumerate() {
            let got = program.eval_row(|slot| row[program.slots()[slot]].clone());
            match (&got, &want[i]) {
                (Ok(Some(x)), Ok(Some(y))) => assert_cells_eq(x, y, &format!("{ctx} row {i}")),
                (x, y) => assert_eq!(x.is_ok(), y.is_ok(), "{ctx} row {i}: {x:?} vs {y:?}"),
            }
        }
        let density = g.f64_in(0.0, 1.0);
        let mut sel = Mask::default();
        sel.fill_with(n, |_| g.rng.next_f64() < density);
        let selected = sel.clone();
        let got = program.eval_block(&mut sel, |slot| Ok(lanes[program.slots()[slot]].clone()));
        let fails = (0..n).any(|i| selected.get(i) && want[i].is_err());
        let Ok(lane) = got else {
            assert!(fails, "{ctx}: {got:?} with no selected row failing");
            err_calls += 1;
            continue;
        };
        assert!(!fails, "{ctx}: a selected row fails, the block did not");
        ok_calls += 1;
        let mut kept = Vec::new();
        for (i, want) in want.iter().enumerate() {
            if let (Ok(Some(v)), true) = (want, selected.get(i)) {
                assert_cells_eq(&lane.value_at(i), v, &format!("{ctx} row {i}"));
                kept.push(i as u32);
            }
        }
        let rows_kept: Vec<u32> = (0..n).filter(|&i| sel.get(i)).map(|i| i as u32).collect();
        assert_eq!(rows_kept, kept, "{ctx}: the narrowed selection");
    }
    // Both outcomes are common, so neither half of the contract is vacuous.
    assert!(
        ok_calls > 100 && err_calls > 40,
        "{ok_calls} ok, {err_calls} err"
    );
}

/// A random numeric column of length `n`: `Float64` or `Int64`, with NaNs
/// (float only) and SQL NULLs injected at a per-case random density.
fn rand_column(g: &mut Gen, n: usize) -> Column {
    let mut col = Column::default();
    let null_density = g.f64_in(0.0, 0.4);
    let is_float = g.u64_in(0, 4) > 0; // mostly floats, sometimes ints
    let nan_density = if is_float { g.f64_in(0.0, 0.15) } else { 0.0 };
    for _ in 0..n {
        if g.rng.next_f64() < null_density {
            col.push_null();
        } else if is_float {
            if g.rng.next_f64() < nan_density {
                col.push_f64(f64::NAN);
            } else {
                col.push_f64(g.f64_in(-100.0, 100.0));
            }
        } else {
            col.push_value(&Value::Int64(g.u64_in(0, 200) as i64 - 100));
        }
    }
    col
}

/// A random comparison operand: a schema column or a numeric literal.
fn rand_operand(g: &mut Gen, names: &[&str]) -> Expr {
    match g.u64_in(0, 4) {
        0 => Expr::lit(Value::Float64(g.f64_in(-50.0, 50.0))),
        1 => Expr::lit(Value::Int64(g.u64_in(0, 100) as i64 - 50)),
        _ => Expr::col(names[g.usize_in(0, names.len())]),
    }
}

/// A random predicate tree over comparisons, `AND`/`OR`/`NOT`.
fn rand_pred(g: &mut Gen, names: &[&str], depth: usize) -> Expr {
    if depth == 0 || g.u64_in(0, 3) == 0 {
        let lhs = rand_operand(g, names);
        let rhs = rand_operand(g, names);
        return match g.u64_in(0, 6) {
            0 => lhs.eq(rhs),
            1 => lhs.not_eq(rhs),
            2 => lhs.lt(rhs),
            3 => lhs.lt_eq(rhs),
            4 => lhs.gt(rhs),
            _ => lhs.gt_eq(rhs),
        };
    }
    match g.u64_in(0, 3) {
        0 => rand_pred(g, names, depth - 1).and(rand_pred(g, names, depth - 1)),
        1 => rand_pred(g, names, depth - 1).or(rand_pred(g, names, depth - 1)),
        _ => rand_pred(g, names, depth - 1).not(),
    }
}

/// The column driver's predicate narrowing agrees with the scalar
/// `eval_bool` row loop on every row of randomized numeric schemas — random
/// lengths (crossing the 64-bit mask-word boundary), null densities, NaNs,
/// and `Int64`/`Float64` mixes.  A block errors iff some row's `eval_bool`
/// does; the test asserts blocks succeed on a healthy majority so the
/// comparison cannot silently go vacuous.
#[test]
fn predicate_kernels_match_scalar_eval_row() {
    let names = ["a", "b", "c"];
    let schema = Schema::new(
        names
            .iter()
            .map(|&n| Field::new(n, DataType::Float64))
            .collect(),
    );
    let mut engaged = 0u32;
    for case in 0..CASES {
        let mut g = Gen::new(0x6b65726e ^ case);
        let n = g.usize_in(1, 300);
        let cols: Vec<Column> = (0..names.len()).map(|_| rand_column(&mut g, n)).collect();
        let lanes: Vec<Lane<'_>> = cols.iter().map(Lane::column).collect();
        let expr = rand_pred(&mut g, &names, 2);
        let program = Program::compile(&schema, Some(&expr), None);
        let mut mask = Mask::ones(n);
        let got = program.eval_block(&mut mask, |slot| Ok(lanes[program.slots()[slot]].clone()));
        let want: Vec<mcdbr::storage::Result<bool>> = (0..n)
            .map(|i| {
                let row: Vec<Value> = cols.iter().map(|c| c.value_at(i)).collect();
                expr.eval_bool(&schema, &row)
            })
            .collect();
        if let Err(e) = got {
            assert!(
                want.iter().any(|w| w.is_err()),
                "case {case}: `{expr}` block failed ({e:?}) with no row failing"
            );
            continue;
        }
        engaged += 1;
        let mut kept = 0;
        for (i, want) in want.into_iter().enumerate() {
            let want = want.unwrap_or_else(|e| panic!("case {case}: `{expr}` row {i}: {e:?}"));
            assert_eq!(mask.get(i), want, "case {case}: `{expr}` row {i}");
            kept += usize::from(want);
        }
        assert_eq!(mask.count(), kept, "case {case}");
    }
    assert!(
        engaged > CASES as u32 / 2,
        "blocks succeeded on only {engaged}/{CASES} cases"
    );
}

/// The aggregand a program computes — through the column driver's value
/// lane and through `eval_row_f64` — is bit-identical to the scalar
/// `eval_f64` referee on null-free numeric columns, across random arithmetic
/// expression trees.
#[test]
fn numeric_value_lanes_match_scalar_eval_bitwise() {
    let names = ["x", "y"];
    let schema = Schema::new(
        names
            .iter()
            .map(|&n| Field::new(n, DataType::Float64))
            .collect(),
    );
    for case in 0..CASES {
        let mut g = Gen::new(0x61676772 ^ case);
        let n = g.usize_in(1, 200);
        let cols: Vec<Column> = (0..names.len())
            .map(|_| {
                let mut c = Column::default();
                for _ in 0..n {
                    c.push_f64(g.f64_in(-100.0, 100.0));
                }
                c
            })
            .collect();
        let lanes: Vec<Lane<'_>> = cols.iter().map(Lane::column).collect();
        // x*k1 + y, x - y*k2, (x + y) * k, x / k + y — random small trees.
        let x = Expr::col("x");
        let y = Expr::col("y");
        let k = Expr::lit(Value::Float64(g.f64_in(0.5, 4.0)));
        let expr = match g.u64_in(0, 4) {
            0 => x.mul(k).add(y),
            1 => x.sub(y.mul(k)),
            2 => x.add(y).mul(k),
            _ => x.div(k).add(y),
        };
        let program = Program::compile(&schema, None, Some(&expr));
        let mut sel = Mask::ones(n);
        let vals = program
            .eval_block(&mut sel, |slot| Ok(lanes[program.slots()[slot]].clone()))
            .unwrap_or_else(|e| panic!("case {case}: `{expr}`: {e:?}"));
        assert_eq!(sel.count(), n, "case {case}: no predicate, no row dropped");
        for i in 0..n {
            let row: Vec<Value> = cols.iter().map(|c| c.value_at(i)).collect();
            let want = expr.eval_f64(&schema, &row).unwrap();
            let got = vals.value_at(i).as_f64().unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case}: `{expr}` row {i}: {got} != {want}"
            );
            let by_row = program
                .eval_row_f64(|slot| row[program.slots()[slot]].clone())
                .unwrap()
                .expect("no predicate drops the row");
            assert_eq!(
                by_row.to_bits(),
                want.to_bits(),
                "case {case}: `{expr}` row {i} (row driver)"
            );
        }
    }
}

/// Packed-mask word operations agree with the naive per-bit reference at
/// every length — especially lengths straddling the 64-bit word boundary,
/// where trailing-word garbage must never leak into counts or selections.
#[test]
fn mask_ops_match_naive_reference() {
    for case in 0..CASES {
        let mut g = Gen::new(0x6d61736b ^ case);
        // Cluster lengths around word boundaries half the time.
        let n = if g.u64_in(0, 2) == 0 {
            let w = g.usize_in(0, 4) * 64;
            (w + g.usize_in(0, 3)).max(1)
        } else {
            g.usize_in(1, 300)
        };
        let a_bits: Vec<bool> = (0..n).map(|_| g.rng.next_f64() < 0.5).collect();
        let b_bits: Vec<bool> = (0..n).map(|_| g.rng.next_f64() < 0.3).collect();
        let a = Mask::from_bools(&a_bits);
        let b = Mask::from_bools(&b_bits);
        assert_eq!(a.to_bools(), a_bits, "case {case}: roundtrip");
        assert_eq!(
            a.count(),
            a_bits.iter().filter(|&&x| x).count(),
            "case {case}: count"
        );
        let naive = |f: fn(bool, bool) -> bool| -> Vec<bool> {
            a_bits.iter().zip(&b_bits).map(|(&x, &y)| f(x, y)).collect()
        };
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.to_bools(), naive(|x, y| x && y), "case {case}: and");
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(or.to_bools(), naive(|x, y| x || y), "case {case}: or");
        let mut andn = a.clone();
        andn.and_not_assign(&b);
        assert_eq!(
            andn.to_bools(),
            naive(|x, y| x && !y),
            "case {case}: and_not"
        );
        let mut not = a.clone();
        not.not_assign();
        assert_eq!(
            not.to_bools(),
            a_bits.iter().map(|&x| !x).collect::<Vec<_>>(),
            "case {case}: not"
        );
        assert_eq!(
            not.count(),
            n - a.count(),
            "case {case}: trailing-word bits leaked into the complement count"
        );
    }
}

/// The scalar Gibbs cloner's invariants hold for arbitrary light-tailed
/// configurations: the requested number of tail samples comes back, every
/// sample clears the final cutoff, and cutoffs are non-decreasing.
#[test]
fn cloner_invariants() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let r = g.usize_in(2, 12);
        let n_total = g.usize_in(40, 200);
        let m = g.usize_in(1, 4);
        let l = g.usize_in(5, 40);
        let seed = g.u64_in(0, 1000);
        let model = IndependentSumModel::iid(Distribution::Normal { mean: 1.0, sd: 1.0 }, r);
        let cloner = ScalarCloner::new(model);
        let params = staged_parameters_with_m(n_total, 0.05, m);
        let report = cloner.run(&params, l, &mut Pcg64::new(seed));
        assert_eq!(report.tail_samples.len(), l, "case {case}");
        assert!(
            report.cutoffs.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "case {case}: cutoffs decreased: {:?}",
            report.cutoffs
        );
        let cutoff = report.quantile_estimate;
        assert!(
            report.tail_samples.iter().all(|&q| q >= cutoff - 1e-9),
            "case {case}: tail sample below the final cutoff"
        );
    }
}

// ---------------------------------------------------------------------------
// Paged storage: page codec identity, buffer-pool eviction transparency, and
// pin semantics, over randomized schemas and row sets (bit-exactness
// landmines included: NaN payloads, negative zero, infinities, nulls).

/// A random cell, optionally including raw-bit float specials.
fn rand_cell(g: &mut Gen, specials: bool) -> Value {
    match g.usize_in(0, if specials { 6 } else { 5 }) {
        0 => Value::Null,
        1 => Value::Int64(g.u64_in(0, 1 << 40) as i64 - (1 << 39)),
        2 => Value::Float64(g.f64_in(-1e9, 1e9)),
        3 => Value::Bool(g.u64_in(0, 2) == 1),
        4 => {
            let len = g.usize_in(0, 16);
            Value::str(
                (0..len)
                    .map(|_| char::from(b'a' + (g.u64_in(0, 26)) as u8))
                    .collect::<String>(),
            )
        }
        _ => [
            Value::Float64(f64::from_bits(0x7ff8_dead_beef_0001)),
            Value::Float64(-0.0),
            Value::Float64(f64::INFINITY),
            Value::Float64(f64::NEG_INFINITY),
        ][g.usize_in(0, 4)]
        .clone(),
    }
}

fn rand_rows(g: &mut Gen, cols: usize, n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|_| Tuple::new((0..cols).map(|_| rand_cell(g, true)).collect()))
        .collect()
}

/// Bit-exact value comparison: floats by raw bits, everything else by
/// `PartialEq`.
fn assert_cells_eq(a: &Value, b: &Value, ctx: &str) {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: float bits drifted")
        }
        _ => assert_eq!(a, b, "{ctx}"),
    }
}

/// `Page::seal` → `decode_rows` is the identity on arbitrary row sets, and
/// `Page::from_bytes` over the sealed bytes reproduces the content hash
/// under a fresh page id.
#[test]
fn page_encode_decode_is_identity() {
    for case in 0..CASES {
        let mut g = Gen::new(case.wrapping_add(0x7061_6765));
        let cols = g.usize_in(1, 5);
        let n = g.usize_in(0, 24);
        let rows = rand_rows(&mut g, cols, n);
        let page = Page::seal(cols, &rows);
        assert_eq!(page.num_rows(), rows.len(), "case {case}");
        assert_eq!(page.num_cols(), cols, "case {case}");
        let decoded = page.decode_rows().expect("sealed page decodes");
        assert_eq!(decoded.len(), rows.len(), "case {case}");
        for (i, (got, want)) in decoded.iter().zip(&rows).enumerate() {
            for (c, (x, y)) in got.values().iter().zip(want.values()).enumerate() {
                assert_cells_eq(x, y, &format!("case {case} row {i} col {c}"));
            }
        }
        // Adopting the raw bytes (the wire path) re-validates and re-hashes
        // to the same content under a process-fresh id.
        let adopted = Page::from_bytes(page.load_bytes().unwrap().to_vec()).expect("case: adopt");
        assert_eq!(adopted.content_hash(), page.content_hash(), "case {case}");
        assert_ne!(adopted.id(), page.id(), "case {case}: ids must be fresh");
    }
}

/// Scanning through a thrashing-small buffer pool yields exactly the rows
/// an unbounded pool yields — eviction trades decode work, never content —
/// and genuinely evicts whenever the table outspans the budget.
#[test]
fn tiny_budget_scans_are_bit_identical_to_unbounded() {
    for case in 0..CASES {
        let mut g = Gen::new(case.wrapping_add(0x6275_6467));
        let cols = g.usize_in(1, 4);
        let schema = Schema::new((0..cols).map(|i| Field::int64(format!("c{i}"))).collect());
        let n = g.usize_in(1, 60);
        let rows = rand_rows(&mut g, cols, n);
        let table = Table::with_page_budget(schema, rows, g.usize_in(24, 96)).unwrap();

        let unbounded = BufferPool::new(usize::MAX);
        let tiny = BufferPool::new(g.usize_in(1, 3));
        let a: Vec<Tuple> = table.iter_with(&unbounded).collect();
        let b: Vec<Tuple> = table.iter_with(&tiny).collect();
        assert_eq!(a.len(), b.len(), "case {case}");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            for (c, (vx, vy)) in x.values().iter().zip(y.values()).enumerate() {
                assert_cells_eq(vx, vy, &format!("case {case} row {i} col {c}"));
            }
        }
        if table.pages().len() > tiny.budget() {
            assert!(
                tiny.stats().pool_evictions > 0,
                "case {case}: {} pages over a {}-frame budget must evict",
                table.pages().len(),
                tiny.budget()
            );
        }
    }
}

/// Concurrent scans through one tiny pool keep the counters *exact*, not
/// merely monotone: every pin is classified as exactly one hit or one read
/// (a thread that loses the decode race still counts a hit — the frame it
/// pins was read by the winner), and the resident frame count equals
/// `pages_read - pool_evictions` at every quiescent point.  This is the
/// regression test for the windowing race where eviction-vs-re-read on two
/// scanning threads underreported reads.
#[test]
fn concurrent_scans_keep_pool_counters_exact() {
    const THREADS: usize = 4;
    for case in 0..CASES {
        let mut g = Gen::new(case.wrapping_add(0x6363_6e74));
        let cols = g.usize_in(1, 3);
        let schema = Schema::new((0..cols).map(|i| Field::int64(format!("c{i}"))).collect());
        let n = g.usize_in(8, 48);
        let rows = rand_rows(&mut g, cols, n);
        let table = Table::with_page_budget(schema, rows, g.usize_in(24, 64)).unwrap();
        let pages = table.pages().len();
        if pages < 2 {
            continue;
        }

        let pool = BufferPool::new(g.usize_in(1, 3));
        let reference: Vec<Tuple> = table.iter_with(&BufferPool::new(usize::MAX)).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let pool = &pool;
                    let table = &table;
                    scope.spawn(move || table.iter_with(pool).collect::<Vec<Tuple>>())
                })
                .collect();
            for handle in handles {
                let scanned = handle.join().expect("scan thread panicked");
                assert_eq!(scanned.len(), reference.len(), "case {case}");
                for (i, (x, y)) in scanned.iter().zip(&reference).enumerate() {
                    for (c, (vx, vy)) in x.values().iter().zip(y.values()).enumerate() {
                        assert_cells_eq(vx, vy, &format!("case {case} row {i} col {c}"));
                    }
                }
            }
        });

        let stats = pool.stats();
        // Every (thread, page) pin is exactly one hit or one read.
        assert_eq!(
            stats.pages_read + stats.pool_hits,
            (THREADS * pages) as u64,
            "case {case}: {pages} pages × {THREADS} threads must classify every pin"
        );
        // Reads minus evictions is precisely what is still resident.
        assert_eq!(
            pool.resident_frames() as u64,
            stats.pages_read - stats.pool_evictions,
            "case {case}: resident = reads - evictions must be exact (stats {stats:?})"
        );
        assert!(
            stats.pages_read >= pages as u64,
            "case {case}: each page is decoded at least once"
        );
        if pages > pool.budget() {
            assert!(stats.pool_evictions > 0, "case {case}: pressure must evict");
        }
    }
}

/// A pinned frame survives arbitrary eviction pressure: scanning the whole
/// table through a 1-frame pool while a guard is held leaves the guarded
/// rows intact and bit-identical to a fresh decode of the page.
#[test]
fn pinned_frames_survive_eviction_pressure() {
    for case in 0..CASES {
        let mut g = Gen::new(case.wrapping_add(0x7069_6e73));
        let cols = g.usize_in(1, 3);
        let schema = Schema::new((0..cols).map(|i| Field::int64(format!("c{i}"))).collect());
        let n = g.usize_in(12, 40);
        let rows = rand_rows(&mut g, cols, n);
        // A budget this small guarantees several sealed pages.
        let table = Table::with_page_budget(schema, rows, 24).unwrap();
        if table.pages().len() < 2 {
            continue;
        }

        let pool = BufferPool::new(1);
        let pinned_page = &table.pages()[0];
        let guard = pool.pin(pinned_page).unwrap();
        // Full-scan pressure through the same 1-frame pool.
        let scanned = table.iter_with(&pool).count();
        assert_eq!(scanned, table.len(), "case {case}");
        assert!(pool.stats().pool_evictions > 0, "case {case}");
        // The guard still reads the exact sealed content.
        let fresh = pinned_page.decode_rows().unwrap();
        assert_eq!(guard.len(), fresh.len(), "case {case}");
        for (i, (got, want)) in guard.iter().zip(&fresh).enumerate() {
            for (c, (x, y)) in got.values().iter().zip(want.values()).enumerate() {
                assert_cells_eq(x, y, &format!("case {case} row {i} col {c}"));
            }
        }
        drop(guard);
    }
}
