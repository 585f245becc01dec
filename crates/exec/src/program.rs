//! The one expression evaluator: an [`Expr`] lowered once, against its
//! schema, into a flat register program, run by two drivers.
//!
//! **Semantics** are [`Expr::eval`]'s, which stays the referee: a NULL
//! operand makes a comparison false and arithmetic an error; `Int64` with
//! `Int64` is checked integer arithmetic, every other numeric pair is `f64`;
//! `/` always yields `Float64` and a zero divisor is an error; numbers
//! compare as `f64` (a NaN orders `Equal`, so it satisfies `<=` and `>=`),
//! strings lexicographically, and any other mix is a type error; `NOT`,
//! `AND` and `OR` read NULL as false and short-circuit; an unknown column is
//! an error where it is reached.  Binary operators apply the very function
//! `Expr::eval` does (`expr::apply`) wherever an operand is boxed,
//! so there is no subset to fall out of: a program never refuses a shape.
//!
//! **Layout.** One `Load` per referenced column (its *slot*, in schema
//! order) comes first, so every register of a column is loaded whatever
//! branch runs; then the predicate's code and a `Filter`, if there is a
//! predicate; then the value's (a program without one yields `1.0`).  An
//! `AND`/`OR` is a `Guard` on its left side, the right side's code, and a
//! `Logic` that combines them.
//!
//! **Drivers.** [`Program::eval_row`] (and [`Program::eval_row_f64`], for an
//! aggregand) runs one row over `Value` registers: a bare column is one
//! load, two `Float64`s meet inline, and a `Guard` that decides jumps over
//! the right side.  [`Program::eval_block`] runs each instruction once per block
//! of rows over [`Lane`]s — typed `f64`/`i64`/`bool` slices (a column's are
//! borrowed), a broadcast constant, or boxed values — with NULLs as masks.
//!
//! **Errors and selections.** A block call takes the selection of rows it
//! evaluates and narrows it by the `Filter`; a `Guard` narrows it for the
//! right side to the rows the left side leaves undecided.  A call errors if
//! and only if some selected row would error under `Expr::eval` (reporting
//! that row's own error), and its output is only defined on selected rows.

use std::borrow::Cow;
use std::ops::Range;

use mcdbr_storage::{CmpOp, Column, ColumnData, Mask, Result, Schema, Value};

use crate::expr::{apply, BinaryOp, Expr};

/// One instruction; operands name earlier instructions' registers.
#[derive(Debug, Clone)]
enum Op {
    /// Slot `.0`'s input.
    Load(usize),
    Const(Value),
    /// An unknown column: an error on every row that reaches it.
    Fail(mcdbr_storage::Error),
    Not(usize),
    /// Any operator but `AND`/`OR`.
    Bin(BinaryOp, usize, usize),
    /// `lhs` as a boolean; where it equals `or`, the `Logic` at `end` is
    /// decided and the code between them is skipped.
    Guard {
        or: bool,
        lhs: usize,
        end: usize,
    },
    /// `AND` (`or` false) or `OR` of a `Guard`'s value and `rhs`.
    Logic {
        or: bool,
        guard: usize,
        rhs: usize,
    },
    /// Drop the row unless `.0` holds true.
    Filter(usize),
}

/// An optional predicate and a value, compiled against one schema (module
/// docs).  `Send + Sync`, so one program serves every thread of a call.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Vec<Op>,
    slots: Vec<usize>,
    out: usize,
}

impl Program {
    /// Compile `value` over the rows `predicate` keeps; `None` for the value
    /// yields `1.0` on every kept row.
    pub fn compile(schema: &Schema, predicate: Option<&Expr>, value: Option<&Expr>) -> Program {
        let mut slots: Vec<usize> = (predicate.into_iter().chain(value))
            .flat_map(Expr::referenced_columns)
            .filter_map(|col| schema.index_of(col).ok())
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let mut p = Program {
            ops: (0..slots.len()).map(Op::Load).collect(),
            slots,
            out: 0,
        };
        if let Some(pred) = predicate {
            let keep = p.emit(pred, schema);
            p.push(Op::Filter(keep));
        }
        p.out = match value {
            Some(v) => p.emit(v, schema),
            None => p.push(Op::Const(Value::Float64(1.0))),
        };
        p
    }

    fn push(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Append `e`'s code; returns the register holding its value.
    fn emit(&mut self, e: &Expr, schema: &Schema) -> usize {
        match e {
            Expr::Column(name) => match schema.index_of(name) {
                Ok(col) => self
                    .slots
                    .binary_search(&col)
                    .expect("every column is loaded"),
                Err(err) => self.push(Op::Fail(err)),
            },
            Expr::Literal(v) => self.push(Op::Const(v.clone())),
            Expr::Not(inner) => {
                let a = self.emit(inner, schema);
                self.push(Op::Not(a))
            }
            Expr::Binary { op, lhs, rhs } if matches!(op, BinaryOp::And | BinaryOp::Or) => {
                let or = *op == BinaryOp::Or;
                let lhs = self.emit(lhs, schema);
                let guard = self.push(Op::Guard { or, lhs, end: 0 });
                let rhs = self.emit(rhs, schema);
                let end = self.push(Op::Logic { or, guard, rhs });
                self.ops[guard] = Op::Guard { or, lhs, end };
                end
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.emit(lhs, schema);
                let b = self.emit(rhs, schema);
                self.push(Op::Bin(*op, a, b))
            }
        }
    }

    /// The schema column behind each slot, ascending: the inputs a driver
    /// asks for by slot.
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// Row driver: the value of the row whose slot `s` holds `load(s)`, or
    /// `None` when the predicate drops the row.
    #[inline(always)]
    pub fn eval_row(&self, load: impl Fn(usize) -> Value) -> Result<Option<Value>> {
        match self.ops[..] {
            // `SUM(col)`: one load, nothing to set up.
            [Op::Load(slot)] => Ok(Some(load(slot))),
            _ => self.run_row(&load),
        }
    }

    /// [`Program::eval_row`] read as `Value::as_f64` reads it: an aggregand.
    #[inline(always)]
    pub fn eval_row_f64(&self, load: impl Fn(usize) -> Value) -> Result<Option<f64>> {
        match self.ops[..] {
            [Op::Load(slot)] => load(slot).as_f64().map(Some),
            _ => self.run_row(&load)?.map(|v| v.as_f64()).transpose(),
        }
    }

    #[inline(never)]
    fn run_row(&self, load: &dyn Fn(usize) -> Value) -> Result<Option<Value>> {
        let mut inline: [Value; 16] = std::array::from_fn(|_| Value::Null);
        let mut heap = Vec::new();
        let regs: &mut [Value] = if self.ops.len() <= inline.len() {
            &mut inline
        } else {
            heap.resize(self.ops.len(), Value::Null);
            &mut heap
        };
        let mut pc = 0;
        while let Some(op) = self.ops.get(pc) {
            regs[pc] = match *op {
                Op::Load(slot) => load(slot),
                Op::Const(ref v) => v.clone(),
                Op::Fail(ref e) => return Err(e.clone()),
                Op::Not(a) => Value::Bool(!regs[a].as_bool()?),
                Op::Bin(op, a, b) => match (&regs[a], &regs[b]) {
                    (&Value::Float64(x), &Value::Float64(y)) if op != BinaryOp::Div || y != 0.0 => {
                        match op.cmp_op() {
                            Some(cmp) => Value::Bool(cmp.lane(x, y)),
                            None => Value::Float64(arith(op)(x, y)),
                        }
                    }
                    (l, r) => apply(op, l, r)?,
                },
                Op::Guard { or, lhs, end } => {
                    let b = regs[lhs].as_bool()?;
                    if b == or {
                        regs[pc] = Value::Bool(b);
                        pc = end;
                        continue;
                    }
                    Value::Bool(b)
                }
                Op::Logic { or, guard, rhs } => {
                    let l = regs[guard] == Value::Bool(true);
                    Value::Bool(if l == or { or } else { regs[rhs].as_bool()? })
                }
                Op::Filter(a) if regs[a].as_bool()? => Value::Null,
                Op::Filter(_) => return Ok(None),
            };
            pc += 1;
        }
        Ok(Some(std::mem::replace(&mut regs[self.out], Value::Null)))
    }

    /// Column driver over the `sel.len()` rows of a block, `input(s)` being
    /// slot `s`'s lane: the value lane, defined on the rows of `sel`, which
    /// the predicate narrows in place (module docs for errors).
    pub fn eval_block<'a>(
        &self,
        sel: &mut Mask,
        mut input: impl FnMut(usize) -> Result<Lane<'a>>,
    ) -> Result<Lane<'a>> {
        if let [Op::Load(slot)] = self.ops[..] {
            // `SUM(col)`: the input is the value.
            return input(slot);
        }
        let mut regs: Vec<Lane<'a>> = Vec::with_capacity(self.ops.len());
        // The selections `Guard`s narrowed, innermost last.
        let mut outer: Vec<Mask> = Vec::new();
        for op in &self.ops {
            let lane = match *op {
                Op::Load(slot) => input(slot)?,
                Op::Const(ref v) => Lane::constant(v.clone()),
                Op::Fail(ref e) if !sel.none() => return Err(e.clone()),
                Op::Fail(_) => Lane::constant(Value::Null),
                Op::Not(a) => Lane::flags(regs[a].bools(sel)?.iter().map(|b| !b).collect()),
                Op::Bin(op, a, b) => bin(op, &regs[a], &regs[b], sel)?,
                Op::Guard { or, lhs, .. } => {
                    let l = regs[lhs].bools(sel)?.into_owned();
                    outer.push(sel.clone());
                    let undecided: Vec<bool> = l.iter().map(|&b| b != or).collect();
                    sel.and_assign(&Mask::from_bools(&undecided));
                    Lane::flags(l)
                }
                Op::Logic { or, guard, rhs } => {
                    let r = regs[rhs].bools(sel)?;
                    let Rows::B(l) = &regs[guard].rows else {
                        unreachable!("a guard's register holds booleans")
                    };
                    let both = l.iter().zip(r.iter());
                    let lane = Lane::flags(
                        both.map(|(&l, &r)| if or { l || r } else { l && r })
                            .collect(),
                    );
                    *sel = outer.pop().expect("every logic closes a guard");
                    lane
                }
                Op::Filter(a) => {
                    let keep = Mask::from_bools(&regs[a].bools(sel)?);
                    sel.and_assign(&keep);
                    Lane::constant(Value::Null)
                }
            };
            regs.push(lane);
        }
        Ok(regs.swap_remove(self.out))
    }
}

impl BinaryOp {
    /// The lane comparison behind a comparison operator.
    fn cmp_op(self) -> Option<CmpOp> {
        Some(match self {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::NotEq => CmpOp::NotEq,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::LtEq => CmpOp::LtEq,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::GtEq => CmpOp::GtEq,
            _ => return None,
        })
    }
}

/// `f64` arithmetic for `+`, `-`, `*` and `/`.
fn arith(op: BinaryOp) -> fn(f64, f64) -> f64 {
    match op {
        BinaryOp::Add => |a, b| a + b,
        BinaryOp::Sub => |a, b| a - b,
        BinaryOp::Mul => |a, b| a * b,
        _ => |a, b| a / b,
    }
}

/// The first row of `sel` for which `bad` holds.
fn first(sel: &Mask, bad: impl Fn(usize) -> bool) -> Option<usize> {
    (0..sel.len()).find(|&i| sel.get(i) && bad(i))
}

/// One binary instruction over a block: numeric operands on typed loops
/// (errors found by a scan of the selection), anything else through
/// [`apply`] row by row over the selection.
fn bin(op: BinaryOp, a: &Lane<'_>, b: &Lane<'_>, sel: &Mask) -> Result<Lane<'static>> {
    let n = sel.len();
    let null = |i: usize| a.is_null(i) || b.is_null(i);
    let fail = |i: usize| Err(apply(op, &a.value_at(i), &b.value_at(i)).expect_err("row fails"));
    let checked = !matches!(op, BinaryOp::Div) && op.cmp_op().is_none();
    if let (true, Some(x), Some(y)) = (checked, a.ints(), b.ints()) {
        if let Some(i) = first(sel, null) {
            return fail(i);
        }
        let f: fn(i64, i64) -> (i64, bool) = match op {
            BinaryOp::Add => i64::overflowing_add,
            BinaryOp::Sub => i64::overflowing_sub,
            _ => i64::overflowing_mul,
        };
        let out = x.zip(&y, n, f);
        if let Some(i) = first(sel, |i| out[i].1) {
            return fail(i);
        }
        let ints = out.into_iter().map(|(v, _)| v).collect::<Vec<_>>();
        return Ok(Lane::of(Rows::I(ints.into())));
    }
    if let (Some(x), Some(y)) = (a.floats(), b.floats()) {
        if let Some(cmp) = op.cmp_op() {
            let mut out = x.zip(&y, n, |l, r| cmp.lane(l, r));
            if a.nulls.is_some() || b.nulls.is_some() {
                (0..n).filter(|&i| null(i)).for_each(|i| out[i] = false);
            }
            return Ok(Lane::flags(out));
        }
        let zero = |i: usize| op == BinaryOp::Div && y.at(i) == 0.0;
        if let Some(i) = first(sel, |i| null(i) || zero(i)) {
            return fail(i);
        }
        return Ok(Lane::of(Rows::F(x.zip(&y, n, arith(op)).into())));
    }
    let boxed = (0..n).map(|i| match sel.get(i) {
        true => apply(op, &a.value_at(i), &b.value_at(i)),
        false => Ok(Value::Null),
    });
    Ok(Lane::of(Rows::V(boxed.collect::<Result<Vec<_>>>()?.into())))
}

/// Per-row values of one type, or one value broadcast to every row.
pub(crate) enum Vals<'a, T: Clone> {
    Const(T),
    Rows(Cow<'a, [T]>),
}

impl<T: Copy> Vals<'_, T> {
    /// Row `i`'s value.
    pub(crate) fn at(&self, i: usize) -> T {
        match self {
            Vals::Const(c) => *c,
            Vals::Rows(v) => v[i],
        }
    }

    /// `f` over `n` row pairs of `self` and `other`.
    fn zip<R: Clone>(&self, other: &Vals<'_, T>, n: usize, f: impl Fn(T, T) -> R) -> Vec<R> {
        match (self, other) {
            (Vals::Const(a), Vals::Const(b)) => vec![f(*a, *b); n],
            (Vals::Const(a), Vals::Rows(b)) => b.iter().map(|&b| f(*a, b)).collect(),
            (Vals::Rows(a), Vals::Const(b)) => a.iter().map(|&a| f(a, *b)).collect(),
            (Vals::Rows(a), Vals::Rows(b)) => {
                a.iter().zip(b.iter()).map(|(&a, &b)| f(a, b)).collect()
            }
        }
    }
}

/// One register of the column driver: a value per row of the block.
#[derive(Debug, Clone)]
pub struct Lane<'a> {
    rows: Rows<'a>,
    /// Set bits are NULL rows; their typed entries are placeholders.
    nulls: Option<Mask>,
}

#[derive(Debug, Clone)]
enum Rows<'a> {
    F(Cow<'a, [f64]>),
    I(Cow<'a, [i64]>),
    B(Cow<'a, [bool]>),
    /// Boxed values: strings, mixed columns, results of boxed operands.
    V(Cow<'a, [Value]>),
    /// One value broadcast to every row.
    K(Value),
}

impl<'a> Lane<'a> {
    fn of(rows: Rows<'a>) -> Self {
        Lane { rows, nulls: None }
    }

    fn flags(values: Vec<bool>) -> Self {
        Lane::of(Rows::B(values.into()))
    }

    /// `v` on every row.
    pub fn constant(v: Value) -> Self {
        Lane::of(Rows::K(v))
    }

    /// Boxed per-row values.
    pub(crate) fn boxed(values: Vec<Value>) -> Self {
        Lane::of(Rows::V(values.into()))
    }

    /// The rows of `col`; a typed buffer is borrowed, strings are boxed.
    pub fn column(col: &'a Column) -> Self {
        Lane::column_range(col, 0..col.len())
    }

    /// The rows `range` of `col`, renumbered from 0; a typed buffer is
    /// borrowed, strings are boxed.
    pub fn column_range(col: &'a Column, range: Range<usize>) -> Self {
        let rows = match col.data() {
            ColumnData::Untyped => Rows::K(Value::Null),
            ColumnData::Float64(v) => Rows::F(Cow::Borrowed(&v[range.clone()])),
            ColumnData::Int64(v) => Rows::I(Cow::Borrowed(&v[range.clone()])),
            ColumnData::Bool(v) => Rows::B(Cow::Borrowed(&v[range.clone()])),
            ColumnData::Mixed(v) => Rows::V(Cow::Borrowed(&v[range.clone()])),
            ColumnData::Utf8(_) => Rows::V(range.clone().map(|i| col.value_at(i)).collect()),
        };
        let nulls = col.nulls().any().then(|| {
            let mut mask = Mask::default();
            mask.fill_with(range.len(), |i| col.nulls().get(range.start + i));
            mask
        });
        Lane { rows, nulls }
    }

    fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|m| m.get(i))
    }

    /// Row `i` as the value `Expr::eval` would produce there.
    pub fn value_at(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.rows {
            Rows::F(v) => Value::Float64(v[i]),
            Rows::I(v) => Value::Int64(v[i]),
            Rows::B(v) => Value::Bool(v[i]),
            Rows::V(v) => v[i].clone(),
            Rows::K(v) => v.clone(),
        }
    }

    /// The `Int64` rows, when every non-null row is one.
    fn ints(&self) -> Option<Vals<'_, i64>> {
        match &self.rows {
            Rows::I(v) => Some(Vals::Rows(Cow::Borrowed(v))),
            Rows::K(Value::Int64(c)) => Some(Vals::Const(*c)),
            _ => None,
        }
    }

    /// The rows widened as `Value::as_f64` does, when every non-null row is
    /// numeric.
    fn floats(&self) -> Option<Vals<'_, f64>> {
        Some(match &self.rows {
            Rows::F(v) => Vals::Rows(Cow::Borrowed(v)),
            Rows::I(v) => Vals::Rows(v.iter().map(|&x| x as f64).collect()),
            Rows::B(v) => Vals::Rows(v.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect()),
            Rows::K(c) if c.is_numeric() => Vals::Const(c.as_f64().ok()?),
            _ => return None,
        })
    }

    /// `f` of every selected row's value, `fill` elsewhere.
    fn per_row<T: Clone>(&self, sel: &Mask, fill: T, f: fn(&Value) -> Result<T>) -> Result<Vec<T>> {
        let row = |i| sel.get(i).then(|| f(&self.value_at(i)));
        (0..sel.len())
            .map(|i| row(i).unwrap_or(Ok(fill.clone())))
            .collect()
    }

    /// `Value::as_bool` of every selected row (false elsewhere).
    fn bools(&self, sel: &Mask) -> Result<Cow<'_, [bool]>> {
        match (&self.rows, &self.nulls) {
            (Rows::B(v), None) => Ok(Cow::Borrowed(v)),
            _ => self.per_row(sel, false, Value::as_bool).map(Cow::Owned),
        }
    }

    /// `Value::as_f64` of every selected row.
    pub(crate) fn f64s(&self, sel: &Mask) -> Result<Vals<'_, f64>> {
        let selected_null = self.nulls.as_ref().map(|m| first(sel, |i| m.get(i)));
        match self.floats() {
            Some(v) if selected_null.flatten().is_none() => Ok(v),
            _ => Ok(Vals::Rows(self.per_row(sel, 0.0, Value::as_f64)?.into())),
        }
    }

    /// The first `n` rows as a column, as `Column::push_value` would build
    /// it from their values.
    pub(crate) fn to_column(&self, n: usize) -> Column {
        let mut col = Column::default();
        match (&self.rows, &self.nulls) {
            (Rows::F(v), None) => v[..n].iter().for_each(|&x| col.push_f64(x)),
            _ => (0..n).for_each(|i| col.push_value(&self.value_at(i))),
        }
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_storage::{DataType, Field};

    fn f64_col(vals: &[f64]) -> Column {
        let mut c = Column::default();
        for &v in vals {
            c.push_f64(v);
        }
        c
    }

    /// The referee's row `i` of `cols`.
    fn row(cols: &[&Column], i: usize) -> Vec<Value> {
        cols.iter().map(|c| c.value_at(i)).collect()
    }

    #[test]
    fn column_predicates_match_the_evaluator_including_nan_and_null() {
        let s = Schema::new(vec![Field::float64("a"), Field::float64("b")]);
        let mut a = f64_col(&[1.0, f64::NAN, -2.0, 0.0]);
        a.push_null();
        let b = f64_col(&[0.5, 0.5, -2.0, f64::NAN, 3.0]);
        let (a_, b_) = (Expr::col("a"), Expr::col("b"));
        let exprs = [
            a_.clone().lt(b_.clone()),
            a_.clone().lt_eq(b_.clone()),
            a_.clone().eq(b_.clone()),
            a_.clone().not_eq(b_.clone()),
            a_.clone().gt_eq(Expr::lit(0.0)),
            (a_.clone().lt(Expr::lit(1.5))).and(b_.clone().gt(Expr::lit(-3.0))),
            (a_.clone()
                .gt(Expr::lit(0.0))
                .or(b_.clone().lt(Expr::lit(0.0))))
            .not(),
            a_.clone().eq(Expr::lit(Value::Null)),
        ];
        for expr in &exprs {
            let program = Program::compile(&s, Some(expr), None);
            let mut sel = Mask::ones(5);
            program
                .eval_block(&mut sel, |slot| Ok(Lane::column([&a, &b][slot])))
                .unwrap();
            for i in 0..5 {
                let want = expr.eval_bool(&s, &row(&[&a, &b], i)).unwrap();
                assert_eq!(sel.get(i), want, "{expr} row {i}");
            }
        }
    }

    #[test]
    fn arithmetic_errors_iff_a_selected_row_errors() {
        let s = Schema::new(vec![Field::float64("a"), Field::float64("b")]);
        let a = f64_col(&[2.0, 4.0, -1.0]);
        let z = f64_col(&[1.0, 0.0, 2.0]);
        let block = |expr: &Expr, b: &Column, sel: &[bool]| {
            let program = Program::compile(&s, None, Some(expr));
            let lanes = [&a, b];
            let lane = program.eval_block(&mut Mask::from_bools(sel), |slot| {
                Ok(Lane::column(lanes[slot]))
            })?;
            Ok::<_, mcdbr_storage::Error>((0..3).map(|i| lane.value_at(i)).collect::<Vec<_>>())
        };
        // (a * 2 + b / 4) matches the evaluator bit for bit.
        let expr = Expr::col("a")
            .mul(Expr::lit(2.0))
            .add(Expr::col("b").div(Expr::lit(4.0)));
        let got = block(&expr, &z, &[true; 3]).unwrap();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, expr.eval(&s, &row(&[&a, &z], i)).unwrap(), "row {i}");
        }
        // A zero divisor errors only where it is selected.
        let div = Expr::col("a").div(Expr::col("b"));
        let err = block(&div, &z, &[true; 3]).unwrap_err();
        assert_eq!(err, div.eval(&s, &row(&[&a, &z], 1)).unwrap_err());
        assert_eq!(
            block(&div, &z, &[true, false, true]).unwrap()[2],
            Value::Float64(-0.5)
        );
        // Int64 arithmetic is checked, and stays Int64.
        let (three, max) = (Expr::lit(3i64), Expr::lit(i64::MAX));
        assert_eq!(
            block(&three.clone().add(three.clone()), &z, &[true; 3]).unwrap()[0],
            Value::Int64(6)
        );
        assert!(block(&max.clone().add(three.clone()), &z, &[false, true, false]).is_err());
        assert!(block(&max.add(three), &z, &[false; 3]).is_ok());
        // A short-circuit keeps the right side off the rows it decides.
        let guarded = Expr::col("b")
            .not_eq(Expr::lit(0.0))
            .and(div.gt(Expr::lit(0.0)));
        assert_eq!(
            block(&guarded, &z, &[true; 3]).unwrap()[1],
            Value::Bool(false)
        );
    }

    #[test]
    fn row_driver_returns_the_evaluators_value_or_error() {
        let schema = Schema::new(vec![
            Field::float64("a"),
            Field::float64("b"),
            Field::int64("k"),
            Field::utf8("s"),
            Field::new("n", DataType::Float64),
        ]);
        let mut col = f64_col(&[
            1.0,
            -2.5,
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        col.push_null();
        let (a, b, k) = (Expr::col("a"), Expr::col("b"), Expr::col("k"));
        let lit = |x: f64| Expr::lit(x);
        let cases: Vec<(Option<Expr>, Option<Expr>)> = vec![
            (None, None),
            (None, Some(a.clone())),
            (None, Some(a.clone().add(b.clone()))),
            (None, Some(a.clone().div(b.clone()))),
            (None, Some(a.clone().mul(Expr::lit(2i64)))),
            (None, Some(Expr::lit(3i64).div(k.clone()))),
            (None, Some(k.clone().add(Expr::lit(i64::MAX)))),
            (None, Some(a.clone().lt(b.clone()))),
            (
                Some(a.clone().gt(b.clone())),
                Some(a.clone().sub(b.clone())),
            ),
            (
                Some(a.clone().lt_eq(b.clone()).not()),
                Some(k.clone().mul(b.clone())),
            ),
            (
                Some(Expr::lit(false).and(a.clone().div(b.clone()).gt(lit(1.0)))),
                Some(a.clone()),
            ),
            (
                Some(
                    a.clone()
                        .eq(a.clone())
                        .or(b.clone().div(a.clone()).gt(lit(1.0))),
                ),
                Some(b.clone()),
            ),
            (Some(Expr::col("s").eq(Expr::lit("x"))), Some(a.clone())),
            (None, Some(Expr::col("n").add(a.clone()))),
            (Some(a.clone()), Some(b.clone())),
            (None, Some(Expr::col("missing"))),
        ];
        for (pred, value) in &cases {
            let program = Program::compile(&schema, pred.as_ref(), value.as_ref());
            for k in [Value::Int64(3), Value::Int64(0)] {
                for i in 0..col.len() {
                    for j in 0..col.len() {
                        let row = [
                            col.value_at(i),
                            col.value_at(j),
                            k.clone(),
                            Value::str("x"),
                            Value::Null,
                        ];
                        let got = program.eval_row(|slot| row[program.slots()[slot]].clone());
                        let want = (|| match pred {
                            Some(p) if !p.eval_bool(&schema, &row)? => Ok(None),
                            _ => value
                                .as_ref()
                                .map_or(Ok(Value::Float64(1.0)), |v| v.eval(&schema, &row))
                                .map(Some),
                        })();
                        let same = match (&got, &want) {
                            (Ok(Some(Value::Float64(x))), Ok(Some(Value::Float64(y)))) => {
                                x.to_bits() == y.to_bits()
                            }
                            (x, y) => x == y,
                        };
                        assert!(same, "{pred:?} {value:?} row {row:?}: {got:?} vs {want:?}");
                    }
                }
            }
        }
    }
}
