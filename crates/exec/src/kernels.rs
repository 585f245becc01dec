//! Compiled expression kernels: column-at-a-time for phase 2, row-at-a-time
//! for the Gibbs looper.
//!
//! The scalar evaluator in [`crate::expr`] is the semantic referee: it
//! defines NaN/null conventions, error cases, and `Int64` overflow checking.
//! This module compiles the *error-free subset* of those semantics into
//! three forms — packed-bitmap predicate masks, `f64` value lanes, and
//! [`RowProgram`]s — and **refuses** (returns `None`) whenever the scalar path
//! could error or take a type-dependent branch the kernels do not model.
//! A `None` simply routes the caller to the retained scalar loop, so the
//! vectorized path is bit-identical to the scalar path wherever it engages:
//!
//! * Comparisons lower to [`CmpOp`] lanes, which mirror `partial_cmp`-with-
//!   `Equal`-fallback for orderings and IEEE equality for `=`/`<>`.
//! * A null operand makes any comparison false; null bitmaps are applied
//!   with one `and_not` per side, after the branchless compare.
//! * `And`/`Or`/`Not` combine masks word-at-a-time.  The scalar evaluator
//!   short-circuits, but every operand this module agrees to compile is
//!   pure and error-free on all rows, so eager evaluation is equivalent.
//! * Arithmetic vectorizes as `f64` only when the scalar path would have
//!   produced `Float64` on every row: both-`Int64` operands (the checked
//!   integer path), nullable lanes (scalar errors on `Null` arithmetic),
//!   and zero divisors (scalar errors) all decline.
//!
//! A [`RowProgram`] compiles a predicate and an aggregand into flat,
//! eagerly evaluated programs over `f64` slots, one row at a time.  Its
//! refusal is the **punt rule**: a declined subexpression compiles to an
//! instruction that punts, as does, at run time, a null, an input not of
//! its field's type, or a zero divisor (even one a short-circuit would skip);
//! a punted row is re-evaluated by [`Expr::eval`], value or error.
//!
//! The global [`KernelMode`] lets tests and benches force the scalar path
//! (every `RowProgram` row punts); both modes produce identical bundles,
//! so flipping it mid-flight only affects speed, never results.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

use mcdbr_storage::selvec::{cmp_const_f64, cmp_f64_const, cmp_f64_f64};
use mcdbr_storage::{CmpOp, Column, DataType, Mask, Result, Schema, Value};

use crate::bundle::BundleValue;
use crate::expr::{BinaryOp, Expr};

/// Whether phase 2 may use the vectorized kernels or must take the scalar
/// row loop.  Process-wide, because the ablation benches and determinism
/// tests compare whole executions under each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Vectorize wherever the compiled subset covers the expression
    /// (the default); fall back to the scalar loop elsewhere.
    Auto,
    /// Always take the scalar loop — the referee configuration.
    ForceScalar,
}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process-wide kernel mode.  Safe to flip at any point: both modes
/// produce bit-identical results (the determinism suite pins this), so the
/// switch only selects an implementation.
pub fn set_kernel_mode(mode: KernelMode) {
    KERNEL_MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current process-wide kernel mode.
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        0 => KernelMode::Auto,
        _ => KernelMode::ForceScalar,
    }
}

pub(crate) fn vectorized_enabled() -> bool {
    kernel_mode() == KernelMode::Auto
}

/// The kernel mode is process-global; tests that read or flip it take this
/// lock so the parallel test runner cannot interleave them.
#[cfg(test)]
pub(crate) static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One input lane of an expression: a per-row column or a broadcast
/// constant, positionally matching the expression's schema.
#[derive(Clone, Copy)]
pub enum Lane<'a> {
    /// Every row sees this one value (a bundle constant).
    Const(&'a Value),
    /// Per-row values backed by a column.
    Col(&'a Column),
}

/// A numeric value lane: per-row `f64`s (borrowed straight from a `Float64`
/// column, or widened/computed into a scratch vector) or one broadcast
/// constant, plus the positions that are SQL NULL.
enum FVals<'a> {
    Const(f64),
    Slice(&'a [f64]),
    Owned(Vec<f64>),
}

struct NumLane<'a> {
    vals: FVals<'a>,
    /// Set bits are NULL rows (their `vals` entries are placeholders).
    /// `None` means null-free.  Only comparison consumers accept nulls.
    nulls: Option<Mask>,
}

impl NumLane<'_> {
    fn slice(&self) -> Option<&[f64]> {
        match &self.vals {
            FVals::Const(_) => None,
            FVals::Slice(s) => Some(s),
            FVals::Owned(v) => Some(v),
        }
    }
}

/// Compile + evaluate `expr` as a predicate over `n` rows, producing a
/// packed mask, or `None` when the expression leaves the vectorizable
/// subset (caller falls back to the scalar row loop).  `lanes[i]` backs
/// `schema` column `i`.
pub fn predicate_mask(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>], n: usize) -> Option<Mask> {
    if !vectorized_enabled() {
        return None;
    }
    eval_bool(expr, schema, lanes, n)
}

/// Compile + evaluate `expr` as a per-row value column.  Engages only when
/// the root guarantees a fixed output type on every row — `Float64` for
/// vectorized arithmetic, `Bool` for predicates — so the produced values
/// are exactly what the scalar evaluator would box.
pub fn computed_column(
    expr: &Expr,
    schema: &Schema,
    lanes: &[Lane<'_>],
    n: usize,
) -> Option<Column> {
    if !vectorized_enabled() {
        return None;
    }
    match expr {
        Expr::Binary { op, .. } if op.is_arithmetic() => {
            let lane = eval_num(expr, schema, lanes, n, false)?;
            let mut col = Column::default();
            match &lane.vals {
                FVals::Const(c) => {
                    for _ in 0..n {
                        col.push_f64(*c);
                    }
                }
                FVals::Slice(s) => {
                    for &v in *s {
                        col.push_f64(v);
                    }
                }
                FVals::Owned(v) => {
                    for &v in v {
                        col.push_f64(v);
                    }
                }
            }
            Some(col)
        }
        Expr::Not(_) => mask_to_bool_column(eval_bool(expr, schema, lanes, n)?, n),
        Expr::Binary { op, .. } if op.is_comparison() || op.is_logical() => {
            mask_to_bool_column(eval_bool(expr, schema, lanes, n)?, n)
        }
        _ => None,
    }
}

/// A compiled numeric lane: one broadcast constant (`COUNT(*)`'s `lit(1)`
/// never materializes a per-repetition vector) or per-row `f64`s.
pub enum NumVals {
    /// One value broadcast to every row.
    Const(f64),
    /// Per-row values.
    Col(Vec<f64>),
}

/// Compile + evaluate `expr` as null-free per-row numerics (the aggregand
/// path: the scalar referee is `expr.eval(..)?.as_f64()`).  Boolean roots
/// widen to `1.0`/`0.0` exactly like [`Value::as_f64`] — but only roots
/// guaranteed to produce `Bool` on every row (`NOT`, comparisons,
/// `AND`/`OR`).  A bare `Bool` column root must go through `eval_num`
/// instead: `eval_bool` maps null rows to `false` (the `as_bool`
/// convention), while `as_f64(Null)` errors, so compiling one here would
/// diverge from the scalar path.
pub fn numeric_values(
    expr: &Expr,
    schema: &Schema,
    lanes: &[Lane<'_>],
    n: usize,
) -> Option<NumVals> {
    if !vectorized_enabled() {
        return None;
    }
    if let Some(lane) = eval_num(expr, schema, lanes, n, false) {
        return Some(match lane.vals {
            FVals::Const(c) => NumVals::Const(c),
            FVals::Slice(s) => NumVals::Col(s.to_vec()),
            FVals::Owned(v) => NumVals::Col(v),
        });
    }
    let bool_root = matches!(expr, Expr::Not(_))
        || matches!(expr, Expr::Binary { op, .. } if op.is_comparison() || op.is_logical());
    if !bool_root {
        return None;
    }
    let mask = eval_bool(expr, schema, lanes, n)?;
    Some(NumVals::Col(
        (0..n)
            .map(|i| if mask.get(i) { 1.0 } else { 0.0 })
            .collect(),
    ))
}

fn mask_to_bool_column(mask: Mask, n: usize) -> Option<Column> {
    let mut col = Column::default();
    for i in 0..n {
        col.push_bool(mask.get(i));
    }
    Some(col)
}

/// A row-program instruction; operands index earlier instructions.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Slot `.0`; a null, or a value not of type `.1`, punts.
    Load(usize, DataType),
    Const(f64),
    /// Arithmetic (a zero divisor punts), a comparison, `AND` or `OR`.
    Bin(BinaryOp, usize, usize),
    Not(usize),
    /// Reject the row unless `.0` holds true.
    Filter(usize),
    /// The subexpression leaves the compiled subset.
    Punt,
}

/// Longest row program (longer ones punt).
const MAX_OPS: usize = 16;

/// A final predicate and an aggregand compiled into one row program over
/// schema slots: the Gibbs looper's per-bundle evaluator (module docs).
#[derive(Debug)]
pub struct RowProgram {
    schema: Schema,
    predicate: Option<Expr>,
    value: Option<Expr>,
    slots: Vec<usize>,
    /// The predicate's code and a `Filter`, then the aggregand's.
    code: Vec<Op>,
    punted: Cell<u64>,
}

impl RowProgram {
    /// Compile against `schema`; a `None` aggregand makes an accepted row
    /// count `1.0`.  Under [`KernelMode::ForceScalar`] every row punts.
    pub fn compile(schema: &Schema, value: Option<&Expr>, predicate: Option<&Expr>) -> Self {
        let mut slots: Vec<usize> = (predicate.into_iter().chain(value))
            .flat_map(Expr::referenced_columns)
            .filter_map(|col| schema.index_of(col).ok())
            .collect();
        slots.sort_unstable();
        slots.dedup();
        // A declined expression ends in a `Punt`; ops it left before that
        // are pure and at most punt earlier.
        let mut code = Vec::new();
        if let Some(p) = predicate {
            let filter = match emit(p, schema, &slots, &mut code) {
                Some((r, DataType::Bool)) => Op::Filter(r),
                _ => Op::Punt,
            };
            code.push(filter);
        }
        match value {
            Some(v) if emit(v, schema, &slots, &mut code).is_some() => {}
            Some(_) => code.push(Op::Punt),
            None => code.push(Op::Const(1.0)),
        }
        if !vectorized_enabled() || code.len() > MAX_OPS {
            code = vec![Op::Punt];
        }
        RowProgram {
            schema: schema.clone(),
            predicate: predicate.cloned(),
            value: value.cloned(),
            slots,
            code,
            punted: Cell::new(0),
        }
    }

    /// The schema column behind each slot: `input(slot)` in [`Self::eval`]
    /// is the row's attribute there and its offset into a random one's chain.
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// One row's aggregand, `None` if the predicate rejects it.
    #[inline]
    pub fn eval<'a>(
        &self,
        input: impl Fn(usize) -> (&'a BundleValue, usize),
    ) -> Result<Option<f64>> {
        run(&self.code, &input).map_or_else(|| self.punt(&input), Ok)
    }

    /// Rows punted so far.
    pub fn punted(&self) -> u64 {
        self.punted.get()
    }

    /// [`Expr::eval`] over a row holding the slots' values.
    #[cold]
    #[inline(never)]
    fn punt<'a>(&self, input: &dyn Fn(usize) -> (&'a BundleValue, usize)) -> Result<Option<f64>> {
        self.punted.set(self.punted.get() + 1);
        let mut row = vec![Value::Null; self.schema.len()];
        for (slot, &col) in self.slots.iter().enumerate() {
            let (value, off) = input(slot);
            row[col] = value.value_at(off);
        }
        if let Some(p) = &self.predicate {
            if !p.eval_bool(&self.schema, &row)? {
                return Ok(None);
            }
        }
        Ok(Some(match &self.value {
            Some(v) => v.eval_f64(&self.schema, &row)?,
            None => 1.0,
        }))
    }
}

/// Append `e`'s code: its result's index and the type `Expr::eval` boxes, or
/// `None` for `Utf8`/`NULL`, an error on every row, or checked `Int64` math.
fn emit(e: &Expr, schema: &Schema, cols: &[usize], ops: &mut Vec<Op>) -> Option<(usize, DataType)> {
    use DataType::{Bool, Float64, Int64};
    let (op, ty) = match e {
        Expr::Literal(v) => (Op::Const(v.as_f64().ok()?), v.data_type()),
        Expr::Column(name) => {
            let col = schema.index_of(name).ok()?;
            let ty = schema.field(col).data_type;
            if !matches!(ty, Float64 | Int64 | Bool) {
                return None;
            }
            (Op::Load(cols.iter().position(|&c| c == col)?, ty), ty)
        }
        Expr::Not(inner) => match emit(inner, schema, cols, ops)? {
            (a, Bool) => (Op::Not(a), Bool),
            _ => return None,
        },
        Expr::Binary { op, lhs, rhs } => {
            let (a, l) = emit(lhs, schema, cols, ops)?;
            let (b, r) = emit(rhs, schema, cols, ops)?;
            let ty = match op {
                BinaryOp::And | BinaryOp::Or if (l, r) != (Bool, Bool) => return None,
                // Division always yields Float64; the rest check i64 overflow.
                BinaryOp::Div => Float64,
                _ if op.is_arithmetic() && (l, r) == (Int64, Int64) => return None,
                _ if op.is_arithmetic() => Float64,
                _ => Bool,
            };
            (Op::Bin(*op, a, b), ty)
        }
    };
    ops.push(op);
    Some((ops.len() - 1, ty))
}

/// Run `code` on one row: `None` is a punt, `Some(None)` a rejected row.
#[inline(always)]
fn run<'a>(code: &[Op], input: &impl Fn(usize) -> (&'a BundleValue, usize)) -> Option<Option<f64>> {
    #[inline(always)]
    fn load((value, off): (&BundleValue, usize), ty: DataType) -> Option<f64> {
        if let (BundleValue::Random { values, .. }, DataType::Float64) = (value, ty) {
            return values.f64_at(off);
        }
        let v = value.value_at(off);
        v.as_f64().ok().filter(|_| v.data_type() == ty)
    }
    // `SUM(col)`: nothing to set up.
    if let [Op::Load(slot, ty)] = *code {
        return load(input(slot), ty).map(Some);
    }
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let mut regs = [0.0f64; MAX_OPS];
    for (i, &op) in code.iter().enumerate() {
        regs[i] = match op {
            Op::Load(slot, ty) => load(input(slot), ty)?,
            Op::Const(x) => x,
            Op::Not(a) => flag(regs[a] == 0.0),
            Op::Filter(a) if regs[a] == 0.0 => return Some(None),
            Op::Filter(_) => 1.0,
            Op::Punt => return None,
            Op::Bin(op, a, b) => {
                let (a, b) = (regs[a], regs[b]);
                match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    BinaryOp::Mul => a * b,
                    BinaryOp::Div if b == 0.0 => return None,
                    BinaryOp::Div => a / b,
                    BinaryOp::And => flag(a != 0.0 && b != 0.0),
                    BinaryOp::Or => flag(a != 0.0 || b != 0.0),
                    cmp => flag(cmp.cmp_op().is_some_and(|c| c.lane(a, b))),
                }
            }
        };
    }
    Some(Some(regs[code.len() - 1]))
}

impl BinaryOp {
    fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div
        )
    }

    fn is_comparison(self) -> bool {
        self.cmp_op().is_some()
    }

    fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

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

/// Resolve a `Column` reference to its lane, or bail on unknown names
/// (scalar will produce the error).
fn lane_of<'a>(name: &str, schema: &Schema, lanes: &'a [Lane<'a>]) -> Option<Lane<'a>> {
    let idx = schema.index_of(name).ok()?;
    lanes.get(idx).copied()
}

/// True when the scalar evaluator could see `Value::Int64` from this node —
/// the condition under which binary arithmetic takes the checked-integer
/// path instead of `Float64`.
fn could_be_int64(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>]) -> bool {
    match expr {
        Expr::Literal(v) => matches!(v, Value::Int64(_)),
        Expr::Column(name) => match lane_of(name, schema, lanes) {
            Some(Lane::Const(v)) => matches!(v, Value::Int64(_)),
            Some(Lane::Col(col)) => !matches!(
                col.data_type(),
                Some(DataType::Float64) | Some(DataType::Bool)
            ),
            None => true,
        },
        // Vectorized arithmetic sub-nodes produce Float64 on every row (the
        // both-Int64 case declines below), comparisons produce Bool; other
        // shapes decline in `eval_num` anyway.
        Expr::Binary { op, .. } => !op.is_arithmetic() && !op.is_comparison(),
        Expr::Not(_) => false,
    }
}

/// True when the node is SQL NULL on every row (a comparison against it is
/// false everywhere; arithmetic over it errors, so only `eval_bool`'s
/// comparison arm consults this).
fn always_null(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>]) -> bool {
    match expr {
        Expr::Literal(Value::Null) => true,
        Expr::Column(name) => {
            matches!(lane_of(name, schema, lanes), Some(Lane::Const(Value::Null)))
        }
        _ => false,
    }
}

/// Evaluate a numeric sub-expression into an `f64` lane.  `allow_nulls`
/// is true only for direct comparison operands (a comparison maps null
/// rows to false); arithmetic over a nullable lane declines, because the
/// scalar path errors on the first null row.
fn eval_num<'a>(
    expr: &Expr,
    schema: &Schema,
    lanes: &'a [Lane<'a>],
    n: usize,
    allow_nulls: bool,
) -> Option<NumLane<'a>> {
    let lane = match expr {
        Expr::Literal(v) => NumLane {
            vals: FVals::Const(v.as_f64().ok()?),
            nulls: None,
        },
        Expr::Column(name) => match lane_of(name, schema, lanes)? {
            Lane::Const(v) => NumLane {
                vals: FVals::Const(v.as_f64().ok()?),
                nulls: None,
            },
            Lane::Col(col) => {
                if col.len() != n {
                    return None;
                }
                let nulls = if col.nulls().any() {
                    Some(col.null_mask())
                } else {
                    None
                };
                let vals = match col.data_type()? {
                    DataType::Float64 => FVals::Slice(col.f64_raw()?),
                    // Null placeholders widen to 0.0 under the mask.
                    DataType::Int64 => {
                        FVals::Owned(col.i64_raw()?.iter().map(|&i| i as f64).collect())
                    }
                    DataType::Bool => FVals::Owned(
                        col.bool_raw()?
                            .iter()
                            .map(|&b| if b { 1.0 } else { 0.0 })
                            .collect(),
                    ),
                    _ => return None,
                };
                NumLane { vals, nulls }
            }
        },
        Expr::Binary { op, lhs, rhs } if op.is_arithmetic() => {
            // Both-Int64 would take the scalar checked-integer path.
            if could_be_int64(lhs, schema, lanes) && could_be_int64(rhs, schema, lanes) {
                return None;
            }
            let l = eval_num(lhs, schema, lanes, n, false)?;
            let r = eval_num(rhs, schema, lanes, n, false)?;
            if *op == BinaryOp::Div {
                // Scalar errors on any zero divisor; let it.
                let any_zero = match &r.vals {
                    FVals::Const(c) => *c == 0.0,
                    FVals::Slice(s) => s.contains(&0.0),
                    FVals::Owned(v) => v.contains(&0.0),
                };
                if any_zero {
                    return None;
                }
            }
            let f = match op {
                BinaryOp::Add => |a: f64, b: f64| a + b,
                BinaryOp::Sub => |a: f64, b: f64| a - b,
                BinaryOp::Mul => |a: f64, b: f64| a * b,
                BinaryOp::Div => |a: f64, b: f64| a / b,
                _ => unreachable!("is_arithmetic"),
            };
            let vals = match (&l.vals, &r.vals) {
                (FVals::Const(a), FVals::Const(b)) => FVals::Const(f(*a, *b)),
                (FVals::Const(a), _) => {
                    let rs = r.slice().expect("non-const lane has rows");
                    FVals::Owned(rs.iter().map(|&b| f(*a, b)).collect())
                }
                (_, FVals::Const(b)) => {
                    let ls = l.slice().expect("non-const lane has rows");
                    FVals::Owned(ls.iter().map(|&a| f(a, *b)).collect())
                }
                (_, _) => {
                    let ls = l.slice().expect("non-const lane has rows");
                    let rs = r.slice().expect("non-const lane has rows");
                    if ls.len() != rs.len() {
                        return None;
                    }
                    FVals::Owned(ls.iter().zip(rs).map(|(&a, &b)| f(a, b)).collect())
                }
            };
            NumLane { vals, nulls: None }
        }
        _ => return None,
    };
    if !allow_nulls && lane.nulls.is_some() {
        return None;
    }
    Some(lane)
}

/// Evaluate a boolean sub-expression into a packed mask, or decline.
fn eval_bool(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>], n: usize) -> Option<Mask> {
    match expr {
        Expr::Literal(Value::Bool(b)) => Some(if *b { Mask::ones(n) } else { Mask::zeros(n) }),
        // `as_bool(Null)` is false, not an error.
        Expr::Literal(Value::Null) => Some(Mask::zeros(n)),
        Expr::Literal(_) => None,
        Expr::Column(name) => match lane_of(name, schema, lanes)? {
            Lane::Const(Value::Bool(b)) => Some(if *b { Mask::ones(n) } else { Mask::zeros(n) }),
            Lane::Const(Value::Null) => Some(Mask::zeros(n)),
            Lane::Const(_) => None,
            Lane::Col(col) => {
                if col.len() != n {
                    return None;
                }
                match col.data_type() {
                    // Null rows hold the `false` placeholder, which is what
                    // `as_bool(Null)` evaluates to — no mask-off needed.
                    Some(DataType::Bool) => Some(Mask::from_bools(col.bool_raw()?)),
                    // An untyped column of n rows is all-null.
                    None if !matches!(col.data(), mcdbr_storage::ColumnData::Mixed(_)) => {
                        Some(Mask::zeros(n))
                    }
                    _ => None,
                }
            }
        },
        Expr::Not(inner) => {
            let mut m = eval_bool(inner, schema, lanes, n)?;
            m.not_assign();
            Some(m)
        }
        Expr::Binary { op, lhs, rhs } => {
            if let Some(cmp) = op.cmp_op() {
                // A null side makes every row false under all six operators
                // (sql_eq and the ordering prelude both test nulls first).
                if always_null(lhs, schema, lanes) || always_null(rhs, schema, lanes) {
                    return Some(Mask::zeros(n));
                }
                let l = eval_num(lhs, schema, lanes, n, true)?;
                let r = eval_num(rhs, schema, lanes, n, true)?;
                let mut m = Mask::default();
                match (&l.vals, &r.vals) {
                    (FVals::Const(a), FVals::Const(b)) => {
                        m = if cmp.lane(*a, *b) {
                            Mask::ones(n)
                        } else {
                            Mask::zeros(n)
                        };
                    }
                    (FVals::Const(a), _) => {
                        cmp_const_f64(cmp, *a, r.slice().expect("rows"), &mut m)
                    }
                    (_, FVals::Const(b)) => {
                        cmp_f64_const(cmp, l.slice().expect("rows"), *b, &mut m)
                    }
                    (_, _) => {
                        let ls = l.slice().expect("rows");
                        let rs = r.slice().expect("rows");
                        if ls.len() != rs.len() {
                            return None;
                        }
                        cmp_f64_f64(cmp, ls, rs, &mut m);
                    }
                }
                if let Some(ln) = &l.nulls {
                    m.and_not_assign(ln);
                }
                if let Some(rn) = &r.nulls {
                    m.and_not_assign(rn);
                }
                return Some(m);
            }
            match op {
                // Both operands compile => both are pure and error-free on
                // every row, so the scalar short-circuit is unobservable.
                BinaryOp::And => {
                    let mut l = eval_bool(lhs, schema, lanes, n)?;
                    let r = eval_bool(rhs, schema, lanes, n)?;
                    l.and_assign(&r);
                    Some(l)
                }
                BinaryOp::Or => {
                    let mut l = eval_bool(lhs, schema, lanes, n)?;
                    let r = eval_bool(rhs, schema, lanes, n)?;
                    l.or_assign(&r);
                    Some(l)
                }
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ValueChain;
    use mcdbr_storage::Field;

    fn schema(names: &[&str]) -> Schema {
        Schema::new(
            names
                .iter()
                .map(|&n| Field::new(n, DataType::Float64))
                .collect(),
        )
    }

    fn f64_col(vals: &[f64]) -> Column {
        let mut c = Column::default();
        for &v in vals {
            c.push_f64(v);
        }
        c
    }

    /// The scalar referee: evaluate the expression row-wise.
    fn scalar_mask(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>], n: usize) -> Vec<bool> {
        (0..n)
            .map(|i| {
                let row: Vec<Value> = lanes
                    .iter()
                    .map(|l| match l {
                        Lane::Const(v) => (*v).clone(),
                        Lane::Col(c) => c.value_at(i),
                    })
                    .collect();
                expr.eval_bool(schema, &row).unwrap()
            })
            .collect()
    }

    #[test]
    fn vectorized_predicates_match_scalar_including_nan_and_null() {
        let _guard = MODE_LOCK.lock().unwrap();
        let s = schema(&["a", "b"]);
        let mut a = Column::default();
        for v in [1.0, f64::NAN, -2.0, 0.0] {
            a.push_f64(v);
        }
        a.push_null();
        let b = f64_col(&[0.5, 0.5, -2.0, f64::NAN, 3.0]);
        let lanes = [Lane::Col(&a), Lane::Col(&b)];
        let exprs = [
            Expr::col("a").lt(Expr::col("b")),
            Expr::col("a").lt_eq(Expr::col("b")),
            Expr::col("a").eq(Expr::col("b")),
            Expr::col("a").not_eq(Expr::col("b")),
            Expr::col("a").gt_eq(Expr::lit(Value::Float64(0.0))),
            Expr::col("a")
                .lt(Expr::lit(Value::Float64(1.5)))
                .and(Expr::col("b").gt(Expr::lit(Value::Float64(-3.0)))),
            Expr::col("a")
                .gt(Expr::lit(Value::Float64(0.0)))
                .or(Expr::col("b").lt(Expr::lit(Value::Float64(0.0))))
                .not(),
            Expr::col("a").eq(Expr::lit(Value::Null)),
        ];
        for expr in &exprs {
            let mask = predicate_mask(expr, &s, &lanes, 5).expect("in the vectorized subset");
            let want = scalar_mask(expr, &s, &lanes, 5);
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(mask.get(i), w, "{expr} row {i}");
            }
        }
    }

    #[test]
    fn arithmetic_compiles_only_when_scalar_is_float_and_error_free() {
        let _guard = MODE_LOCK.lock().unwrap();
        let s = schema(&["a", "b"]);
        let a = f64_col(&[2.0, 4.0, -1.0]);
        let b = f64_col(&[1.0, 0.5, 2.0]);
        let lanes = [Lane::Col(&a), Lane::Col(&b)];
        // (a * 2 + b / 4) compiles and matches scalar bit-for-bit.
        let expr = Expr::col("a")
            .mul(Expr::lit(Value::Float64(2.0)))
            .add(Expr::col("b").div(Expr::lit(Value::Float64(4.0))));
        let col = computed_column(&expr, &s, &lanes, 3).expect("vectorizable");
        for i in 0..3 {
            let row = [a.value_at(i), b.value_at(i)];
            assert_eq!(col.value_at(i), expr.eval(&s, &row).unwrap(), "row {i}");
        }
        // Division by a lane containing zero declines (scalar errors).
        let z = f64_col(&[1.0, 0.0, 2.0]);
        let zl = [Lane::Col(&a), Lane::Col(&z)];
        assert!(computed_column(&Expr::col("a").div(Expr::col("b")), &s, &zl, 3).is_none());
        // Int64 literals on both sides would take the checked-int path.
        let ii = Expr::lit(Value::Int64(3)).add(Expr::lit(Value::Int64(4)));
        assert!(computed_column(&ii, &s, &lanes, 3).is_none());
    }

    #[test]
    fn force_scalar_mode_disables_compilation() {
        let _guard = MODE_LOCK.lock().unwrap();
        let s = schema(&["a"]);
        let a = f64_col(&[1.0, 2.0]);
        let lanes = [Lane::Col(&a)];
        let expr = Expr::col("a").gt(Expr::lit(Value::Float64(1.5)));
        set_kernel_mode(KernelMode::ForceScalar);
        assert!(predicate_mask(&expr, &s, &lanes, 2).is_none());
        set_kernel_mode(KernelMode::Auto);
        assert!(predicate_mask(&expr, &s, &lanes, 2).is_some());
    }

    #[test]
    fn row_programs_return_the_scalar_evaluators_value_or_error() {
        let _guard = MODE_LOCK.lock().unwrap();
        let schema = Schema::new(vec![
            Field::float64("a"),
            Field::float64("b"),
            Field::int64("k"),
            Field::utf8("s"),
            Field::float64("n"),
        ]);
        // Specials, a null, then seeded values in [-4, 4).
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
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..6 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            col.push_f64((state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0);
        }
        let positions = col.len();
        let random = BundleValue::Random {
            seed: 1,
            vg_row: 0,
            vg_col: 0,
            base_pos: 0,
            values: ValueChain::from_column(col),
        };
        let (a, b, k) = (Expr::col("a"), Expr::col("b"), Expr::col("k"));
        let lit = |x: f64| Expr::lit(x);
        // (predicate, aggregand, every row must punt)
        let cases: Vec<(Option<Expr>, Option<Expr>, bool)> = vec![
            (None, None, false),
            (None, Some(a.clone()), false),
            (None, Some(a.clone().add(b.clone())), false),
            (None, Some(a.clone().div(b.clone())), false),
            (None, Some(a.clone().mul(Expr::lit(2i64))), false),
            (None, Some(b.clone().div(k.clone())), false),
            (None, Some(Expr::lit(3i64).div(k.clone())), false),
            (None, Some(a.clone().lt(b.clone())), false),
            (
                Some(a.clone().gt(b.clone())),
                Some(a.clone().sub(b.clone())),
                false,
            ),
            (
                Some(a.clone().lt_eq(b.clone()).not()),
                Some(k.clone().mul(b.clone())),
                false,
            ),
            (
                Some(a.clone().eq(b.clone()).or(a.clone().not_eq(b.clone()))),
                None,
                false,
            ),
            (Some(k.clone().gt_eq(a.clone())), None, false),
            // Zero divisors (b, then a, is ±0.0 on some rows) only on the side
            // the scalar evaluator never reaches on them.
            (
                Some(Expr::lit(false).and(a.clone().div(b.clone()).gt(lit(1.0)))),
                Some(a.clone()),
                false,
            ),
            (
                Some(
                    a.clone()
                        .eq(a.clone())
                        .or(b.clone().div(a.clone()).gt(lit(1.0))),
                ),
                Some(b.clone()),
                false,
            ),
            // Checked Int64 arithmetic, strings and NULL leave the subset.
            (None, Some(k.clone().add(Expr::lit(1i64))), true),
            (
                Some(Expr::col("s").eq(Expr::lit("x"))),
                Some(a.clone()),
                true,
            ),
            (None, Some(Expr::col("n").add(a.clone())), true),
            (Some(a.clone()), Some(b.clone()), true),
            (None, Some(Expr::col("missing")), true),
        ];
        let consts = [Value::Int64(3), Value::Int64(0)].map(BundleValue::Const);
        let (s, n) = (Value::str("x"), Value::Null);
        let (s, n) = (BundleValue::Const(s), BundleValue::Const(n));
        for (pred, value, must_punt) in &cases {
            let mut runs = Vec::new();
            for mode in [KernelMode::Auto, KernelMode::ForceScalar] {
                set_kernel_mode(mode);
                let program = RowProgram::compile(&schema, value.as_ref(), pred.as_ref());
                set_kernel_mode(KernelMode::Auto);
                let mut rows = 0;
                for kv in &consts {
                    for i in 0..positions {
                        for j in 0..positions {
                            let cols = [(&random, i), (&random, j), (kv, 0), (&s, 0), (&n, 0)];
                            let got = program.eval(|slot| cols[program.slots()[slot]]);
                            let row: Vec<Value> =
                                cols.iter().map(|(v, at)| v.value_at(*at)).collect();
                            let want = (|| {
                                if let Some(p) = pred {
                                    if !p.eval_bool(&schema, &row)? {
                                        return Ok(None);
                                    }
                                }
                                value
                                    .as_ref()
                                    .map_or(Ok(1.0), |v| v.eval_f64(&schema, &row))
                                    .map(Some)
                            })();
                            let same = match (&got, &want) {
                                (Ok(x), Ok(y)) => x.map(f64::to_bits) == y.map(f64::to_bits),
                                (x, y) => x == y,
                            };
                            assert!(same, "{mode:?} {pred:?} {value:?} row ({i}, {j}, {kv:?}): {got:?} vs {want:?}");
                            rows += 1;
                        }
                    }
                }
                runs.push((program.punted(), rows));
            }
            let [(auto, rows), (scalar, _)] = runs[..] else {
                unreachable!()
            };
            assert_eq!(scalar, rows, "ForceScalar punts every row");
            assert_eq!(
                auto == rows,
                *must_punt,
                "{pred:?} {value:?}: {auto} of {rows} punted"
            );
        }
    }
}
