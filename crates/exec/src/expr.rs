//! Scalar expressions over named columns.
//!
//! Expressions appear in three places in an MCDB-R plan: selection
//! predicates, projection lists, and the argument of the final aggregate
//! (e.g. `SUM(emp2.sal - emp1.sal)` in the salary-inversion query of §5).
//! The same [`Expr`] type serves all three; evaluation is against a
//! `(Schema, row)` pair so the engine can evaluate an expression per Monte
//! Carlo repetition (MCDB) or per candidate stream value (the Gibbs Looper).

use std::fmt;

use mcdbr_storage::{Error, Result, Schema, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Equality (SQL semantics: NULL never equal).
    Eq,
    /// Inequality.
    NotEq,
    /// Less-than.
    Lt,
    /// Less-than-or-equal.
    LtEq,
    /// Greater-than.
    Gt,
    /// Greater-than-or-equal.
    GtEq,
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `self + rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Add, self, rhs)
    }

    /// `self - rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Sub, self, rhs)
    }

    /// `self * rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Mul, self, rhs)
    }

    /// `self / rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Div, self, rhs)
    }

    /// `self = rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Eq, self, rhs)
    }

    /// `self <> rhs`
    pub fn not_eq(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::NotEq, self, rhs)
    }

    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Lt, self, rhs)
    }

    /// `self <= rhs`
    pub fn lt_eq(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::LtEq, self, rhs)
    }

    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Gt, self, rhs)
    }

    /// `self >= rhs`
    pub fn gt_eq(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::GtEq, self, rhs)
    }

    /// `self AND rhs`
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::And, self, rhs)
    }

    /// `self OR rhs`
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Or, self, rhs)
    }

    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// All column names referenced by this expression, in first-appearance
    /// order, without duplicates.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column(name) => {
                if !out.contains(&name.as_str()) {
                    out.push(name.as_str());
                }
            }
            Expr::Literal(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            Expr::Not(inner) => inner.collect_columns(out),
        }
    }

    /// Evaluate against a row of values described by `schema` — the
    /// semantic referee of [`crate::program::Program`].
    pub fn eval(&self, schema: &Schema, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Column(name) => Ok(row[schema.index_of(name)?].clone()),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Not(inner) => Ok(Value::Bool(!inner.eval(schema, row)?.as_bool()?)),
            // Short-circuit the logical operators.
            Expr::Binary { op, lhs, rhs } if matches!(op, BinaryOp::And | BinaryOp::Or) => {
                let l = lhs.eval(schema, row)?.as_bool()?;
                if l == (*op == BinaryOp::Or) {
                    return Ok(Value::Bool(l));
                }
                Ok(Value::Bool(rhs.eval(schema, row)?.as_bool()?))
            }
            Expr::Binary { op, lhs, rhs } => {
                apply(*op, &lhs.eval(schema, row)?, &rhs.eval(schema, row)?)
            }
        }
    }

    /// Evaluate as a boolean predicate.
    pub fn eval_bool(&self, schema: &Schema, row: &[Value]) -> Result<bool> {
        self.eval(schema, row)?.as_bool()
    }

    /// Evaluate as a numeric value.
    pub fn eval_f64(&self, schema: &Schema, row: &[Value]) -> Result<f64> {
        self.eval(schema, row)?.as_f64()
    }
}

/// `l op r` for every operator but the short-circuiting `AND`/`OR`: the one
/// definition of the binary operators, which the program applies to boxed
/// operands too.
pub(crate) fn apply(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    let ord = match op {
        BinaryOp::Add => return l.add(r),
        BinaryOp::Sub => return l.sub(r),
        BinaryOp::Mul => return l.mul(r),
        BinaryOp::Div => return l.div(r),
        BinaryOp::And | BinaryOp::Or => unreachable!("AND and OR short-circuit"),
        _ if l.is_null() || r.is_null() => return Ok(Value::Bool(false)),
        BinaryOp::Eq => return Ok(Value::Bool(l.sql_eq(r))),
        BinaryOp::NotEq => return Ok(Value::Bool(!l.sql_eq(r))),
        _ => compare(l, r)?,
    };
    Ok(Value::Bool(match op {
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::LtEq => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        _ => ord.is_ge(),
    }))
}

/// Compare two values for ordering predicates; numbers compare numerically,
/// strings lexicographically, mixing the two is an error.
fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    match (l, r) {
        (Value::Utf8(a), Value::Utf8(b)) => Ok(a.cmp(b)),
        (a, b) if a.is_numeric() && b.is_numeric() => Ok(a
            .as_f64()?
            .partial_cmp(&b.as_f64()?)
            .unwrap_or(std::cmp::Ordering::Equal)),
        (a, b) => Err(Error::InvalidOperation(format!(
            "cannot compare {} with {}",
            a.data_type(),
            b.data_type()
        ))),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => f.write_str(name),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::Not(inner) => write!(f, "NOT ({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_storage::Field;

    fn emp_schema() -> Schema {
        Schema::new(vec![
            Field::float64("sal"),
            Field::utf8("eid"),
            Field::float64("sal2"),
        ])
    }

    fn emp_row() -> Vec<Value> {
        vec![
            Value::Float64(24_000.0),
            Value::str("Sue"),
            Value::Float64(28_000.0),
        ]
    }

    #[test]
    fn column_and_literal() {
        let schema = emp_schema();
        let row = emp_row();
        assert_eq!(
            Expr::col("eid").eval(&schema, &row).unwrap(),
            Value::str("Sue")
        );
        assert_eq!(
            Expr::lit(5i64).eval(&schema, &row).unwrap(),
            Value::Int64(5)
        );
        assert!(Expr::col("bonus").eval(&schema, &row).is_err());
    }

    #[test]
    fn arithmetic() {
        let schema = emp_schema();
        let row = emp_row();
        // sal2 - sal, the salary-inversion aggregand of §5.
        let diff = Expr::col("sal2").sub(Expr::col("sal"));
        assert_eq!(diff.eval(&schema, &row).unwrap(), Value::Float64(4_000.0));
        let scaled = diff.mul(Expr::lit(0.5)).add(Expr::lit(1.0));
        assert_eq!(scaled.eval_f64(&schema, &row).unwrap(), 2_001.0);
        let ratio = Expr::col("sal2").div(Expr::col("sal"));
        assert!((ratio.eval_f64(&schema, &row).unwrap() - 28.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn comparisons() {
        let schema = emp_schema();
        let row = emp_row();
        assert!(Expr::col("sal2")
            .gt(Expr::col("sal"))
            .eval_bool(&schema, &row)
            .unwrap());
        assert!(Expr::col("sal")
            .lt(Expr::lit(90_000.0))
            .eval_bool(&schema, &row)
            .unwrap());
        assert!(!Expr::col("sal")
            .gt_eq(Expr::lit(90_000.0))
            .eval_bool(&schema, &row)
            .unwrap());
        assert!(Expr::col("eid")
            .eq(Expr::lit("Sue"))
            .eval_bool(&schema, &row)
            .unwrap());
        assert!(Expr::col("eid")
            .not_eq(Expr::lit("Joe"))
            .eval_bool(&schema, &row)
            .unwrap());
        assert!(Expr::col("sal")
            .lt_eq(Expr::lit(24_000.0))
            .eval_bool(&schema, &row)
            .unwrap());
        // Comparing a string with a number is a type error.
        assert!(Expr::col("eid")
            .lt(Expr::lit(1i64))
            .eval(&schema, &row)
            .is_err());
    }

    #[test]
    fn null_comparisons_are_false() {
        let schema = Schema::new(vec![Field::float64("x")]);
        let row = vec![Value::Null];
        assert!(!Expr::col("x")
            .gt(Expr::lit(0.0))
            .eval_bool(&schema, &row)
            .unwrap());
        assert!(!Expr::col("x")
            .eq(Expr::lit(0.0))
            .eval_bool(&schema, &row)
            .unwrap());
        assert!(!Expr::col("x")
            .not_eq(Expr::lit(0.0))
            .eval_bool(&schema, &row)
            .unwrap());
    }

    #[test]
    fn logic_and_short_circuit() {
        let schema = emp_schema();
        let row = emp_row();
        let p = Expr::col("sal")
            .lt(Expr::lit(90_000.0))
            .and(Expr::col("sal2").gt(Expr::lit(25_000.0)));
        assert!(p.eval_bool(&schema, &row).unwrap());
        let q = Expr::col("sal")
            .gt(Expr::lit(90_000.0))
            .or(Expr::col("sal2").gt(Expr::lit(25_000.0)));
        assert!(q.eval_bool(&schema, &row).unwrap());
        assert!(!p.clone().not().eval_bool(&schema, &row).unwrap());
        // Short-circuit: the right side would error (column missing) but the
        // left side already decides the result.
        let sc = Expr::lit(false).and(Expr::col("missing"));
        assert!(!sc.eval_bool(&schema, &row).unwrap());
        let sc = Expr::lit(true).or(Expr::col("missing"));
        assert!(sc.eval_bool(&schema, &row).unwrap());
    }

    #[test]
    fn referenced_columns_dedup_in_order() {
        let e = Expr::col("b")
            .add(Expr::col("a"))
            .mul(Expr::col("b").sub(Expr::lit(1.0)));
        assert_eq!(e.referenced_columns(), vec!["b", "a"]);
        assert!(Expr::lit(3i64).referenced_columns().is_empty());
    }

    #[test]
    fn display_round_trip_readability() {
        let e = Expr::col("sal2")
            .gt(Expr::col("sal"))
            .and(Expr::col("sal").lt(Expr::lit(90_000.0)));
        assert_eq!(e.to_string(), "((sal2 > sal) AND (sal < 90000))");
    }
}
