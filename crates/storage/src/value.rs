//! Dynamically typed cell values.
//!
//! MCDB-R queries mix deterministic attributes (customer ids, order keys,
//! employee names) with uncertain numeric attributes whose instantiations are
//! produced by VG functions.  Both kinds flow through the engine as
//! [`Value`]s.  The type set is intentionally small — it covers everything
//! the paper's example queries (§2, §5, Appendix D) need.

use std::fmt;
use std::sync::Arc;

use crate::codec::{put_str, DecodeError, DecodeResult, Reader};
use crate::error::{Error, Result};

/// The type of a [`Value`] / a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.  All VG functions produce `Float64` values.
    Float64,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Utf8,
    /// The type of SQL NULL; also used for columns whose type is not yet known.
    Null,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "Int64",
            DataType::Float64 => "Float64",
            DataType::Bool => "Bool",
            DataType::Utf8 => "Utf8",
            DataType::Null => "Null",
        };
        f.write_str(s)
    }
}

/// A single cell value.
///
/// Equality (`PartialEq`) is structural: `Int64(3)` differs from
/// `Float64(3.0)` and a NaN equals nothing; [`Value::sql_eq`] is SQL's.
///
/// Strings are reference-counted (`Arc<str>`): values flow through the
/// engine by clone — per-repetition row materialization, bundle
/// concatenation, the columnar-block boundary — and a string clone must be
/// a refcount bump, not a heap copy, for categorical workloads to scale
/// like numeric ones.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int64(i64),
    /// 64-bit IEEE float.
    Float64(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string (shared; clones are refcount bumps).
    Utf8(Arc<str>),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Utf8(s.into())
    }

    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Int64(_) => DataType::Int64,
            Value::Float64(_) => DataType::Float64,
            Value::Bool(_) => DataType::Bool,
            Value::Utf8(_) => DataType::Utf8,
        }
    }

    /// True iff this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as an `f64` (integers are widened).
    ///
    /// This is the accessor the aggregation and Gibbs machinery uses for
    /// every numeric attribute: the paper's query results are all numeric
    /// aggregates (SUMs of losses, salary differences, ...).
    #[inline]
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int64(i) => Ok(*i as f64),
            Value::Float64(f) => Ok(*f),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(Error::TypeMismatch {
                expected: "numeric".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Interpret the value as a boolean.  NULL is *not* true.
    #[inline]
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(Error::TypeMismatch {
                expected: "boolean".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Interpret the value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Utf8(s) => Ok(s.as_ref()),
            other => Err(Error::TypeMismatch {
                expected: "string".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Whether this value is numeric (integer, float, or bool).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int64(_) | Value::Float64(_) | Value::Bool(_))
    }

    /// Append this value's tagged wire encoding to `out`.  Floats travel as
    /// raw IEEE bits, so the round trip is bit-exact — the same contract the
    /// columnar buffers keep in memory.
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int64(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float64(x) => {
                out.push(2);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Bool(b) => {
                out.push(3);
                out.push(u8::from(*b));
            }
            Value::Utf8(s) => {
                out.push(4);
                put_str(out, s);
            }
        }
    }

    /// Decode one value.  Truncated or malformed input (unknown tag,
    /// invalid UTF-8) is a typed [`DecodeError`].
    pub fn decode_wire(r: &mut Reader<'_>) -> DecodeResult<Value> {
        Ok(match r.u8("value tag")? {
            0 => Value::Null,
            1 => Value::Int64(r.u64("Int64 value")? as i64),
            2 => Value::Float64(r.f64("Float64 value")?),
            3 => Value::Bool(r.u8("Bool value")? != 0),
            4 => Value::Utf8(Arc::from(r.str("Utf8 value")?)),
            other => return Err(DecodeError::unknown("value tag", other)),
        })
    }

    /// SQL equality: NULL is not equal to anything (including NULL); integers
    /// and floats compare numerically.
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        if self.is_numeric() && other.is_numeric() {
            // both as_f64 calls cannot fail for numeric values
            return self.as_f64().unwrap() == other.as_f64().unwrap();
        }
        self == other
    }

    /// Numeric addition with integer preservation.
    pub fn add(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "+", |a, b| a + b, |a, b| a.checked_add(b))
    }

    /// Numeric subtraction with integer preservation.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "-", |a, b| a - b, |a, b| a.checked_sub(b))
    }

    /// Numeric multiplication with integer preservation.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "*", |a, b| a * b, |a, b| a.checked_mul(b))
    }

    /// Numeric division.  Always produces a float; division by zero is an error.
    pub fn div(&self, other: &Value) -> Result<Value> {
        let b = other.as_f64()?;
        if b == 0.0 {
            return Err(Error::InvalidOperation("division by zero".into()));
        }
        Ok(Value::Float64(self.as_f64()? / b))
    }
}

fn numeric_binop(
    lhs: &Value,
    rhs: &Value,
    op: &str,
    ff: impl Fn(f64, f64) -> f64,
    fi: impl Fn(i64, i64) -> Option<i64>,
) -> Result<Value> {
    match (lhs, rhs) {
        (Value::Int64(a), Value::Int64(b)) => fi(*a, *b)
            .map(Value::Int64)
            .ok_or_else(|| Error::InvalidOperation(format!("integer overflow in {a} {op} {b}"))),
        (a, b) if a.is_numeric() && b.is_numeric() => {
            Ok(Value::Float64(ff(a.as_f64()?, b.as_f64()?)))
        }
        (a, b) => Err(Error::InvalidOperation(format!(
            "cannot apply {op} to {} and {}",
            a.data_type(),
            b.data_type()
        ))),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int64(i) => write!(f, "{i}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Utf8(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int64(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Utf8(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Utf8(Arc::from(v))
    }
}

impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Utf8(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types() {
        assert_eq!(Value::Int64(3).data_type(), DataType::Int64);
        assert_eq!(Value::Float64(3.5).data_type(), DataType::Float64);
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
        assert_eq!(Value::str("x").data_type(), DataType::Utf8);
        assert_eq!(Value::Null.data_type(), DataType::Null);
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int64(7).as_f64().unwrap(), 7.0);
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert!(Value::str("x").as_f64().is_err());
    }

    #[test]
    fn arithmetic_preserves_integers() {
        let v = Value::Int64(4).add(&Value::Int64(5)).unwrap();
        assert_eq!(v, Value::Int64(9));
        let v = Value::Int64(4).mul(&Value::Float64(0.5)).unwrap();
        assert_eq!(v, Value::Float64(2.0));
    }

    #[test]
    fn arithmetic_errors() {
        assert!(Value::str("a").add(&Value::Int64(1)).is_err());
        assert!(Value::Int64(1).div(&Value::Int64(0)).is_err());
        assert!(Value::Int64(i64::MAX).add(&Value::Int64(1)).is_err());
    }

    #[test]
    fn subtraction_and_negation() {
        assert_eq!(
            Value::Int64(10).sub(&Value::Int64(4)).unwrap(),
            Value::Int64(6)
        );
    }

    #[test]
    fn sql_equality_semantics() {
        assert!(Value::Int64(3).sql_eq(&Value::Float64(3.0)));
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int64(0)));
        assert!(Value::str("a").sql_eq(&Value::str("a")));
        assert!(!Value::str("a").sql_eq(&Value::str("b")));
    }

    #[test]
    fn conversions_from_rust_types() {
        assert_eq!(Value::from(3i32), Value::Int64(3));
        assert_eq!(Value::from(3i64), Value::Int64(3));
        assert_eq!(Value::from(2.5f64), Value::Float64(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::str("hi"));
    }

    #[test]
    fn string_clones_share_storage() {
        // The Arc<str> contract: cloning a string value is a refcount bump,
        // not a heap copy — what makes per-repetition row materialization of
        // categorical columns as cheap as numeric ones.
        let a = Value::str("shared");
        let b = a.clone();
        match (&a, &b) {
            (Value::Utf8(x), Value::Utf8(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
        assert_eq!(a, b);
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int64(42).to_string(), "42");
        assert_eq!(Value::str("Sue").to_string(), "Sue");
    }
}
