//! Tuples: rows of [`Value`]s.

use std::fmt;

use crate::error::Result;
use crate::schema::Schema;
use crate::value::Value;

/// A row of values.  A `Tuple` carries no schema of its own; the schema lives
/// with the [`crate::Table`] or operator that produced it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Build a tuple from anything convertible to values.
    pub fn from_iter_values<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Tuple {
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of values in the tuple.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// True if the tuple has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values, in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at position `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Replace the value at position `idx`.
    pub fn set(&mut self, idx: usize, value: Value) {
        self.values[idx] = value;
    }

    /// Append a value.
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Look a value up by column name using a schema.
    pub fn get(&self, schema: &Schema, name: &str) -> Result<&Value> {
        Ok(&self.values[schema.index_of(name)?])
    }

    /// Concatenate two tuples (used by join operators).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple { values }
    }

    /// Consume the tuple and return its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    #[test]
    fn construction_and_access() {
        let t =
            Tuple::from_iter_values([Value::Int64(1), Value::str("Sue"), Value::Float64(24_000.0)]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.value(1), &Value::str("Sue"));
        assert!(!t.is_empty());
    }

    #[test]
    fn schema_lookup() {
        let schema = Schema::new(vec![Field::utf8("eid"), Field::float64("sal")]);
        let t = Tuple::from_iter_values([Value::str("Joe"), Value::Float64(28_000.0)]);
        assert_eq!(t.get(&schema, "sal").unwrap(), &Value::Float64(28_000.0));
        assert!(t.get(&schema, "bonus").is_err());
    }

    #[test]
    fn mutation() {
        let mut t = Tuple::from_iter_values([1i64, 2i64]);
        t.set(0, Value::Int64(5));
        t.set(1, Value::Int64(7));
        t.push(Value::Int64(9));
        assert_eq!(
            t.values(),
            &[Value::Int64(5), Value::Int64(7), Value::Int64(9)]
        );
    }

    #[test]
    fn concat_appends_values() {
        let a = Tuple::from_iter_values([1i64, 2i64]);
        let b = Tuple::from_iter_values(["x", "y"]);
        let joined = a.concat(&b);
        assert_eq!(joined.arity(), 4);
        let want = [1i64.into(), 2i64.into(), Value::str("x"), Value::str("y")];
        assert_eq!(joined.values(), &want);
    }

    #[test]
    fn display() {
        let t = Tuple::from_iter_values([Value::Int64(1), Value::str("Sue")]);
        assert_eq!(t.to_string(), "[1, Sue]");
    }
}
