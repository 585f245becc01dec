//! Schemas: ordered lists of named, typed fields.

use std::fmt;

use crate::error::{Error, Result};
use crate::value::DataType;

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, e.g. `"o_orderkey"` or `"totalLoss"`.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Create a new field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }

    /// Shorthand for a 64-bit integer field.
    pub fn int64(name: impl Into<String>) -> Self {
        Field::new(name, DataType::Int64)
    }

    /// Shorthand for a 64-bit float field.
    pub fn float64(name: impl Into<String>) -> Self {
        Field::new(name, DataType::Float64)
    }

    /// Shorthand for a string field.
    pub fn utf8(name: impl Into<String>) -> Self {
        Field::new(name, DataType::Utf8)
    }

    /// Shorthand for a boolean field.
    pub fn boolean(name: impl Into<String>) -> Self {
        Field::new(name, DataType::Bool)
    }
}

/// An ordered list of fields describing a relation.
///
/// Column lookup is by name; duplicate names are allowed only through
/// [`Schema::join`] which prefixes clashing names the way the engine's join
/// operator does (`left.name` stays, right-hand clash becomes `name_1`,
/// mirroring the `emp AS emp1, emp AS emp2` self-join of paper §5 where the
/// plan itself disambiguates).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Find the index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| Error::ColumnNotFound(name.to_string()))
    }

    /// Whether a column with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|f| f.name == name)
    }

    /// All column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Concatenate two schemas (for joins).  Columns of `other` whose names
    /// clash with columns already present get a `_1` (or `_2`, ...) suffix.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in &other.fields {
            let mut name = f.name.clone();
            let mut suffix = 1usize;
            while fields.iter().any(|g| g.name == name) {
                name = format!("{}_{suffix}", f.name);
                suffix += 1;
            }
            fields.push(Field::new(name, f.data_type));
        }
        Schema { fields }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn losses_schema() -> Schema {
        Schema::new(vec![Field::int64("cid"), Field::float64("val")])
    }

    #[test]
    fn index_lookup() {
        let s = losses_schema();
        assert_eq!(s.index_of("cid").unwrap(), 0);
        assert_eq!(s.index_of("val").unwrap(), 1);
        assert_eq!(
            s.index_of("missing"),
            Err(Error::ColumnNotFound("missing".into()))
        );
    }

    #[test]
    fn contains_and_names() {
        let s = losses_schema();
        assert!(s.contains("val"));
        assert!(!s.contains("VAL"));
        assert_eq!(s.names(), vec!["cid", "val"]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(Schema::empty().is_empty());
    }

    #[test]
    fn join_renames_clashes() {
        let emp = Schema::new(vec![Field::float64("sal"), Field::utf8("eid")]);
        let joined = emp.join(&emp);
        assert_eq!(joined.names(), vec!["sal", "eid", "sal_1", "eid_1"]);
        // Joining a third copy keeps generating fresh names.
        let triple = joined.join(&emp);
        assert_eq!(
            triple.names(),
            vec!["sal", "eid", "sal_1", "eid_1", "sal_2", "eid_2"]
        );
    }

    #[test]
    fn display() {
        assert_eq!(losses_schema().to_string(), "(cid: Int64, val: Float64)");
    }
}
