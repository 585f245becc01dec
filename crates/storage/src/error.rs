//! Error type shared by the storage layer and re-used by the crates above it.

use std::fmt;

/// Convenient alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the relational substrate.
///
/// The variants are deliberately coarse: the engine treats most of them as
/// programming errors in plan construction (e.g. referencing a column that
/// does not exist) rather than recoverable runtime conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A column name was not found in a schema.
    ColumnNotFound(String),
    /// A table name was not found in the catalog.
    TableNotFound(String),
    /// A table with the same name already exists in the catalog.
    TableAlreadyExists(String),
    /// A value had a different type than the operation required.
    TypeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it actually found.
        found: String,
    },
    /// A tuple's arity did not match the schema it was inserted under.
    ArityMismatch {
        /// Number of fields in the schema.
        expected: usize,
        /// Number of values in the offending tuple.
        found: usize,
    },
    /// An arithmetic or aggregation operation was applied to incompatible values.
    InvalidOperation(String),
    /// Catch-all for malformed input (e.g. an empty schema where one is required).
    Invalid(String),
    /// A deadline expired or the query was cancelled cooperatively.  Unlike
    /// the variants above this one *is* a recoverable runtime condition: the
    /// server maps it to a typed `Timeout` reply instead of `Internal`.
    Timeout(String),
    /// An operating-system I/O failure in the pager (create, read,
    /// write).  Carries the rendered `std::io::Error` so the enum
    /// stays `Clone + Eq`.
    Io(String),
    /// Spilled page bytes failed validation on read: a truncated record or
    /// a checksum mismatch.
    CorruptPage(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            Error::TableNotFound(name) => write!(f, "table not found: {name}"),
            Error::TableAlreadyExists(name) => write!(f, "table already exists: {name}"),
            Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            Error::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "arity mismatch: schema has {expected} fields, tuple has {found}"
                )
            }
            Error::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            Error::Invalid(msg) => write!(f, "invalid input: {msg}"),
            Error::Timeout(msg) => write!(f, "deadline exceeded: {msg}"),
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
            Error::CorruptPage(msg) => write!(f, "corrupt on-disk page: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_column_not_found() {
        let e = Error::ColumnNotFound("loss".into());
        assert_eq!(e.to_string(), "column not found: loss");
    }

    #[test]
    fn display_type_mismatch() {
        let e = Error::TypeMismatch {
            expected: "Float64".into(),
            found: "Utf8".into(),
        };
        assert_eq!(e.to_string(), "type mismatch: expected Float64, found Utf8");
    }

    #[test]
    fn display_arity_mismatch() {
        let e = Error::ArityMismatch {
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains("schema has 3 fields"));
    }

    #[test]
    fn display_timeout() {
        let e = Error::Timeout("query ran past 500ms".into());
        assert_eq!(e.to_string(), "deadline exceeded: query ran past 500ms");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            Error::TableNotFound("t".into()),
            Error::TableNotFound("t".into())
        );
        assert_ne!(
            Error::TableNotFound("t".into()),
            Error::TableNotFound("u".into())
        );
    }
}
