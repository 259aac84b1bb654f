//! Typed ingestion errors with line/column provenance.
//!
//! A production log parser is judged by how it fails: malformed bytes are
//! routine, so every failure mode here is a typed [`IngestError`] carrying
//! where in the stream it happened (1-based line, and a 1-based byte column
//! where one is meaningful) — never a panic, and never a stringly-typed
//! blob the caller has to regex.

use crate::gzip::GzipError;
use crate::reader::Format;
use std::fmt;

/// How the resolver reacts to a malformed line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Stop at the first malformed line and return its error.
    #[default]
    FailFast,
    /// Skip malformed lines, collecting one diagnostic per skipped line;
    /// the ingest still fails on stream-level errors (unreadable input,
    /// a corrupt gzip archive, an undetectable format).
    Skip,
}

/// The logical column of an event record a value was mapped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The monotone sequence number.
    Sequence,
    /// The data subject.
    User,
    /// The executing service.
    Service,
    /// The acting actor.
    Actor,
    /// The privacy action verb.
    Action,
    /// The involved field ids.
    Fields,
    /// The datastore.
    Datastore,
    /// The permitted flag.
    Permitted,
}

impl Role {
    /// The role's lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Sequence => "sequence",
            Role::User => "user",
            Role::Service => "service",
            Role::Actor => "actor",
            Role::Action => "action",
            Role::Fields => "fields",
            Role::Datastore => "datastore",
            Role::Permitted => "permitted",
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a log stream (or one of its lines) could not be ingested.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The underlying reader failed.
    Io {
        /// The I/O error rendered as text.
        message: String,
    },
    /// The wrapped gzip archive is malformed.
    Gzip(GzipError),
    /// No supported format could be recognised from the first record line.
    UnknownFormat {
        /// The line inspected.
        line: u64,
    },
    /// A line is not valid UTF-8.
    InvalidUtf8 {
        /// The offending line.
        line: u64,
        /// 1-based byte offset of the first invalid byte.
        column: u32,
    },
    /// A line exceeds the configured size limit.
    LineTooLong {
        /// The offending line.
        line: u64,
        /// The bytes the offending line spans in the stream, from its first
        /// byte through its `\n` terminator when one was seen (for an
        /// unbalanced CSV quote, the whole record it opened). Taken from
        /// the span rather than from a buffered copy, so a live tail that
        /// stores only `limit + 1` bytes of a line reports what an offline
        /// read of the whole line does.
        length: usize,
        /// The configured limit in bytes.
        limit: usize,
    },
    /// The line does not parse under the (declared or detected) format.
    Syntax {
        /// The offending line.
        line: u64,
        /// 1-based byte offset into the line.
        column: u32,
        /// The format the parser was applying.
        format: Format,
        /// What went wrong.
        message: String,
    },
    /// A record (or CSV header) names the same key twice.
    DuplicateKey {
        /// The offending line.
        line: u64,
        /// 1-based byte offset of the second occurrence.
        column: u32,
        /// The duplicated key.
        key: String,
    },
    /// A record lacks a mapped column with no configured default.
    MissingColumn {
        /// The offending line.
        line: u64,
        /// The role the mapping wanted to fill.
        role: Role,
        /// The record key the mapping looked for.
        key: String,
    },
    /// A record value cannot be converted to its mapped role.
    BadValue {
        /// The offending line.
        line: u64,
        /// The role the mapping wanted to fill.
        role: Role,
        /// The record key the value came from.
        key: String,
        /// The value, truncated for display.
        value: String,
        /// What went wrong.
        message: String,
    },
    /// A mapped sequence number does not increase.
    NonMonotoneSequence {
        /// The offending line.
        line: u64,
        /// The sequence number the line carried.
        sequence: u64,
        /// The previously accepted sequence number.
        previous: u64,
    },
}

/// Truncates a value for inclusion in an error message, so a hostile
/// megabyte-long field renders as a bounded snippet.
pub(crate) fn snippet(value: &str) -> String {
    const LIMIT: usize = 64;
    if value.len() <= LIMIT {
        return value.to_owned();
    }
    let mut cut = LIMIT;
    while !value.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}… ({} bytes)", &value[..cut], value.len())
}

impl IngestError {
    /// The 1-based line the error is anchored to, when it concerns one line
    /// (stream-level errors — I/O, gzip — have none).
    pub fn line(&self) -> Option<u64> {
        match self {
            IngestError::Io { .. } | IngestError::Gzip(_) => None,
            IngestError::UnknownFormat { line }
            | IngestError::InvalidUtf8 { line, .. }
            | IngestError::LineTooLong { line, .. }
            | IngestError::Syntax { line, .. }
            | IngestError::DuplicateKey { line, .. }
            | IngestError::MissingColumn { line, .. }
            | IngestError::BadValue { line, .. }
            | IngestError::NonMonotoneSequence { line, .. } => Some(*line),
        }
    }

    /// The 1-based byte column within the line, where one is meaningful.
    pub fn column(&self) -> Option<u32> {
        match self {
            IngestError::InvalidUtf8 { column, .. }
            | IngestError::Syntax { column, .. }
            | IngestError::DuplicateKey { column, .. } => Some(*column),
            _ => None,
        }
    }

    /// Whether the error concerns one line (skippable under
    /// [`ErrorPolicy::Skip`]) rather than the whole stream.
    pub fn is_line_scoped(&self) -> bool {
        !matches!(
            self,
            IngestError::Io { .. } | IngestError::Gzip(_) | IngestError::UnknownFormat { .. }
        )
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { message } => write!(f, "reading log stream: {message}"),
            IngestError::Gzip(error) => write!(f, "gzip: {error}"),
            IngestError::UnknownFormat { line } => {
                write!(f, "line {line}: unrecognised log format (expected JSON, logfmt or CSV)")
            }
            IngestError::InvalidUtf8 { line, column } => {
                write!(f, "line {line}, column {column}: invalid UTF-8")
            }
            IngestError::LineTooLong { line, length, limit } => {
                write!(f, "line {line}: {length} bytes exceeds the {limit}-byte line limit")
            }
            IngestError::Syntax { line, column, format, message } => {
                write!(f, "line {line}, column {column}: {format} syntax: {message}")
            }
            IngestError::DuplicateKey { line, column, key } => {
                write!(f, "line {line}, column {column}: duplicate key `{key}`")
            }
            IngestError::MissingColumn { line, role, key } => {
                write!(f, "line {line}: no `{key}` column for the {role} role")
            }
            IngestError::BadValue { line, role, key, value, message } => {
                write!(f, "line {line}: bad {role} value `{value}` in `{key}`: {message}")
            }
            IngestError::NonMonotoneSequence { line, sequence, previous } => {
                write!(
                    f,
                    "line {line}: sequence {sequence} does not increase past the previous \
                     accepted sequence {previous}"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

impl From<GzipError> for IngestError {
    fn from(error: GzipError) -> Self {
        IngestError::Gzip(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_provenance() {
        let error = IngestError::Syntax {
            line: 12,
            column: 3,
            format: Format::Json,
            message: "unterminated string".to_owned(),
        };
        assert_eq!(error.line(), Some(12));
        assert_eq!(error.column(), Some(3));
        assert!(error.is_line_scoped());
        assert_eq!(error.to_string(), "line 12, column 3: json syntax: unterminated string");
    }

    #[test]
    fn stream_level_errors_have_no_line() {
        let error = IngestError::Io { message: "pipe closed".to_owned() };
        assert_eq!(error.line(), None);
        assert!(!error.is_line_scoped());
        assert!(error.to_string().contains("pipe closed"));
    }

    #[test]
    fn snippets_truncate_on_char_boundaries() {
        assert_eq!(snippet("short"), "short");
        let long = format!("{}é", "x".repeat(63));
        let shown = snippet(&long);
        assert!(shown.starts_with(&"x".repeat(63)));
        assert!(shown.contains("bytes"));
    }
}
