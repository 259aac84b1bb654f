//! The parsed-but-unresolved shape of one log line.
//!
//! Every format parser produces the same thing: a [`RawRecord`] — an ordered
//! list of `(key, value)` pairs with the line's provenance attached. The
//! [`crate::resolve`] layer then maps records onto
//! [`privacy_runtime::Event`]s through a [`crate::FieldMapping`].
//!
//! A record borrows from the line it was parsed from: keys, strings, list
//! items and number lexemes are slices of the line, and only text that an
//! escape sequence changes (a JSON `\n`, a logfmt `\"`, a CSV `""`) is
//! decoded into an owned string. Parsing an escape-free line therefore
//! allocates the pair list, plus one item list per JSON array, and no text.

use std::borrow::Cow;
use std::fmt;

/// One parsed value of a record column, borrowing from the line.
#[derive(Debug, Clone, PartialEq)]
pub enum RawValue<'a> {
    /// A textual value (logfmt and CSV cells, JSON strings).
    Str(Cow<'a, str>),
    /// A list of strings (a JSON array of strings).
    List(Vec<Cow<'a, str>>),
    /// A JSON boolean.
    Bool(bool),
    /// A JSON number, kept as its lexeme so integers survive exactly.
    Number(&'a str),
    /// A JSON `null`.
    Null,
    /// A structured JSON value (nested object, mixed array) the mapping
    /// layer cannot consume; kept so mapping one reports a typed error.
    Complex,
}

impl<'a> RawValue<'a> {
    /// The value as text, when it has a canonical textual form.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            RawValue::Str(text) => Some(text),
            RawValue::Number(text) => Some(text),
            _ => None,
        }
    }

    /// A short description of the value's shape, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            RawValue::Str(_) => "string",
            RawValue::List(_) => "list",
            RawValue::Bool(_) => "boolean",
            RawValue::Number(_) => "number",
            RawValue::Null => "null",
            RawValue::Complex => "structured value",
        }
    }
}

impl fmt::Display for RawValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RawValue::Str(text) => f.write_str(text),
            RawValue::Number(text) => f.write_str(text),
            RawValue::List(items) => write!(f, "[{}]", items.join(", ")),
            RawValue::Bool(value) => write!(f, "{value}"),
            RawValue::Null => f.write_str("null"),
            RawValue::Complex => f.write_str("<structured>"),
        }
    }
}

/// One parsed log record: ordered `(key, value)` pairs plus provenance.
///
/// Parsers guarantee keys are unique (a duplicate is a typed
/// [`crate::IngestError::DuplicateKey`] at parse time), so lookup by key is
/// unambiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct RawRecord<'a> {
    line: u64,
    pairs: Vec<(Cow<'a, str>, RawValue<'a>)>,
}

impl<'a> RawRecord<'a> {
    /// Pairs reserved up front: the canonical schema has eight columns, so
    /// a canonical record's pair list is allocated once.
    const TYPICAL_PAIRS: usize = 8;

    /// Creates a record anchored at 1-based `line`.
    pub fn new(line: u64) -> Self {
        RawRecord { line, pairs: Vec::with_capacity(Self::TYPICAL_PAIRS) }
    }

    /// The 1-based line the record was parsed from.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Appends a pair. The caller (a format parser) has already rejected
    /// duplicates.
    pub fn push(&mut self, key: impl Into<Cow<'a, str>>, value: RawValue<'a>) {
        self.pairs.push((key.into(), value));
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&RawValue<'a>> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether the record has a key.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The pairs in parse order.
    pub fn pairs(&self) -> &[(Cow<'a, str>, RawValue<'a>)] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` when the record has no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The text of a string a parser scanned in runs: the last `run` itself
/// when nothing was `decoded` before it, else the decoded text plus `run`.
pub(crate) fn scanned_text(decoded: Option<String>, run: &str) -> Cow<'_, str> {
    match decoded {
        None => Cow::Borrowed(run),
        Some(mut text) => {
            text.push_str(run);
            Cow::Owned(text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_preserve_order_and_look_up_by_key() {
        let mut record = RawRecord::new(3);
        record.push("user", RawValue::Str("alice".into()));
        record.push("seq".to_owned(), RawValue::Number("7"));
        assert_eq!(record.line(), 3);
        assert_eq!(record.len(), 2);
        assert!(!record.is_empty());
        assert!(record.contains("user"));
        assert_eq!(record.get("seq").and_then(RawValue::as_text), Some("7"));
        assert_eq!(record.get("missing"), None);
        assert_eq!(record.pairs()[0].0, "user");
    }

    #[test]
    fn values_describe_their_shapes() {
        assert_eq!(RawValue::Str("x".into()).type_name(), "string");
        assert_eq!(RawValue::Null.type_name(), "null");
        assert_eq!(RawValue::Complex.to_string(), "<structured>");
        assert_eq!(RawValue::List(vec!["a".into(), "b".into()]).to_string(), "[a, b]");
        assert_eq!(RawValue::Bool(true).to_string(), "true");
        assert_eq!(RawValue::Bool(false).as_text(), None);
    }
}
