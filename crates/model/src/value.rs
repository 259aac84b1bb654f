//! Concrete data values, records and datasets.
//!
//! The pseudonymisation-risk analysis of Section III-B operates on concrete
//! data (simulated at design time, real at run time): records are masked,
//! partitioned into equivalence classes and per-record value risks are
//! computed. [`Value`], [`Record`] and [`Dataset`] are the representation
//! shared by the anonymisation, synthetic-data and risk crates.

use crate::error::ModelError;
use crate::ids::FieldId;
use std::collections::BTreeMap;
use std::fmt;

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Value {
    /// An integer value (e.g. an age in years).
    Int(i64),
    /// A floating point value (e.g. a weight in kilograms).
    Float(f64),
    /// A free-text value (e.g. a diagnosis code).
    Text(String),
    /// A Boolean value.
    Bool(bool),
    /// A half-open generalisation interval `[lo, hi)` produced by
    /// anonymisation (e.g. the paper's `30-40` age band or `180-200` height
    /// band).
    Interval {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// A suppressed or missing value.
    Null,
}

impl Value {
    /// Creates an interval value, normalising the bound order.
    pub fn interval(lo: f64, hi: f64) -> Value {
        if hi < lo {
            Value::Interval { lo: hi, hi: lo }
        } else {
            Value::Interval { lo, hi }
        }
    }

    /// Returns the value as a floating point number if it is numeric.
    ///
    /// Intervals map to their midpoint, which is the standard choice when
    /// computing utility statistics over generalised data.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Interval { lo, hi } => Some((lo + hi) / 2.0),
            _ => None,
        }
    }

    /// Returns the text content if the value is textual.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` if a numeric value lies within an interval value, or if
    /// the two values are equal. Used when checking whether a generalised
    /// record is consistent with an original record.
    pub fn covers(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Interval { lo, hi }, other) => other
                .as_f64()
                .map(|v| v >= *lo && (v < *hi || (v == *hi && lo == hi)))
                .unwrap_or(false),
            (a, b) => a == b,
        }
    }

    /// Two values are "close" if their numeric distance is at most
    /// `tolerance`, or if they are exactly equal for non-numeric values.
    ///
    /// The paper's value-risk definition allows the user to specify a range
    /// so that `frequency(f)` counts *"the number of values in s which are
    /// close enough to the original value"*; this is that closeness test.
    pub fn is_close_to(&self, other: &Value, tolerance: f64) -> bool {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => (a - b).abs() <= tolerance,
            _ => self == other,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Interval { lo, hi } => write!(f, "{lo}-{hi}"),
            Value::Null => f.write_str("*"),
        }
    }
}

impl From<i64> for Value {
    fn from(value: i64) -> Self {
        Value::Int(value)
    }
}

impl From<f64> for Value {
    fn from(value: f64) -> Self {
        Value::Float(value)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::Text(value.to_owned())
    }
}

impl From<String> for Value {
    fn from(value: String) -> Self {
        Value::Text(value)
    }
}

impl From<bool> for Value {
    fn from(value: bool) -> Self {
        Value::Bool(value)
    }
}

/// One data record: a mapping from field identifiers to values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    values: BTreeMap<FieldId, Value>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Sets a field value, returning the previous value if any.
    pub fn set(&mut self, field: impl Into<FieldId>, value: impl Into<Value>) -> Option<Value> {
        self.values.insert(field.into(), value.into())
    }

    /// Builder-style field assignment.
    pub fn with(mut self, field: impl Into<FieldId>, value: impl Into<Value>) -> Self {
        self.set(field, value);
        self
    }

    /// The value of a field, if present.
    pub fn get(&self, field: &FieldId) -> Option<&Value> {
        self.values.get(field)
    }

    /// The value of a field, treating absence as [`Value::Null`].
    pub fn get_or_null(&self, field: &FieldId) -> Value {
        self.values.get(field).cloned().unwrap_or(Value::Null)
    }

    /// Removes a field from the record, returning its previous value.
    pub fn remove(&mut self, field: &FieldId) -> Option<Value> {
        self.values.remove(field)
    }

    /// Iterates over the fields of the record in field-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&FieldId, &Value)> {
        self.values.iter()
    }

    /// The set of field identifiers in the record.
    pub fn fields(&self) -> impl Iterator<Item = &FieldId> {
        self.values.keys()
    }

    /// Number of fields in the record.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the record holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns a copy of the record restricted to the given fields.
    pub fn project<'a>(&self, fields: impl IntoIterator<Item = &'a FieldId>) -> Record {
        let mut projected = Record::new();
        for field in fields {
            if let Some(value) = self.values.get(field) {
                projected.values.insert(field.clone(), value.clone());
            }
        }
        projected
    }

    /// Returns a key identifying the record's equivalence class with respect
    /// to the given fields: two records with equal keys are indistinguishable
    /// when only those fields are visible.
    pub fn class_key<'a>(&self, fields: impl IntoIterator<Item = &'a FieldId>) -> String {
        let mut key = String::new();
        for field in fields {
            key.push_str(field.as_str());
            key.push('=');
            key.push_str(&self.get_or_null(field).to_string());
            key.push('|');
        }
        key
    }
}

impl FromIterator<(FieldId, Value)> for Record {
    fn from_iter<T: IntoIterator<Item = (FieldId, Value)>>(iter: T) -> Self {
        Record { values: iter.into_iter().collect() }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (field, value)) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{field}: {value}")?;
        }
        f.write_str("}")
    }
}

/// An ordered collection of records sharing a column layout.
///
/// # Example
///
/// ```
/// use privacy_model::{Dataset, FieldId, Record};
///
/// let mut data = Dataset::new([FieldId::new("Age"), FieldId::new("Weight")]);
/// data.push(Record::new().with("Age", 30).with("Weight", 100.0));
/// data.push(Record::new().with("Age", 25).with("Weight", 80.0));
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.column(&FieldId::new("Age")).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    columns: Vec<FieldId>,
    records: Vec<Record>,
}

impl Dataset {
    /// Creates an empty dataset with the given column layout.
    pub fn new(columns: impl IntoIterator<Item = FieldId>) -> Self {
        Dataset { columns: columns.into_iter().collect(), records: Vec::new() }
    }

    /// Creates a dataset from a column layout and existing records.
    pub fn from_records(
        columns: impl IntoIterator<Item = FieldId>,
        records: impl IntoIterator<Item = Record>,
    ) -> Self {
        Dataset { columns: columns.into_iter().collect(), records: records.into_iter().collect() }
    }

    /// The declared columns.
    pub fn columns(&self) -> &[FieldId] {
        &self.columns
    }

    /// Appends a record.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// The records in insertion order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The record at `index`, if it exists.
    pub fn get(&self, index: usize) -> Option<&Record> {
        self.records.get(index)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the records.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// All values of a column (missing cells are skipped).
    pub fn column(&self, field: &FieldId) -> Vec<Value> {
        self.records.iter().filter_map(|r| r.get(field).cloned()).collect()
    }

    /// All numeric values of a column (non-numeric and missing cells are
    /// skipped; intervals contribute their midpoint).
    pub fn numeric_column(&self, field: &FieldId) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.get(field).and_then(Value::as_f64)).collect()
    }

    /// Checks that every record only uses declared columns.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unknown`] naming the first undeclared field
    /// encountered.
    pub fn validate(&self) -> Result<(), ModelError> {
        for record in &self.records {
            for field in record.fields() {
                if !self.columns.iter().any(|c| c == field) {
                    return Err(ModelError::unknown("dataset column", field.as_str()));
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<Record> for Dataset {
    fn from_iter<T: IntoIterator<Item = Record>>(iter: T) -> Self {
        let records: Vec<Record> = iter.into_iter().collect();
        let mut columns: Vec<FieldId> = Vec::new();
        for record in &records {
            for field in record.fields() {
                if !columns.iter().any(|c| c == field) {
                    columns.push(field.clone());
                }
            }
        }
        Dataset { columns, records }
    }
}

impl Extend<Record> for Dataset {
    fn extend<T: IntoIterator<Item = Record>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn age() -> FieldId {
        FieldId::new("Age")
    }

    fn weight() -> FieldId {
        FieldId::new("Weight")
    }

    #[test]
    fn value_conversions_and_accessors() {
        assert_eq!(Value::from(3i64).as_f64(), Some(3.0));
        assert_eq!(Value::from(2.5f64).as_f64(), Some(2.5));
        assert_eq!(Value::interval(10.0, 20.0).as_f64(), Some(15.0));
        assert_eq!(Value::from("x").as_text(), Some("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert!(Value::Null.is_null());
        assert!(Value::from("x").as_f64().is_none());
    }

    #[test]
    fn interval_normalises_bounds_and_displays_like_the_paper() {
        assert_eq!(Value::interval(40.0, 30.0), Value::Interval { lo: 30.0, hi: 40.0 });
        assert_eq!(Value::interval(30.0, 40.0).to_string(), "30-40");
        assert_eq!(Value::Null.to_string(), "*");
    }

    #[test]
    fn covers_checks_interval_membership() {
        let band = Value::interval(30.0, 40.0);
        assert!(band.covers(&Value::Int(30)));
        assert!(band.covers(&Value::Int(35)));
        assert!(!band.covers(&Value::Int(40)));
        assert!(!band.covers(&Value::from("thirty")));
        assert!(Value::Int(5).covers(&Value::Int(5)));
        assert!(!Value::Int(5).covers(&Value::Int(6)));
    }

    #[test]
    fn closeness_uses_numeric_tolerance() {
        assert!(Value::Float(100.0).is_close_to(&Value::Float(104.9), 5.0));
        assert!(!Value::Float(100.0).is_close_to(&Value::Float(106.0), 5.0));
        assert!(Value::Int(100).is_close_to(&Value::Float(102.0), 5.0));
        assert!(Value::from("a").is_close_to(&Value::from("a"), 0.0));
        assert!(!Value::from("a").is_close_to(&Value::from("b"), 10.0));
    }

    #[test]
    fn record_projection_and_class_key() {
        let record = Record::new().with("Age", 30).with("Weight", 100.0).with("Name", "Ann");
        let projected = record.project([&age(), &weight()]);
        assert_eq!(projected.len(), 2);
        assert!(projected.get(&FieldId::new("Name")).is_none());

        let other = Record::new().with("Age", 30).with("Weight", 99.0);
        assert_eq!(record.class_key([&age()]), other.class_key([&age()]));
        assert_ne!(record.class_key([&age(), &weight()]), other.class_key([&age(), &weight()]));
    }

    #[test]
    fn record_get_or_null_and_remove() {
        let mut record = Record::new().with("Age", 30);
        assert_eq!(record.get_or_null(&weight()), Value::Null);
        assert_eq!(record.remove(&age()), Some(Value::Int(30)));
        assert!(record.is_empty());
    }

    #[test]
    fn dataset_columns_and_numeric_projection() {
        let mut data = Dataset::new([age(), weight()]);
        data.push(Record::new().with("Age", 30).with("Weight", 100.0));
        data.push(Record::new().with("Age", 25));
        assert_eq!(data.numeric_column(&weight()), vec![100.0]);
        assert_eq!(data.numeric_column(&age()), vec![30.0, 25.0]);
        assert_eq!(data.column(&age()).len(), 2);
        assert!(data.validate().is_ok());
    }

    #[test]
    fn dataset_validation_rejects_undeclared_columns() {
        let mut data = Dataset::new([age()]);
        data.push(Record::new().with("Height", 180));
        let err = data.validate().unwrap_err();
        assert!(matches!(err, ModelError::Unknown { .. }));
    }

    #[test]
    fn dataset_from_iterator_infers_columns() {
        let data: Dataset =
            [Record::new().with("Age", 1), Record::new().with("Weight", 2.0).with("Age", 3)]
                .into_iter()
                .collect();
        assert_eq!(data.columns().len(), 2);
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn display_of_record_is_sorted_by_field() {
        let record = Record::new().with("b", 2).with("a", 1);
        assert_eq!(record.to_string(), "{a: 1, b: 2}");
    }
}
