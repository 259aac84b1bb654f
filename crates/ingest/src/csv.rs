//! An RFC 4180 CSV parser with a header row.
//!
//! Unlike the line-at-a-time JSON and logfmt parsers this one is stateful:
//! the first (physical) record is the header naming the columns, and every
//! later record must match its arity. Quoted cells use doubled `""` quotes;
//! embedded newlines inside quoted cells are handled upstream by the reader,
//! which joins physical lines until quotes balance before calling in here.
//!
//! A data record borrows its keys from the parser's header and its cells
//! from the line; only a quoted cell with a doubled `""` is decoded into an
//! owned string.

use crate::error::{snippet, IngestError};
use crate::reader::Format;
use crate::record::{scanned_text, RawRecord, RawValue};
use std::borrow::Cow;

/// Stateful CSV record parser (header-first).
#[derive(Debug, Default)]
pub(crate) struct CsvParser {
    header: Option<Vec<String>>,
}

impl CsvParser {
    pub(crate) fn new() -> Self {
        CsvParser::default()
    }

    /// Feeds one logical record (physical lines already joined). Returns
    /// `None` for the header record, `Some(record)` for data records.
    pub(crate) fn parse_record<'a>(
        &'a mut self,
        line_no: u64,
        line: &'a str,
    ) -> Result<Option<RawRecord<'a>>, IngestError> {
        let cells = split_cells(line_no, line)?;
        match self.header {
            None => {
                let mut names: Vec<String> = Vec::with_capacity(cells.len());
                for (name, column) in cells {
                    if names.iter().any(|seen| *seen == name) {
                        return Err(IngestError::DuplicateKey {
                            line: line_no,
                            column,
                            key: name.into_owned(),
                        });
                    }
                    names.push(name.into_owned());
                }
                if names.iter().all(|name| name.is_empty()) {
                    return Err(IngestError::Syntax {
                        line: line_no,
                        column: 1,
                        format: Format::Csv,
                        message: "empty header row".to_owned(),
                    });
                }
                self.header = Some(names);
                Ok(None)
            }
            Some(ref header) => {
                if cells.len() != header.len() {
                    return Err(IngestError::Syntax {
                        line: line_no,
                        column: 1,
                        format: Format::Csv,
                        message: format!(
                            "record has {} cells but the header declares {} columns",
                            cells.len(),
                            header.len()
                        ),
                    });
                }
                let mut record = RawRecord::new(line_no);
                for (name, (value, _)) in header.iter().zip(cells) {
                    record.push(name.as_str(), RawValue::Str(value));
                }
                Ok(Some(record))
            }
        }
    }
}

/// Splits one logical CSV record into `(cell, 1-based start column)` pairs.
fn split_cells(line_no: u64, line: &str) -> Result<Vec<(Cow<'_, str>, u32)>, IngestError> {
    let error = |pos: usize, message: &str| IngestError::Syntax {
        line: line_no,
        column: pos as u32 + 1,
        format: Format::Csv,
        message: message.to_owned(),
    };
    let bytes = line.as_bytes();
    let mut cells = Vec::new();
    let mut pos = 0usize;
    loop {
        let start = pos;
        let cell = if bytes.get(pos) == Some(&b'"') {
            pos += 1;
            // The cell stays a slice of the line until a doubled quote
            // forces a copy.
            let mut decoded: Option<String> = None;
            let mut run_start = pos;
            let cell = loop {
                pos +=
                    bytes[pos..].iter().position(|&byte| byte == b'"').unwrap_or(bytes.len() - pos);
                if pos == bytes.len() {
                    return Err(error(start, "unterminated quoted cell"));
                }
                if bytes.get(pos + 1) == Some(&b'"') {
                    // Keep the first quote of the pair, skip the second.
                    decoded.get_or_insert_with(String::new).push_str(&line[run_start..=pos]);
                    pos += 2;
                    run_start = pos;
                } else {
                    pos += 1;
                    break scanned_text(decoded, &line[run_start..pos - 1]);
                }
            };
            match bytes.get(pos) {
                None | Some(b',') => {}
                Some(_) => {
                    return Err(error(pos, "content after the closing quote of a cell"));
                }
            }
            cell
        } else {
            let cell_start = pos;
            while let Some(&byte) = bytes.get(pos) {
                if byte == b',' {
                    break;
                }
                if byte == b'"' {
                    return Err(error(pos, "`\"` inside an unquoted cell (quote the whole cell)"));
                }
                pos += 1;
            }
            Cow::Borrowed(&line[cell_start..pos])
        };
        if cell.len() > u32::MAX as usize {
            // Unreachable in practice (line limits bound cells first), but
            // keeps the column arithmetic honest.
            return Err(error(start, &format!("cell too large: {}", snippet(&cell))));
        }
        cells.push((cell, start as u32 + 1));
        match bytes.get(pos) {
            None => return Ok(cells),
            Some(b',') => pos += 1,
            Some(_) => unreachable!("cell scanning stops only at `,` or end"),
        }
    }
}

/// Counts unescaped `"` in a physical line — the reader uses quote parity to
/// decide whether a quoted cell continues onto the next physical line.
pub(crate) fn quote_count(line: &str) -> usize {
    line.bytes().filter(|&b| b == b'"').count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parser that has read an `a,b,c` header.
    fn primed() -> CsvParser {
        let mut parser = CsvParser::new();
        assert_eq!(parser.parse_record(1, "a,b,c"), Ok(None));
        parser
    }

    #[test]
    fn header_then_records_map_by_column_name() {
        let mut parser = primed();
        let record = parser.parse_record(2, "1,two,\"th,ree\"").unwrap().unwrap();
        assert_eq!(record.get("a"), Some(&RawValue::Str("1".into())));
        assert_eq!(record.get("b"), Some(&RawValue::Str("two".into())));
        assert_eq!(record.get("c"), Some(&RawValue::Str("th,ree".into())));
        assert_eq!(record.line(), 2);
    }

    #[test]
    fn doubled_quotes_and_embedded_newlines_decode() {
        let mut parser = primed();
        let record =
            parser.parse_record(2, "\"he said \"\"hi\"\"\",\"line1\nline2\",z").unwrap().unwrap();
        assert!(
            matches!(record.get("a"), Some(RawValue::Str(Cow::Owned(a))) if a == "he said \"hi\"")
        );
        assert!(matches!(record.get("b"), Some(RawValue::Str(Cow::Borrowed("line1\nline2")))));
        assert!(matches!(record.get("c"), Some(RawValue::Str(Cow::Borrowed("z")))));
    }

    #[test]
    fn arity_mismatches_are_typed() {
        assert!(matches!(
            primed().parse_record(2, "1,2"),
            Err(IngestError::Syntax { line: 2, .. })
        ));
        assert!(matches!(
            primed().parse_record(2, "1,2,3,4"),
            Err(IngestError::Syntax { line: 2, .. })
        ));
    }

    #[test]
    fn header_duplicates_and_quote_malformations_are_typed() {
        let mut parser = CsvParser::new();
        assert!(matches!(
            parser.parse_record(1, "a,b,a"),
            Err(IngestError::DuplicateKey { column: 5, .. })
        ));
        assert!(matches!(primed().parse_record(2, "\"open,2,3"), Err(IngestError::Syntax { .. })));
        assert!(matches!(primed().parse_record(2, "\"x\"y,2,3"), Err(IngestError::Syntax { .. })));
        assert!(matches!(primed().parse_record(2, "ab\"cd,2,3"), Err(IngestError::Syntax { .. })));
    }

    #[test]
    fn empty_cells_and_trailing_commas_are_positional() {
        let mut parser = primed();
        let record = parser.parse_record(2, ",,").unwrap().unwrap();
        assert_eq!(record.get("a"), Some(&RawValue::Str("".into())));
        assert_eq!(record.get("c"), Some(&RawValue::Str("".into())));
    }

    #[test]
    fn quote_parity_counts_all_quotes() {
        assert_eq!(quote_count("a,\"b\",c"), 2);
        assert_eq!(quote_count("\"he said \"\"hi"), 3);
        assert_eq!(quote_count("plain"), 0);
    }
}
