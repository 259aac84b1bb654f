//! A hand-written NDJSON (one JSON object per line) parser.
//!
//! The build environment has no `serde_json`, and a log-ingestion front end
//! needs byte-accurate error provenance anyway, so this is a small
//! recursive-descent parser specialised to the shapes log lines take: a
//! top-level object whose values are strings, numbers, booleans, nulls, or
//! arrays of strings. Anything deeper parses (it must, to find the end of
//! the value) but surfaces as [`RawValue::Complex`] so the mapping layer can
//! report a typed error instead of silently stringifying structure.
//!
//! Strings borrow from the line: a string is scanned a run of plain bytes
//! at a time, and one with no escape is a slice of the line. Only an
//! escaped string is decoded into an owned copy.

use crate::error::{snippet, IngestError};
use crate::reader::Format;
use crate::record::{scanned_text, RawRecord, RawValue};
use std::borrow::Cow;

/// Parses one NDJSON object line into a record borrowing from `line`.
pub(crate) fn parse_line(line_no: u64, line: &str) -> Result<RawRecord<'_>, IngestError> {
    let mut parser = Parser { line_no, bytes: line.as_bytes(), text: line, pos: 0 };
    parser.skip_ws();
    let record = parser.object()?;
    parser.skip_ws();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing content after the object"));
    }
    Ok(record)
}

struct Parser<'a> {
    line_no: u64,
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> IngestError {
        IngestError::Syntax {
            line: self.line_no,
            column: self.pos as u32 + 1,
            format: Format::Json,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, what: &str) -> Result<(), IngestError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn object(&mut self) -> Result<RawRecord<'a>, IngestError> {
        self.expect(b'{', "`{` opening the record object")?;
        let mut record = RawRecord::new(self.line_no);
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(record);
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if record.contains(&key) {
                return Err(IngestError::DuplicateKey {
                    line: self.line_no,
                    column: key_at as u32 + 1,
                    key: key.into_owned(),
                });
            }
            self.skip_ws();
            self.expect(b':', "`:` after the key")?;
            self.skip_ws();
            let value = self.value()?;
            record.push(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(record);
                }
                _ => return Err(self.error("expected `,` or `}` after a value")),
            }
        }
    }

    fn value(&mut self) -> Result<RawValue<'a>, IngestError> {
        match self.peek() {
            Some(b'"') => Ok(RawValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => {
                // Parse (to find the end) but surface as structure.
                self.object()?;
                Ok(RawValue::Complex)
            }
            Some(b't') => self.literal("true", RawValue::Bool(true)),
            Some(b'f') => self.literal("false", RawValue::Bool(false)),
            Some(b'n') => self.literal("null", RawValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn literal(
        &mut self,
        word: &'static str,
        value: RawValue<'a>,
    ) -> Result<RawValue<'a>, IngestError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<RawValue<'a>, IngestError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_at = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_at {
            return Err(self.error("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_at = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_at {
                return Err(self.error("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_at = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_at {
                return Err(self.error("expected digits in the exponent"));
            }
        }
        Ok(RawValue::Number(&self.text[start..self.pos]))
    }

    fn array(&mut self) -> Result<RawValue<'a>, IngestError> {
        self.expect(b'[', "`[`")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(RawValue::List(Vec::new()));
        }
        let mut items = Vec::new();
        let mut all_strings = true;
        loop {
            self.skip_ws();
            match self.value()? {
                RawValue::Str(item) if all_strings => items.push(item),
                _ => all_strings = false,
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(if all_strings { RawValue::List(items) } else { RawValue::Complex });
                }
                _ => return Err(self.error("expected `,` or `]` in the array")),
            }
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, IngestError> {
        self.expect(b'"', "`\"` opening a string")?;
        // The string stays a slice of the line until an escape forces a
        // copy; each run of plain bytes is then appended whole.
        let mut decoded: Option<String> = None;
        let mut run_start = self.pos;
        loop {
            self.pos += self.bytes[self.pos..]
                .iter()
                .position(|&byte| byte == b'"' || byte == b'\\' || byte < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            let run = &self.text[run_start..self.pos];
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(scanned_text(decoded, run));
                }
                Some(b'\\') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(self.escape()?);
                    run_start = self.pos;
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
            }
        }
    }

    /// Decodes the escape sequence starting at the `\\` under the cursor.
    fn escape(&mut self) -> Result<char, IngestError> {
        let at = self.pos;
        self.pos += 1;
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let unit = self.hex4()?;
                return if (0xd800..0xdc00).contains(&unit) {
                    // High surrogate: require the paired escape.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                    } else {
                        self.pos = at;
                        return Err(self.error("unpaired surrogate escape"));
                    }
                    if self.peek() == Some(b'u') {
                        self.pos += 1;
                    } else {
                        self.pos = at;
                        return Err(self.error("unpaired surrogate escape"));
                    }
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        self.pos = at;
                        return Err(self.error("unpaired surrogate escape"));
                    }
                    let scalar =
                        0x10000 + ((u32::from(unit) - 0xd800) << 10) + (u32::from(low) - 0xdc00);
                    char::from_u32(scalar).ok_or_else(|| self.error("invalid surrogate pair"))
                } else if (0xdc00..0xe000).contains(&unit) {
                    self.pos = at;
                    Err(self.error("unpaired surrogate escape"))
                } else {
                    char::from_u32(u32::from(unit)).ok_or_else(|| self.error("invalid \\u escape"))
                };
            }
            _ => return Err(self.error("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(ch)
    }

    fn hex4(&mut self) -> Result<u16, IngestError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        // Check the bytes first: a multi-byte character among them would
        // put `end` inside it, and `from_str_radix` alone would accept `+`.
        let digits = &self.bytes[self.pos..end];
        let unit = if digits.iter().all(u8::is_ascii_hexdigit) {
            u16::from_str_radix(&self.text[self.pos..end], 16).ok()
        } else {
            None
        };
        let unit = unit.ok_or_else(|| {
            let shown = String::from_utf8_lossy(digits);
            self.error(format!("invalid \\u escape `{}`", snippet(&shown)))
        })?;
        self.pos = end;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<RawRecord<'_>, IngestError> {
        parse_line(1, line)
    }

    #[test]
    fn a_typical_event_line_parses() {
        let record = parse(
            r#"{"seq": 3, "user": "u-1", "fields": ["name", "dob"], "permitted": true, "store": null}"#,
        )
        .unwrap();
        assert_eq!(record.get("seq"), Some(&RawValue::Number("3")));
        assert_eq!(record.get("user"), Some(&RawValue::Str("u-1".into())));
        assert_eq!(record.get("fields"), Some(&RawValue::List(vec!["name".into(), "dob".into()])));
        assert_eq!(record.get("permitted"), Some(&RawValue::Bool(true)));
        assert_eq!(record.get("store"), Some(&RawValue::Null));
    }

    #[test]
    fn plain_strings_borrow_and_escaped_strings_decode() {
        let record =
            parse(r#"{"plain": "u-1", "esc\u0061ped": "tab\there", "n": -1.5e3}"#).unwrap();
        let [(plain_key, plain), (escaped_key, escaped), (_, number)] = record.pairs() else {
            panic!("expected three pairs, got {record:?}");
        };
        assert!(matches!(plain_key, Cow::Borrowed("plain")));
        assert!(matches!(plain, RawValue::Str(Cow::Borrowed("u-1"))));
        assert!(matches!(escaped_key, Cow::Owned(key) if key == "escaped"));
        assert!(matches!(escaped, RawValue::Str(Cow::Owned(text)) if text == "tab\there"));
        assert_eq!(number, &RawValue::Number("-1.5e3"));
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        let record = parse(r#"{"k": "a\"b\\c\ndé😀"}"#).unwrap();
        assert_eq!(record.get("k"), Some(&RawValue::Str("a\"b\\c\ndé😀".into())));
    }

    #[test]
    fn nested_structure_is_complex_not_lossy() {
        let record = parse(r#"{"meta": {"a": 1}, "mixed": ["s", 2]}"#).unwrap();
        assert_eq!(record.get("meta"), Some(&RawValue::Complex));
        assert_eq!(record.get("mixed"), Some(&RawValue::Complex));
    }

    #[test]
    fn duplicate_keys_are_typed_errors() {
        let error = parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        match error {
            IngestError::DuplicateKey { line, column, key } => {
                assert_eq!((line, key.as_str()), (1, "a"));
                assert_eq!(column, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_carry_columns() {
        for (line, bad_col) in [
            (r#"{"a": }"#, 7),
            (r#"{"a" 1}"#, 6),
            (r#"{"a": 1"#, 8),
            (r#"{"a": 1} extra"#, 10),
            (r#"{"a": "unterminated"#, 20),
            (r#"{"a": truth}"#, 7),
            (r#"{"a": 1.}"#, 9),
            (r#"{"a": "\q"}"#, 9),
            (r#"{"a": "\ud800x"}"#, 8),
            // The borrowing scan hands over to the decoder mid-string:
            // an escape, a control byte or the end of the line after a
            // plain prefix reports the column the decoder always did.
            (r#"{"a": "plainplainplain\q"}"#, 24),
            ("{\"a\": \"plain\u{1}x\"}", 13),
            (r#"{"a": "plain\nrest"#, 19),
            (r#"{"plainplainplain\q": 1}"#, 19),
            // Content right after a borrowed closing quote.
            (r#"{"a": "plain"x}"#, 14),
            (r#"{"a": "plain""}"#, 14),
            // A multi-byte character among the four `\u` digits.
            (r#"{"a": "\u000é"}"#, 10),
            (r#"{"a": "ok\u00é0"}"#, 12),
            (r#"{"a": "\ud83d\ude0é"}"#, 16),
            (r#"{"a": "\u+123"}"#, 10),
        ] {
            let error = parse(line).unwrap_err();
            match error {
                IngestError::Syntax { column, .. } => {
                    assert_eq!(column, bad_col, "line {line:?}: {error}")
                }
                other => panic!("line {line:?}: unexpected {other:?}"),
            }
        }
    }
}
