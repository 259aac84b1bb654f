//! A logfmt (`key=value key2="quoted value"`) line parser.
//!
//! The dialect follows the de-facto standard (Heroku/Go `logfmt`): pairs are
//! separated by runs of spaces; a value is either a bare token (no spaces or
//! quotes) or a double-quoted string with `\"`, `\\`, `\n`, `\r`, `\t`
//! escapes; a bare key with no `=` is boolean `true`.
//!
//! Keys and bare values are slices of the line, and so is a quoted value
//! with no escape; only an escaped value is decoded into an owned string.

use crate::error::IngestError;
use crate::reader::Format;
use crate::record::{scanned_text, RawRecord, RawValue};
use std::borrow::Cow;

/// Parses one logfmt line into a record borrowing from `line`.
pub(crate) fn parse_line(line_no: u64, line: &str) -> Result<RawRecord<'_>, IngestError> {
    let mut parser = Parser { line_no, bytes: line.as_bytes(), text: line, pos: 0 };
    let mut record = RawRecord::new(line_no);
    loop {
        parser.skip_spaces();
        if parser.peek().is_none() {
            return Ok(record);
        }
        let key_at = parser.pos;
        let key = parser.key()?;
        if record.contains(key) {
            return Err(IngestError::DuplicateKey {
                line: line_no,
                column: key_at as u32 + 1,
                key: key.to_owned(),
            });
        }
        let value = if parser.peek() == Some(b'=') {
            parser.pos += 1;
            parser.value()?
        } else {
            // A bare key is a boolean flag, logfmt's `verbose`-style idiom.
            RawValue::Bool(true)
        };
        record.push(key, value);
    }
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
            format: Format::Logfmt,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn key(&mut self) -> Result<&'a str, IngestError> {
        let start = self.pos;
        while let Some(byte) = self.peek() {
            if matches!(byte, b' ' | b'\t' | b'=') {
                break;
            }
            if byte == b'"' {
                return Err(self.error("`\"` is not allowed in a key"));
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a key"));
        }
        Ok(&self.text[start..self.pos])
    }

    fn value(&mut self) -> Result<RawValue<'a>, IngestError> {
        if self.peek() == Some(b'"') {
            self.quoted()
        } else {
            let start = self.pos;
            while let Some(byte) = self.peek() {
                if matches!(byte, b' ' | b'\t') {
                    break;
                }
                if byte == b'"' {
                    return Err(self.error("`\"` inside a bare value (quote the whole value)"));
                }
                self.pos += 1;
            }
            // `key=` (empty bare value) is an empty string, as Go logfmt
            // reads it.
            Ok(RawValue::Str(Cow::Borrowed(&self.text[start..self.pos])))
        }
    }

    fn quoted(&mut self) -> Result<RawValue<'a>, IngestError> {
        self.pos += 1; // opening quote
                       // The value stays a slice of the line until an escape forces a
                       // copy; each run of plain bytes is then appended whole.
        let mut decoded: Option<String> = None;
        let mut run_start = self.pos;
        loop {
            self.pos += self.bytes[self.pos..]
                .iter()
                .position(|&byte| byte == b'"' || byte == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            let run = &self.text[run_start..self.pos];
            match self.peek() {
                None => return Err(self.error("unterminated quoted value")),
                Some(b'"') => {
                    self.pos += 1;
                    // The quoted value must end the token.
                    if let Some(byte) = self.peek() {
                        if !matches!(byte, b' ' | b'\t') {
                            return Err(self.error("content after the closing quote"));
                        }
                    }
                    return Ok(RawValue::Str(scanned_text(decoded, run)));
                }
                Some(_) => {
                    // A backslash.
                    self.pos += 1;
                    let ch = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        _ => return Err(self.error("invalid escape in quoted value")),
                    };
                    self.pos += 1;
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(ch);
                    run_start = self.pos;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<RawRecord<'_>, IngestError> {
        parse_line(1, line)
    }

    #[test]
    fn bare_quoted_and_flag_values_parse() {
        let record =
            parse(r#"seq=9 user=u-3 msg="hello world" note="a=\"b\" \\ end" empty= verbose"#)
                .unwrap();
        assert_eq!(record.get("seq"), Some(&RawValue::Str("9".into())));
        assert_eq!(record.get("msg"), Some(&RawValue::Str("hello world".into())));
        assert_eq!(record.get("note"), Some(&RawValue::Str("a=\"b\" \\ end".into())));
        assert_eq!(record.get("empty"), Some(&RawValue::Str("".into())));
        assert_eq!(record.get("verbose"), Some(&RawValue::Bool(true)));
    }

    #[test]
    fn repeated_spaces_and_blank_lines_are_fine() {
        let record = parse("  a=1   b=2  ").unwrap();
        assert_eq!(record.len(), 2);
        assert!(parse("").unwrap().is_empty());
    }

    #[test]
    fn duplicates_and_malformations_are_typed() {
        assert!(matches!(parse("a=1 a=2"), Err(IngestError::DuplicateKey { column: 5, .. })));
        assert!(matches!(parse(r#"a="unterminated"#), Err(IngestError::Syntax { .. })));
        assert!(matches!(parse(r#"a="x"y"#), Err(IngestError::Syntax { .. })));
        assert!(matches!(parse(r#"a=b"c"#), Err(IngestError::Syntax { .. })));
        assert!(matches!(parse(r#"a="\q""#), Err(IngestError::Syntax { .. })));
        assert!(matches!(parse(r#"="v""#), Err(IngestError::Syntax { .. })));
        // The borrowing scan hands over to the decoder mid-value, and a
        // borrowed value ends its token, at the decoder's columns.
        for (line, bad_col) in [
            (r#"a="x"y"#, 6),
            (r#"a=b"c"#, 4),
            (r#"a="\q""#, 5),
            (r#"a="plainplainplain\q""#, 20),
            (r#"a="plain\"rest"#, 15),
            (r#"a="plain" b="plain"x"#, 20),
            (r#"a="plain"""#, 10),
            (r#"a="unterminated"#, 16),
        ] {
            match parse(line) {
                Err(IngestError::Syntax { column, .. }) => {
                    assert_eq!(column, bad_col, "line {line:?}")
                }
                other => panic!("line {line:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn plain_values_borrow_and_escaped_values_decode() {
        let record = parse(r#"user=u-1 msg="hello world" note="a\"b""#).unwrap();
        assert!(matches!(record.get("user"), Some(RawValue::Str(Cow::Borrowed("u-1")))));
        assert!(matches!(record.get("msg"), Some(RawValue::Str(Cow::Borrowed("hello world")))));
        assert!(
            matches!(record.get("note"), Some(RawValue::Str(Cow::Owned(note))) if note == "a\"b")
        );
    }

    #[test]
    fn multibyte_values_round_trip() {
        let record = parse(r#"city="Zürich 東京""#).unwrap();
        assert_eq!(record.get("city"), Some(&RawValue::Str("Zürich 東京".into())));
    }
}
