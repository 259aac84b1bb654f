//! The streaming front door: bytes → lines → records → events.
//!
//! [`ingest_bytes`] runs the whole pipeline: gzip auto-detection and
//! decompression, line splitting with CRLF tolerance and a line-length
//! limit, format auto-detection from the first non-blank line, per-format
//! parsing, and mapping-driven resolution — under either error policy.

use crate::error::{ErrorPolicy, IngestError};
use crate::gzip::{gunzip, is_gzip};
use crate::mapping::FieldMapping;
use crate::stream::{LineIngestor, LinePush};
use privacy_runtime::Event;
use std::fmt;

/// A supported log line format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One JSON object per line (NDJSON).
    Json,
    /// `key=value` pairs (logfmt).
    Logfmt,
    /// RFC 4180 CSV with a header row.
    Csv,
}

impl Format {
    /// All formats.
    pub const ALL: [Format; 3] = [Format::Json, Format::Logfmt, Format::Csv];

    /// The format's lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Format::Json => "json",
            Format::Logfmt => "logfmt",
            Format::Csv => "csv",
        }
    }

    /// Parses a format name (as the CLI's `--format` flag spells them).
    pub fn parse(name: &str) -> Option<Format> {
        match name.to_ascii_lowercase().as_str() {
            "json" | "ndjson" | "jsonl" => Some(Format::Json),
            "logfmt" => Some(Format::Logfmt),
            "csv" => Some(Format::Csv),
            _ => None,
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning knobs for one ingest run.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// The format to parse; `None` auto-detects from the first record line.
    pub format: Option<Format>,
    /// What to do with malformed lines.
    pub policy: ErrorPolicy,
    /// The per-line size limit in bytes (a guard against unbounded memory
    /// on garbage input, not a parsing feature).
    pub max_line_bytes: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { format: None, policy: ErrorPolicy::default(), max_line_bytes: 1 << 20 }
    }
}

/// One skipped line under [`ErrorPolicy::Skip`].
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    error: IngestError,
    offset: u64,
}

impl Diagnostic {
    /// The error that caused the skip.
    pub fn error(&self) -> &IngestError {
        &self.error
    }

    /// Byte offset of the skipped record's first byte in the
    /// (decompressed) stream.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "skipped: {}", self.error)
    }
}

/// Counters for one ingest run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Physical lines seen (including blanks and the CSV header).
    pub lines: u64,
    /// Events successfully resolved.
    pub events: u64,
    /// Lines skipped under [`ErrorPolicy::Skip`].
    pub skipped: u64,
    /// Decompressed input size in bytes.
    pub bytes: u64,
}

/// The result of one ingest run.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// The resolved events, in input order.
    pub events: Vec<Event>,
    /// One diagnostic per skipped line (empty under
    /// [`ErrorPolicy::FailFast`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Run counters.
    pub stats: IngestStats,
    /// The format that was parsed (declared or detected).
    pub format: Format,
}

/// Ingests a byte buffer (a log file already read into memory).
///
/// # Errors
///
/// Stream-level failures (corrupt gzip, undetectable format) always fail;
/// line-level failures fail or skip per [`IngestOptions::policy`].
pub fn ingest_bytes(
    bytes: &[u8],
    mapping: &FieldMapping,
    options: &IngestOptions,
) -> Result<IngestReport, IngestError> {
    let decompressed;
    let payload = if is_gzip(bytes) {
        decompressed = gunzip(bytes)?;
        &decompressed[..]
    } else {
        bytes
    };
    ingest_payload(payload, mapping, options)
}

fn ingest_payload(
    payload: &[u8],
    mapping: &FieldMapping,
    options: &IngestOptions,
) -> Result<IngestReport, IngestError> {
    // The whole-buffer path drives the same [`LineIngestor`] state machine
    // as the live tail, so an offline replay of live-observed bytes is
    // guaranteed to agree with the live run line for line.
    let mut ingestor =
        LineIngestor::new(mapping.clone(), options.format, options.policy, options.max_line_bytes);
    let mut events = Vec::new();
    let mut diagnostics = Vec::new();

    let mut start = 0usize;
    while start < payload.len() {
        let (line_end, next) = match payload[start..].iter().position(|&byte| byte == b'\n') {
            Some(at) => (start + at, start + at + 1),
            None => (payload.len(), payload.len()),
        };
        match ingestor.push_line(&payload[start..line_end], start as u64, next as u64)? {
            LinePush::Event(event) => events.push(event),
            LinePush::Quarantined(line) => {
                diagnostics.push(Diagnostic { error: line.error, offset: line.offset });
            }
            LinePush::Pending => {}
        }
        start = next;
    }
    // An unterminated quoted cell at end of input.
    match ingestor.finish(payload.len() as u64)? {
        Some(LinePush::Event(event)) => events.push(event),
        Some(LinePush::Quarantined(line)) => {
            diagnostics.push(Diagnostic { error: line.error, offset: line.offset });
        }
        Some(LinePush::Pending) | None => {}
    }

    let stats = IngestStats {
        lines: ingestor.lines(),
        events: ingestor.events(),
        skipped: ingestor.skipped(),
        bytes: payload.len() as u64,
    };
    // Nothing but blank lines reports the declared format or defaults to
    // JSON; there are no events either way.
    let format = ingestor.fallback_format();
    Ok(IngestReport { events, diagnostics, stats, format })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gzip::gzip_compress_stored;
    use privacy_lts::ActionKind;

    fn canonical(bytes: &[u8], options: &IngestOptions) -> Result<IngestReport, IngestError> {
        ingest_bytes(bytes, &FieldMapping::canonical(), options)
    }

    #[test]
    fn each_format_is_auto_detected_and_parsed() {
        let json = b"{\"seq\": 1, \"user\": \"u\", \"service\": \"s\", \"actor\": \"a\", \
                     \"action\": \"read\", \"fields\": [\"f\"], \"permitted\": true}\n";
        let logfmt = b"seq=1 user=u service=s actor=a action=read fields=f permitted=true\n";
        let csv = b"seq,user,service,actor,action,fields,store,permitted\n1,u,s,a,read,f,,true\n";
        for (bytes, expected) in
            [(&json[..], Format::Json), (&logfmt[..], Format::Logfmt), (&csv[..], Format::Csv)]
        {
            let report = canonical(bytes, &IngestOptions::default()).unwrap();
            assert_eq!(report.format, expected);
            assert_eq!(report.events.len(), 1, "{expected}");
            let event = &report.events[0];
            assert_eq!(event.sequence(), 1);
            assert_eq!(event.action(), ActionKind::Read);
            assert_eq!(event.fields().len(), 1);
            assert!(event.permitted());
        }
    }

    #[test]
    fn gzip_wrapped_input_is_transparent() {
        let plain = b"seq=1 user=u service=s actor=a action=collect\n";
        let archive = gzip_compress_stored(plain);
        let report = canonical(&archive, &IngestOptions::default()).unwrap();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.stats.bytes, plain.len() as u64);
        assert!(matches!(
            canonical(&archive[..archive.len() - 3], &IngestOptions::default()),
            Err(IngestError::Gzip(_))
        ));
    }

    #[test]
    fn skip_policy_collects_diagnostics_and_keeps_going() {
        let bytes = b"user=u service=s actor=a action=read\n\
                      user=u action=badverb service=s actor=a\n\
                      user=u service=s actor=a action=delete\n";
        let options = IngestOptions { policy: ErrorPolicy::Skip, ..IngestOptions::default() };
        let report = canonical(bytes, &options).unwrap();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.stats.skipped, 1);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].error().line(), Some(2));
        // Auto-sequencing does not leave a hole for the skipped line.
        assert_eq!(report.events[1].sequence(), 2);

        // Fail-fast stops at the bad line instead.
        assert!(matches!(
            canonical(bytes, &IngestOptions::default()),
            Err(IngestError::BadValue { line: 2, .. })
        ));
    }

    #[test]
    fn multi_line_csv_cells_join_on_quote_parity() {
        let bytes = b"user,service,actor,action,fields\n\"u\nser\",s,a,read,f\n";
        let report = canonical(bytes, &IngestOptions::default()).unwrap();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].user().as_str(), "u\nser");
    }

    #[test]
    fn line_limits_utf8_and_unknown_formats_are_typed() {
        let options = IngestOptions { max_line_bytes: 16, ..IngestOptions::default() };
        assert!(matches!(
            canonical(b"user=u service=s actor=a action=read\n", &options),
            Err(IngestError::LineTooLong { line: 1, .. })
        ));
        assert!(matches!(
            canonical(b"user=\xff\xfe service=s\n", &IngestOptions::default()),
            Err(IngestError::InvalidUtf8 { line: 1, column: 6 })
        ));
        assert!(matches!(
            canonical(b"no format markers here\n", &IngestOptions::default()),
            Err(IngestError::UnknownFormat { line: 1 })
        ));
        // Stream-level errors fail even under Skip.
        let skip = IngestOptions { policy: ErrorPolicy::Skip, ..IngestOptions::default() };
        assert!(matches!(
            canonical(b"no format markers here\n", &skip),
            Err(IngestError::UnknownFormat { line: 1 })
        ));
    }

    #[test]
    fn blank_lines_crlf_and_empty_inputs_are_tolerated() {
        let bytes = b"\r\n\nuser=u service=s actor=a action=read\r\n\n";
        let report = canonical(bytes, &IngestOptions::default()).unwrap();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.stats.lines, 4);

        let empty = canonical(b"", &IngestOptions::default()).unwrap();
        assert!(empty.events.is_empty());
        let blank = canonical(b"\n\n", &IngestOptions::default()).unwrap();
        assert!(blank.events.is_empty());
    }

    #[test]
    fn declared_format_overrides_detection() {
        // A logfmt-looking line parsed as CSV: header with one `=` column.
        let bytes = b"a=1\nb=2\n";
        let options = IngestOptions { format: Some(Format::Csv), ..IngestOptions::default() };
        // Header `a=1`, then record `b=2` — one cell each; mapping fails on
        // a missing user column.
        assert!(matches!(canonical(bytes, &options), Err(IngestError::MissingColumn { .. })));
    }

    #[test]
    fn unterminated_csv_quote_at_eof_is_an_error_fail_fast_and_a_skip_otherwise() {
        let bytes = b"user,service,actor,action\n\"open,s,a,read\n";
        assert!(matches!(
            canonical(bytes, &IngestOptions::default()),
            Err(IngestError::Syntax { .. })
        ));
        let skip = IngestOptions { policy: ErrorPolicy::Skip, ..IngestOptions::default() };
        let report = canonical(bytes, &skip).unwrap();
        assert!(report.events.is_empty());
        assert_eq!(report.stats.skipped, 1);
    }

    #[test]
    fn format_names_parse() {
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("NDJSON"), Some(Format::Json));
        assert_eq!(Format::parse("logfmt"), Some(Format::Logfmt));
        assert_eq!(Format::parse("csv"), Some(Format::Csv));
        assert_eq!(Format::parse("xml"), None);
        for format in Format::ALL {
            assert_eq!(Format::parse(format.as_str()), Some(format));
        }
    }
}
