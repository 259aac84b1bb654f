//! The incremental line-at-a-time ingest state machine: [`LineIngestor`].
//!
//! [`ingest_bytes`](crate::ingest_bytes) and the live tail
//! ([`crate::live`]) must agree *exactly* on how bytes become events —
//! format detection, CSV quote-parity joining, error policy, sequence
//! assignment — or a live run could diverge from an offline replay of the
//! same bytes. Both therefore drive this one state machine: the offline
//! reader feeds it every split line of a whole buffer; the live pipeline
//! feeds it lines as the tail assembles them, carrying byte offsets so a
//! quarantined record can name exactly where in the stream it sat.

use crate::csv::{quote_count, CsvParser};
use crate::error::{ErrorPolicy, IngestError};
use crate::mapping::FieldMapping;
use crate::reader::Format;
use crate::resolve::Resolver;
use crate::{json, logfmt};
use privacy_runtime::Event;
use std::borrow::Cow;

/// How many raw bytes of a quarantined line are preserved verbatim in its
/// dead-letter record (a hostile megabyte line must not balloon the file).
pub const QUARANTINE_RAW_LIMIT: usize = 512;

/// One line the ingestor refused, with full provenance: the typed error,
/// the byte span the record occupied in the (decompressed) stream, and a
/// bounded copy of the raw bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedLine {
    /// Why the line was refused.
    pub error: IngestError,
    /// Byte offset of the record's first byte in the stream.
    pub offset: u64,
    /// Byte offset one past the record's last byte (its terminator
    /// included, when one was seen).
    pub end_offset: u64,
    /// The raw line, lossily decoded and truncated to
    /// [`QUARANTINE_RAW_LIMIT`] bytes.
    pub raw: String,
}

/// What one pushed line produced.
#[derive(Debug, Clone, PartialEq)]
pub enum LinePush {
    /// The line (or the CSV record it completed) resolved to an event.
    Event(Event),
    /// Nothing yet: a blank line, the CSV header, or a multi-line CSV
    /// record still accumulating.
    Pending,
    /// The line was refused and, under [`ErrorPolicy::Skip`], quarantined.
    Quarantined(QuarantinedLine),
}

/// The streaming bytes → events state machine. See the module docs.
#[derive(Debug)]
pub struct LineIngestor {
    resolver: Resolver,
    policy: ErrorPolicy,
    max_line_bytes: usize,
    /// The declared format, if any (pins detection).
    declared: Option<Format>,
    /// The format in effect once declared or detected.
    format: Option<Format>,
    csv: CsvParser,
    /// A CSV record whose quoted cell spans physical lines, still
    /// accumulating: (starting line number, starting byte offset, text).
    csv_pending: Option<(u64, u64, String)>,
    /// Physical lines seen (including blanks and the CSV header).
    lines: u64,
    /// Events resolved.
    events: u64,
    /// Lines quarantined/skipped.
    skipped: u64,
    /// Byte offset up to which every record is fully consumed (resolved or
    /// quarantined) — the safe resume point. Lags behind the feed position
    /// while a multi-line CSV record is pending.
    consumed_through: u64,
}

impl LineIngestor {
    /// A fresh ingestor over `mapping`. `format: None` auto-detects from
    /// the first non-blank line.
    #[must_use]
    pub fn new(
        mapping: FieldMapping,
        format: Option<Format>,
        policy: ErrorPolicy,
        max_line_bytes: usize,
    ) -> Self {
        LineIngestor {
            resolver: Resolver::new(mapping),
            policy,
            max_line_bytes,
            declared: format,
            format,
            csv: CsvParser::new(),
            csv_pending: None,
            lines: 0,
            events: 0,
            skipped: 0,
            consumed_through: 0,
        }
    }

    /// Restores the resume-relevant state written by a pipeline checkpoint:
    /// the pinned format (so detection cannot flip mid-stream on resume),
    /// the cumulative line/event/skip counters, and the sequence counters.
    pub fn restore(
        &mut self,
        format: Option<Format>,
        lines: u64,
        events: u64,
        skipped: u64,
        next_sequence: u64,
    ) {
        if let Some(format) = format {
            self.format = Some(format);
            self.declared = Some(format);
        }
        self.lines = lines;
        self.events = events;
        self.skipped = skipped;
        self.resolver.restore_sequences(next_sequence);
    }

    /// The format in effect (declared, or detected once a record line has
    /// been seen).
    #[must_use]
    pub fn format(&self) -> Option<Format> {
        self.format
    }

    /// Physical lines seen so far (blanks and the CSV header included).
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Events resolved so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Lines quarantined so far.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The next sequence number the resolver would auto-assign.
    #[must_use]
    pub fn next_sequence(&self) -> u64 {
        self.resolver.next_sequence()
    }

    /// Byte offset through which every record is fully consumed — the
    /// offset a resumable checkpoint may safely record. While a multi-line
    /// CSV record is pending this lags at the pending record's start, so a
    /// resume re-reads (and re-joins) the whole record.
    #[must_use]
    pub fn consumed_through(&self) -> u64 {
        self.consumed_through
    }

    fn refuse(
        &mut self,
        error: IngestError,
        offset: u64,
        end_offset: u64,
        raw: &[u8],
    ) -> Result<LinePush, IngestError> {
        if error.is_line_scoped() && self.policy == ErrorPolicy::Skip {
            self.skipped += 1;
            self.consumed_through = end_offset;
            Ok(LinePush::Quarantined(QuarantinedLine {
                error,
                offset,
                end_offset,
                raw: bounded_lossy(raw),
            }))
        } else {
            Err(error)
        }
    }

    /// Feeds one physical line occupying stream bytes
    /// `start_offset..end_offset` (terminator included when present).
    ///
    /// # Errors
    ///
    /// Stream-level failures (an undetectable format) always fail;
    /// line-level failures fail under [`ErrorPolicy::FailFast`] and
    /// quarantine under [`ErrorPolicy::Skip`].
    pub fn push_line(
        &mut self,
        raw_line: &[u8],
        start_offset: u64,
        end_offset: u64,
    ) -> Result<LinePush, IngestError> {
        self.lines += 1;
        let line_no = self.lines;

        if raw_line.len() > self.max_line_bytes {
            let error = IngestError::LineTooLong {
                line: line_no,
                length: raw_line.len(),
                limit: self.max_line_bytes,
            };
            // A too-long line inside a pending CSV record poisons the whole
            // pending record.
            let (offset, _) = self.take_pending_span(start_offset);
            return self.refuse(error, offset, end_offset, raw_line);
        }
        let line = match std::str::from_utf8(raw_line) {
            Ok(line) => line.strip_suffix('\r').unwrap_or(line),
            Err(error) => {
                let error = IngestError::InvalidUtf8 {
                    line: line_no,
                    column: error.valid_up_to() as u32 + 1,
                };
                let (offset, _) = self.take_pending_span(start_offset);
                return self.refuse(error, offset, end_offset, raw_line);
            }
        };

        // Blank lines separate nothing; skip them silently (but not inside
        // a pending multi-line CSV cell, where they are content).
        if line.trim().is_empty() && self.csv_pending.is_none() {
            self.consumed_through = end_offset;
            return Ok(LinePush::Pending);
        }

        let format = match self.format {
            Some(format) => format,
            None => {
                let detected = detect_format(line, line_no)?;
                self.format = Some(detected);
                detected
            }
        };

        // The text of a CSV record, which the record parsed from it borrows.
        let csv_text: Cow<'_, str>;
        let (record_offset, record) = match format {
            Format::Json => (start_offset, json::parse_line(line_no, line)),
            Format::Logfmt => (start_offset, logfmt::parse_line(line_no, line)),
            Format::Csv => {
                // Join physical lines while a quoted cell is open.
                let (start_line, record_offset, text) = match self.csv_pending.take() {
                    Some((start_line, record_offset, mut text)) => {
                        text.push('\n');
                        text.push_str(line);
                        (start_line, record_offset, Cow::Owned(text))
                    }
                    None => (line_no, start_offset, Cow::Borrowed(line)),
                };
                if quote_count(&text) % 2 == 1 {
                    if text.len() > self.max_line_bytes {
                        // An unbalanced quote must not buffer unboundedly.
                        let error = IngestError::LineTooLong {
                            line: start_line,
                            length: text.len(),
                            limit: self.max_line_bytes,
                        };
                        return self.refuse(error, record_offset, end_offset, text.as_bytes());
                    }
                    self.csv_pending = Some((start_line, record_offset, text.into_owned()));
                    return Ok(LinePush::Pending);
                }
                csv_text = text;
                match self.csv.parse_record(start_line, &csv_text) {
                    Ok(None) => {
                        // Header row.
                        self.consumed_through = end_offset;
                        return Ok(LinePush::Pending);
                    }
                    Ok(Some(record)) => (record_offset, Ok(record)),
                    Err(error) => (record_offset, Err(error)),
                }
            }
        };

        match record.and_then(|record| self.resolver.resolve(&record)) {
            Ok(event) => {
                self.events += 1;
                self.consumed_through = end_offset;
                Ok(LinePush::Event(event))
            }
            Err(error) => self.refuse(error, record_offset, end_offset, line.as_bytes()),
        }
    }

    /// Takes the pending CSV span if any, returning the record's start
    /// offset (the pending start, else `fallback`).
    fn take_pending_span(&mut self, fallback: u64) -> (u64, bool) {
        match self.csv_pending.take() {
            Some((_, offset, _)) => (offset, true),
            None => (fallback, false),
        }
    }

    /// Ends the stream: an unterminated multi-line CSV record still pending
    /// is refused (quarantined under [`ErrorPolicy::Skip`]).
    ///
    /// # Errors
    ///
    /// As the pending record's parse failure under
    /// [`ErrorPolicy::FailFast`].
    pub fn finish(&mut self, end_offset: u64) -> Result<Option<LinePush>, IngestError> {
        let Some((start_line, record_offset, text)) = self.csv_pending.take() else {
            self.consumed_through = end_offset;
            return Ok(None);
        };
        let error = match self.csv.parse_record(start_line, &text) {
            Err(error) => error,
            // Unreachable (odd quote parity cannot parse), but stay total.
            Ok(_) => IngestError::Syntax {
                line: start_line,
                column: 1,
                format: Format::Csv,
                message: "unterminated quoted cell at end of input".to_owned(),
            },
        };
        self.refuse(error, record_offset, end_offset, text.as_bytes()).map(Some)
    }

    /// The format to report when the stream held no record line at all: the
    /// declared format, defaulting to JSON.
    #[must_use]
    pub fn fallback_format(&self) -> Format {
        self.format.or(self.declared).unwrap_or(Format::Json)
    }
}

/// Detects the format from the first non-blank line.
fn detect_format(line: &str, line_no: u64) -> Result<Format, IngestError> {
    let trimmed = line.trim_start();
    if trimmed.starts_with('{') {
        return Ok(Format::Json);
    }
    // Logfmt before CSV: a logfmt line's first token carries `=`; a CSV
    // header's first cell never does under the canonical schema, and a
    // comma inside the first whitespace-delimited token is CSV's signature.
    let first_token = trimmed.split([' ', '\t']).next().unwrap_or("");
    if first_token.contains('=') {
        return Ok(Format::Logfmt);
    }
    if trimmed.contains(',') {
        return Ok(Format::Csv);
    }
    Err(IngestError::UnknownFormat { line: line_no })
}

/// Lossily decodes and truncates raw bytes for a dead-letter record.
fn bounded_lossy(raw: &[u8]) -> String {
    let text = String::from_utf8_lossy(raw);
    if text.len() <= QUARANTINE_RAW_LIMIT {
        return text.into_owned();
    }
    let mut cut = QUARANTINE_RAW_LIMIT;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}… ({} bytes)", &text[..cut], raw.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingestor(policy: ErrorPolicy) -> LineIngestor {
        LineIngestor::new(FieldMapping::canonical(), None, policy, 1 << 20)
    }

    /// Feeds whole-buffer text line by line, as the live path would.
    fn feed(ingestor: &mut LineIngestor, text: &str) -> (Vec<Event>, Vec<QuarantinedLine>) {
        let mut events = Vec::new();
        let mut quarantined = Vec::new();
        let mut offset = 0u64;
        for line in text.split_inclusive('\n') {
            let raw = line.strip_suffix('\n').unwrap_or(line);
            let end = offset + line.len() as u64;
            match ingestor.push_line(raw.as_bytes(), offset, end).expect("push") {
                LinePush::Event(event) => events.push(event),
                LinePush::Quarantined(line) => quarantined.push(line),
                LinePush::Pending => {}
            }
            offset = end;
        }
        match ingestor.finish(offset).expect("finish") {
            Some(LinePush::Event(event)) => events.push(event),
            Some(LinePush::Quarantined(line)) => quarantined.push(line),
            _ => {}
        }
        (events, quarantined)
    }

    #[test]
    fn quarantined_lines_carry_byte_spans_and_raw_text() {
        let mut ingestor = ingestor(ErrorPolicy::Skip);
        let good = "user=u service=s actor=a action=read\n";
        let bad = "user=u service=s actor=a action=frobnicate\n";
        let text = format!("{good}{bad}{good}");
        let (events, quarantined) = feed(&mut ingestor, &text);
        assert_eq!(events.len(), 2);
        assert_eq!(quarantined.len(), 1);
        let q = &quarantined[0];
        assert_eq!(q.offset, good.len() as u64);
        assert_eq!(q.end_offset, (good.len() + bad.len()) as u64);
        assert_eq!(q.raw, bad.trim_end());
        assert!(matches!(q.error, IngestError::BadValue { line: 2, .. }));
        // Auto-sequencing does not leave a hole for the quarantined line.
        assert_eq!(events[1].sequence(), 2);
        assert_eq!(ingestor.consumed_through(), text.len() as u64);
    }

    #[test]
    fn consumed_offset_lags_while_a_csv_record_is_pending() {
        let mut ingestor = ingestor(ErrorPolicy::Skip);
        let header = "user,service,actor,action\n";
        let open = "\"u\n";
        ingestor.push_line(header.trim_end().as_bytes(), 0, header.len() as u64).unwrap();
        let end = (header.len() + open.len()) as u64;
        let push =
            ingestor.push_line(open.trim_end().as_bytes(), header.len() as u64, end).unwrap();
        assert_eq!(push, LinePush::Pending);
        // The pending record is not consumed: a resume must re-read it.
        assert_eq!(ingestor.consumed_through(), header.len() as u64);
        let close = "ser\",s,a,read\n";
        let final_end = end + close.len() as u64;
        let push = ingestor.push_line(close.trim_end().as_bytes(), end, final_end).unwrap();
        let LinePush::Event(event) = push else { panic!("expected event, got {push:?}") };
        assert_eq!(event.user().as_str(), "u\nser");
        assert_eq!(ingestor.consumed_through(), final_end);
    }

    #[test]
    fn fail_fast_surfaces_the_error_instead_of_quarantining() {
        let mut ingestor = ingestor(ErrorPolicy::FailFast);
        let error = ingestor.push_line(b"user=u action=badverb service=s actor=a", 0, 39);
        assert!(matches!(error, Err(IngestError::BadValue { .. })));
    }

    #[test]
    fn restore_pins_format_and_sequences() {
        let mut ingestor = ingestor(ErrorPolicy::Skip);
        ingestor.restore(Some(Format::Logfmt), 7, 5, 2, 41);
        let push = ingestor.push_line(b"user=u service=s actor=a action=read", 0, 36).unwrap();
        let LinePush::Event(event) = push else { panic!("expected event") };
        assert_eq!(event.sequence(), 41);
        assert_eq!(ingestor.lines(), 8);
        assert_eq!(ingestor.format(), Some(Format::Logfmt));
    }

    #[test]
    fn bounded_lossy_truncates_and_marks_invalid_utf8() {
        assert_eq!(bounded_lossy(b"plain"), "plain");
        let long = vec![b'x'; QUARANTINE_RAW_LIMIT + 100];
        let shown = bounded_lossy(&long);
        assert!(shown.ends_with("bytes)"));
        assert!(bounded_lossy(b"a\xffb").contains('\u{FFFD}'));
    }
}
