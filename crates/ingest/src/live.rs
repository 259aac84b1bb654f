//! Live log sources: a polling file tail and a long-lived pipe.
//!
//! Real log streams grow, rotate, truncate mid-record, and stall. This
//! module follows them without any platform-specific notification API —
//! a [`FileTail`] polls the path's metadata each round, distinguishing
//! three regimes by inode identity and size:
//!
//! * **growth** — new bytes past the read position are returned as
//!   [`SourceEvent::Data`];
//! * **rotation** — the path now names a different inode. The old file is
//!   drained to EOF *first* (no tail of the old segment is lost), then the
//!   new file is opened from its start and [`SourceEvent::Rotated`] marks
//!   the seam;
//! * **truncation** — same inode, but the file shrank below the read
//!   position. Reading restarts from byte zero of the rewritten file and
//!   [`SourceEvent::Truncated`] reports how many bytes of position were
//!   abandoned.
//!
//! The *logical stream* a live source produces is the concatenation of
//! every byte it observed, across rotations and truncations. Offsets in
//! that stream (tracked by [`LineAssembler`]) are what dead-letter records
//! and resumable checkpoints refer to — an offline replay of the same
//! observed bytes through [`crate::ingest_bytes`] lands on identical
//! offsets, which is exactly what the chaos harness asserts.
//!
//! Transient IO errors (interrupted reads, a momentarily missing path
//! during rotation) do not kill the source: polling retries with capped
//! exponential backoff, surfaced to the caller as [`SourceEvent::Idle`]
//! plus a suggested [`LiveSource::delay`]. Only a persistent failure
//! (more than [`FollowConfig::max_retries`] consecutive errors) becomes a
//! hard [`IngestError::Io`].

use crate::error::IngestError;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Tuning for a polled live source.
#[derive(Debug, Clone)]
pub struct FollowConfig {
    /// Sleep between polls when the source is idle (no new bytes).
    pub poll_interval: Duration,
    /// Ceiling for the exponential error backoff.
    pub max_backoff: Duration,
    /// Consecutive transient-error polls tolerated before the source
    /// fails hard with [`IngestError::Io`].
    pub max_retries: u32,
    /// Largest read returned per poll.
    pub chunk_bytes: usize,
    /// File offset to resume reading from (file tails only). If the file
    /// is already shorter than this at open, the regression is reported as
    /// [`SourceEvent::Truncated`] and reading restarts from byte zero.
    pub start_offset: u64,
}

impl Default for FollowConfig {
    fn default() -> Self {
        FollowConfig {
            poll_interval: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            max_retries: 10,
            chunk_bytes: 64 << 10,
            start_offset: 0,
        }
    }
}

/// One observation from a poll of a live source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceEvent {
    /// New bytes, contiguous in the logical stream.
    Data(Vec<u8>),
    /// The followed path now names a new file; the old one was fully
    /// drained before switching.
    Rotated,
    /// The followed file shrank in place; reading restarted from its
    /// start. `lost` is how far past the new end the old position was.
    Truncated {
        /// Bytes of abandoned read position.
        lost: u64,
    },
    /// Nothing new this poll; sleep [`LiveSource::delay`] and poll again.
    Idle,
    /// The source is exhausted for good (pipe closed). File tails never
    /// report this — a file that stops growing is merely [`Idle`].
    ///
    /// [`Idle`]: SourceEvent::Idle
    Eof,
}

/// A polling tail of a growing, rotating, possibly truncated file.
#[derive(Debug)]
pub struct FileTail {
    path: PathBuf,
    config: FollowConfig,
    file: Option<File>,
    /// Inode of the open file, for rotation detection.
    inode: u64,
    /// Bytes read from the current segment.
    pos: u64,
    /// Whether the configured `start_offset` is still to be applied.
    pending_seek: bool,
    rotations: u64,
    truncations: u64,
    errors: u32,
    backoff: Duration,
}

impl FileTail {
    /// Follows `path`. The file need not exist yet; polls report
    /// [`SourceEvent::Idle`] until it appears.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, config: FollowConfig) -> Self {
        let backoff = config.poll_interval;
        FileTail {
            path: path.into(),
            config,
            file: None,
            inode: 0,
            pos: 0,
            pending_seek: true,
            rotations: 0,
            truncations: 0,
            errors: 0,
            backoff,
        }
    }

    /// Rotations observed so far.
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Truncations observed so far.
    #[must_use]
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    fn transient(&mut self, error: &std::io::Error) -> Result<SourceEvent, IngestError> {
        self.errors += 1;
        if self.errors > self.config.max_retries {
            return Err(IngestError::Io {
                message: format!(
                    "{}: {error} ({} consecutive failures)",
                    self.path.display(),
                    self.errors
                ),
            });
        }
        self.backoff = (self.backoff * 2).min(self.config.max_backoff);
        Ok(SourceEvent::Idle)
    }

    fn settle(&mut self) {
        self.errors = 0;
        self.backoff = self.config.poll_interval;
    }

    fn open(&mut self) -> Result<SourceEvent, IngestError> {
        let file = match File::open(&self.path) {
            Ok(file) => file,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                // Not an error: the file may simply not exist yet, or a
                // rotation is mid-swap. Do not escalate the backoff.
                return Ok(SourceEvent::Idle);
            }
            Err(error) => return self.transient(&error),
        };
        let meta = match file.metadata() {
            Ok(meta) => meta,
            Err(error) => return self.transient(&error),
        };
        self.settle();
        self.inode = meta.ino();
        self.pos = 0;
        let mut file = file;
        if self.pending_seek {
            self.pending_seek = false;
            let resume = self.config.start_offset;
            if resume > 0 {
                if meta.len() >= resume {
                    if let Err(error) = file.seek(SeekFrom::Start(resume)) {
                        return self.transient(&error);
                    }
                    self.pos = resume;
                } else {
                    // The file regressed below the resume point while we
                    // were away: surface it as a truncation and re-read.
                    self.truncations += 1;
                    self.file = Some(file);
                    return Ok(SourceEvent::Truncated { lost: resume - meta.len() });
                }
            }
        }
        self.file = Some(file);
        Ok(SourceEvent::Idle)
    }

    fn poll(&mut self) -> Result<SourceEvent, IngestError> {
        if self.file.is_none() {
            let opened = self.open()?;
            if self.file.is_none() || opened != SourceEvent::Idle {
                return Ok(opened);
            }
        }
        let file = self.file.as_mut().expect("open() stored the file");

        let mut buf = vec![0u8; self.config.chunk_bytes];
        match file.read(&mut buf) {
            Ok(0) => {}
            Ok(read) => {
                self.settle();
                self.pos += read as u64;
                buf.truncate(read);
                return Ok(SourceEvent::Data(buf));
            }
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => {
                return Ok(SourceEvent::Idle);
            }
            Err(error) => return self.transient(&error),
        }

        // At EOF of the open segment: decide between quiet, rotated, and
        // truncated by re-statting the *path*.
        let meta = match std::fs::metadata(&self.path) {
            Ok(meta) => meta,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                // Deleted (or mid-rotation): the old segment is drained, so
                // drop the handle and wait for a successor.
                self.file = None;
                self.rotations += 1;
                return Ok(SourceEvent::Rotated);
            }
            Err(error) => return self.transient(&error),
        };
        self.settle();
        if meta.ino() != self.inode {
            // Rotation: the drained handle is stale; reopen at the path.
            self.file = None;
            self.rotations += 1;
            return Ok(SourceEvent::Rotated);
        }
        if meta.len() < self.pos {
            // In-place truncation: restart from the file's new beginning.
            let lost = self.pos - meta.len();
            if let Err(error) = self.file.as_mut().expect("checked above").seek(SeekFrom::Start(0))
            {
                return self.transient(&error);
            }
            self.truncations += 1;
            self.pos = 0;
            return Ok(SourceEvent::Truncated { lost });
        }
        Ok(SourceEvent::Idle)
    }
}

/// A long-lived pipe (typically stdin): reads until EOF, no rotation.
pub struct PipeSource {
    reader: Box<dyn Read + Send>,
    config: FollowConfig,
    errors: u32,
    backoff: Duration,
    done: bool,
}

impl std::fmt::Debug for PipeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeSource").field("done", &self.done).finish_non_exhaustive()
    }
}

impl PipeSource {
    /// Follows `reader` until it reports EOF.
    #[must_use]
    pub fn new(reader: Box<dyn Read + Send>, config: FollowConfig) -> Self {
        let backoff = config.poll_interval;
        PipeSource { reader, config, errors: 0, backoff, done: false }
    }

    fn poll(&mut self) -> Result<SourceEvent, IngestError> {
        if self.done {
            return Ok(SourceEvent::Eof);
        }
        let mut buf = vec![0u8; self.config.chunk_bytes];
        match self.reader.read(&mut buf) {
            Ok(0) => {
                self.done = true;
                Ok(SourceEvent::Eof)
            }
            Ok(read) => {
                self.errors = 0;
                self.backoff = self.config.poll_interval;
                buf.truncate(read);
                Ok(SourceEvent::Data(buf))
            }
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => Ok(SourceEvent::Idle),
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                self.backoff = (self.backoff * 2).min(self.config.max_backoff);
                Ok(SourceEvent::Idle)
            }
            Err(error) => {
                self.errors += 1;
                if self.errors > self.config.max_retries {
                    return Err(IngestError::Io {
                        message: format!("pipe: {error} ({} consecutive failures)", self.errors),
                    });
                }
                self.backoff = (self.backoff * 2).min(self.config.max_backoff);
                Ok(SourceEvent::Idle)
            }
        }
    }
}

/// Either live source behind one polling interface.
#[derive(Debug)]
pub enum LiveSource {
    /// A polled file tail.
    File(FileTail),
    /// A long-lived pipe.
    Pipe(PipeSource),
}

impl LiveSource {
    /// Tails the file at `path`.
    #[must_use]
    pub fn tail(path: impl Into<PathBuf>, config: FollowConfig) -> Self {
        LiveSource::File(FileTail::new(path, config))
    }

    /// Follows a pipe until EOF.
    #[must_use]
    pub fn pipe(reader: Box<dyn Read + Send>, config: FollowConfig) -> Self {
        LiveSource::Pipe(PipeSource::new(reader, config))
    }

    /// One non-blocking observation of the source.
    ///
    /// # Errors
    ///
    /// [`IngestError::Io`] once transient-error retries are exhausted.
    pub fn poll(&mut self) -> Result<SourceEvent, IngestError> {
        match self {
            LiveSource::File(tail) => tail.poll(),
            LiveSource::Pipe(pipe) => pipe.poll(),
        }
    }

    /// How long the caller should sleep before the next [`poll`] when the
    /// last one returned [`SourceEvent::Idle`] — the poll interval,
    /// exponentially inflated while transient errors persist.
    ///
    /// [`poll`]: LiveSource::poll
    #[must_use]
    pub fn delay(&self) -> Duration {
        match self {
            LiveSource::File(tail) => tail.backoff,
            LiveSource::Pipe(pipe) => pipe.backoff,
        }
    }

    /// The followed path, for file tails.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        match self {
            LiveSource::File(tail) => Some(&tail.path),
            LiveSource::Pipe(_) => None,
        }
    }
}

/// One complete line cut from the logical stream, with its byte span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembledLine {
    /// The line's bytes, terminator excluded, truncated to the assembler's
    /// storage cap (the span below is always exact).
    pub bytes: Vec<u8>,
    /// Logical stream offset of the line's first byte.
    pub start: u64,
    /// One past the line's last byte (the `\n` included when one was
    /// seen).
    pub end: u64,
}

/// Carries partial lines across reads, assigning logical stream offsets.
///
/// Chunks pushed in are treated as one contiguous byte stream; lines are
/// cut at `\n`. Storage per line is capped (a hostile unterminated line
/// cannot balloon memory): bytes past the cap are dropped from
/// [`AssembledLine::bytes`] but still counted in the span, so downstream
/// accounting — and the line-length refusal in
/// [`LineIngestor`](crate::stream::LineIngestor) — stays exact.
#[derive(Debug)]
pub struct LineAssembler {
    partial: Vec<u8>,
    /// Logical offset of the partial line's first byte.
    partial_start: u64,
    /// Logical offset of the next byte to be fed.
    fed: u64,
    /// Storage cap per line.
    cap: usize,
}

impl LineAssembler {
    /// An assembler storing at most `cap` bytes per line. Pick at least
    /// one byte more than the ingest line limit, so an over-long line is
    /// still recognisably over-long downstream.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        LineAssembler { partial: Vec::new(), partial_start: 0, fed: 0, cap }
    }

    /// Logical offset of the next byte to be fed.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.fed
    }

    /// Starts the logical stream at `offset` (resume). Must be called
    /// before any bytes are pushed.
    pub fn start_at(&mut self, offset: u64) {
        debug_assert_eq!(self.fed, 0);
        self.fed = offset;
        self.partial_start = offset;
    }

    /// Whether an unterminated line is currently buffered.
    #[must_use]
    pub fn has_partial(&self) -> bool {
        !self.partial.is_empty() || self.partial_start < self.fed
    }

    /// Feeds a chunk, appending every completed line to `out`.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<AssembledLine>) {
        let mut rest = chunk;
        while let Some(at) = rest.iter().position(|&byte| byte == b'\n') {
            self.absorb(&rest[..at]);
            self.fed += at as u64 + 1;
            out.push(AssembledLine {
                bytes: std::mem::take(&mut self.partial),
                start: self.partial_start,
                end: self.fed,
            });
            self.partial_start = self.fed;
            rest = &rest[at + 1..];
        }
        self.absorb(rest);
        self.fed += rest.len() as u64;
    }

    /// Flushes the buffered unterminated line, if any (stream end).
    pub fn finish(&mut self) -> Option<AssembledLine> {
        if !self.has_partial() {
            return None;
        }
        let line = AssembledLine {
            bytes: std::mem::take(&mut self.partial),
            start: self.partial_start,
            end: self.fed,
        };
        self.partial_start = self.fed;
        Some(line)
    }

    fn absorb(&mut self, bytes: &[u8]) {
        let room = self.cap.saturating_sub(self.partial.len());
        self.partial.extend_from_slice(&bytes[..bytes.len().min(room)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn assembler_cuts_lines_across_chunk_boundaries() {
        let mut assembler = LineAssembler::new(1 << 20);
        let mut out = Vec::new();
        assembler.push(b"alpha\nbra", &mut out);
        assembler.push(b"vo\ncha", &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], AssembledLine { bytes: b"alpha".to_vec(), start: 0, end: 6 });
        assert_eq!(out[1], AssembledLine { bytes: b"bravo".to_vec(), start: 6, end: 12 });
        assert!(assembler.has_partial());
        let tail = assembler.finish().expect("partial");
        assert_eq!(tail, AssembledLine { bytes: b"cha".to_vec(), start: 12, end: 15 });
        assert!(assembler.finish().is_none());
    }

    #[test]
    fn assembler_caps_storage_but_keeps_spans_exact() {
        let mut assembler = LineAssembler::new(4);
        let mut out = Vec::new();
        assembler.push(b"0123456789\nok\n", &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].bytes, b"0123");
        assert_eq!((out[0].start, out[0].end), (0, 11));
        assert_eq!(out[1].bytes, b"ok");
        assert_eq!((out[1].start, out[1].end), (11, 14));
    }

    #[test]
    fn assembler_resumes_at_a_nonzero_offset() {
        let mut assembler = LineAssembler::new(64);
        assembler.start_at(100);
        let mut out = Vec::new();
        assembler.push(b"x\n", &mut out);
        assert_eq!((out[0].start, out[0].end), (100, 102));
        assert_eq!(assembler.offset(), 102);
    }

    fn drain(tail: &mut FileTail) -> (Vec<u8>, Vec<SourceEvent>) {
        let mut bytes = Vec::new();
        let mut marks = Vec::new();
        loop {
            match tail.poll().expect("poll") {
                SourceEvent::Data(chunk) => bytes.extend_from_slice(&chunk),
                SourceEvent::Idle => break,
                other => marks.push(other),
            }
        }
        (bytes, marks)
    }

    #[test]
    fn tail_reads_growth_incrementally() {
        let dir = tempdir("tail-growth");
        let path = dir.join("app.log");
        std::fs::write(&path, b"one\n").unwrap();
        let mut tail = FileTail::new(&path, FollowConfig::default());
        let (bytes, _) = drain(&mut tail);
        assert_eq!(bytes, b"one\n");
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"two\n").unwrap();
        let (bytes, _) = drain(&mut tail);
        assert_eq!(bytes, b"two\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_drains_the_old_file_before_switching_on_rotation() {
        let dir = tempdir("tail-rotate");
        let path = dir.join("app.log");
        std::fs::write(&path, b"old-tail\n").unwrap();
        let mut tail = FileTail::new(&path, FollowConfig::default());
        let (bytes, _) = drain(&mut tail);
        assert_eq!(bytes, b"old-tail\n");
        // Rotate: move aside, then write a successor at the same path.
        std::fs::rename(&path, dir.join("app.log.1")).unwrap();
        std::fs::write(&path, b"new-head\n").unwrap();
        let (bytes, marks) = drain(&mut tail);
        assert_eq!(bytes, b"new-head\n");
        assert!(marks.contains(&SourceEvent::Rotated), "marks: {marks:?}");
        assert_eq!(tail.rotations(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_restarts_from_zero_on_truncation() {
        let dir = tempdir("tail-trunc");
        let path = dir.join("app.log");
        std::fs::write(&path, b"aaaa\nbbbb\n").unwrap();
        let mut tail = FileTail::new(&path, FollowConfig::default());
        let (bytes, _) = drain(&mut tail);
        assert_eq!(bytes.len(), 10);
        std::fs::write(&path, b"cc\n").unwrap();
        let (bytes, marks) = drain(&mut tail);
        assert_eq!(bytes, b"cc\n");
        assert!(matches!(marks[..], [SourceEvent::Truncated { lost: 7 }]), "marks: {marks:?}");
        assert_eq!(tail.truncations(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_resumes_from_a_start_offset() {
        let dir = tempdir("tail-resume");
        let path = dir.join("app.log");
        std::fs::write(&path, b"skip-me\nkeep\n").unwrap();
        let config = FollowConfig { start_offset: 8, ..FollowConfig::default() };
        let mut tail = FileTail::new(&path, config);
        let (bytes, _) = drain(&mut tail);
        assert_eq!(bytes, b"keep\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_waits_for_a_file_that_does_not_exist_yet() {
        let dir = tempdir("tail-wait");
        let path = dir.join("late.log");
        let mut tail = FileTail::new(&path, FollowConfig::default());
        assert_eq!(tail.poll().unwrap(), SourceEvent::Idle);
        std::fs::write(&path, b"here\n").unwrap();
        let (bytes, _) = drain(&mut tail);
        assert_eq!(bytes, b"here\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipe_reads_until_eof() {
        let mut source = PipeSource::new(Box::new(&b"a\nb\n"[..]), FollowConfig::default());
        let mut bytes = Vec::new();
        loop {
            match source.poll().expect("poll") {
                SourceEvent::Data(chunk) => bytes.extend_from_slice(&chunk),
                SourceEvent::Eof => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(bytes, b"a\nb\n");
        assert_eq!(source.poll().unwrap(), SourceEvent::Eof);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "privacy-ingest-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
