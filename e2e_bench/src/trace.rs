//! Tracing from outside the layers: spans recorded around the calls the
//! benchmark makes into each layer, kept in memory and written out at the
//! end of a run.
//!
//! Two instruments feed it. [`TimedReader`] and [`TimedSink`] wrap the
//! source and the monitor sink of the real `PipelineRunner`; [`replay`]
//! drives the same bytes serially through the public calls of each layer in
//! pipeline order, so every layer's self time is measured on its own.

use crate::corpus::Prefix;
use crate::measure::AlertDigest;
use privacy_mde::distrib::CheckpointStore;
use privacy_mde::ingest::live::LineAssembler;
use privacy_mde::ingest::{ErrorPolicy, FieldMapping, LineIngestor, LinePush};
use privacy_mde::pipeline::{IndexedSink, MonitorSink, PipelineCheckpoint, PipelineError};
use privacy_mde::runtime::{Alert, Event};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) parent: Option<usize>,
    pub(crate) batch: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span store shared by the instrumented components.
#[derive(Debug)]
pub(crate) struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub(crate) fn new() -> Arc<Tracer> {
        Arc::new(Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no thread panics while holding the span store")
    }

    /// Records a finished span and returns its id.
    pub(crate) fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        batch: u64,
    ) -> usize {
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, batch };
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that children can name as their parent; close it with
    /// [`Tracer::close`].
    pub(crate) fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, 0)
    }

    pub(crate) fn close(&self, id: usize) {
        let end = self.ns(Instant::now());
        self.lock()[id].end_ns = end;
    }

    pub(crate) fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes every span as one NDJSON line.
    pub(crate) fn write_ndjson(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, span) in self.lock().iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"batch\":{}}}\n",
                span.name, span.start_ns, span.end_ns, span.batch
            ));
        }
        std::fs::File::create(path)
            .and_then(|mut file| file.write_all(out.as_bytes()))
            .map_err(|error| format!("writing spans to {}: {error}", path.display()))
    }
}

/// Total self time (seconds) and span count per name, over the spans under
/// `root` (the root included). A span's self time is its duration minus the
/// durations of its direct children.
pub(crate) fn self_times(spans: &[Span], root: usize) -> BTreeMap<&'static str, (f64, u64)> {
    let in_tree = |mut id: usize| loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(parent) => id = parent,
            None => return false,
        }
    };
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut totals: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        if in_tree(id) {
            let own = span.duration_ns().saturating_sub(child_ns[id]);
            let entry = totals.entry(span.name).or_default();
            entry.0 += own as f64 / 1e9;
            entry.1 += 1;
        }
    }
    totals
}

/// Each span name's share of `root`'s wall time, largest first; the root's
/// own self time — time no layer span covers — is named `unattributed`.
pub(crate) fn shares(spans: &[Span], root: usize) -> Vec<(&'static str, f64)> {
    let wall = spans[root].duration_ns() as f64 / 1e9;
    let mut shares: Vec<(&'static str, f64)> = self_times(spans, root)
        .into_iter()
        .map(|(name, (secs, _))| {
            (if name == spans[root].name { "unattributed" } else { name }, secs / wall)
        })
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// The `unattributed` entry of [`shares`].
pub(crate) fn unattributed(shares: &[(&str, f64)]) -> f64 {
    shares.iter().find(|(name, _)| *name == "unattributed").map_or(0.0, |&(_, share)| share)
}

/// [`shares`] as one line for a report.
pub(crate) fn describe_shares(shares: &[(&str, f64)]) -> String {
    let parts: Vec<String> =
        shares.iter().map(|(name, share)| format!("{name} {:.1}%", share * 100.0)).collect();
    parts.join(", ")
}

/// A reader that records a `read` span around every read of its source.
pub(crate) struct TimedReader<R> {
    inner: R,
    tracer: Arc<Tracer>,
    parent: usize,
    reads: u64,
}

impl<R> TimedReader<R> {
    pub(crate) fn new(inner: R, tracer: Arc<Tracer>, parent: usize) -> Self {
        TimedReader { inner, tracer, parent, reads: 0 }
    }
}

impl<R: Read> Read for TimedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        let read = self.inner.read(buf);
        self.tracer.record("read", start, Instant::now(), Some(self.parent), self.reads);
        self.reads += 1;
        read
    }
}

/// A monitor sink that records a span around every call into the sink it
/// wraps, tagged with the batch number.
pub(crate) struct TimedSink<'a> {
    inner: &'a mut dyn MonitorSink,
    tracer: &'a Tracer,
    parent: usize,
    batches: u64,
}

impl<'a> TimedSink<'a> {
    pub(crate) fn new(inner: &'a mut dyn MonitorSink, tracer: &'a Tracer, parent: usize) -> Self {
        TimedSink { inner, tracer, parent, batches: 0 }
    }
}

impl MonitorSink for TimedSink<'_> {
    fn ingest(&mut self, events: &[Event]) -> Result<Vec<Alert>, PipelineError> {
        let start = Instant::now();
        let alerts = self.inner.ingest(events);
        self.tracer.record("sink.ingest", start, Instant::now(), Some(self.parent), self.batches);
        self.batches += 1;
        alerts
    }

    fn flush(&mut self) -> Result<Vec<Alert>, PipelineError> {
        let start = Instant::now();
        let alerts = self.inner.flush();
        self.tracer.record("sink.flush", start, Instant::now(), Some(self.parent), self.batches);
        alerts
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, PipelineError> {
        let start = Instant::now();
        let bytes = self.inner.snapshot();
        self.tracer.record("sink.snapshot", start, Instant::now(), Some(self.parent), self.batches);
        bytes
    }
}

/// What a serial replay did, besides its spans.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// The replay's root span.
    pub(crate) root: usize,
    pub(crate) events: u64,
    pub(crate) quarantined: u64,
    pub(crate) checkpoints: u64,
    /// Bytes of every `MonitorSnapshot` encoded.
    pub(crate) snapshot_bytes: u64,
    /// Bytes of every framed checkpoint written.
    pub(crate) checkpoint_bytes: u64,
    pub(crate) alerts: AlertDigest,
}

/// The pipeline's defaults the replay mirrors.
const MAX_LINE_BYTES: usize = 1 << 20;
const READ_CHUNK: usize = 64 << 10;

/// Replays `prefix` of the log at `path` serially through the pipeline's
/// layers, in pipeline order: read, `LineAssembler::push`,
/// `LineIngestor::push_line`, `IndexedSink::ingest` every `batch` events,
/// and every `checkpoint_every` events (0: only at the end) a checkpoint —
/// `IndexedMonitor::snapshot`, `MonitorSnapshot::to_bytes`,
/// `PipelineCheckpoint::to_bytes`, `CheckpointStore::write`. Digesting the
/// raised alerts for the oracle is a span of its own.
pub(crate) fn replay(
    path: &Path,
    prefix: Prefix,
    sink: &mut IndexedSink,
    batch: usize,
    checkpoint_every: u64,
    store: &CheckpointStore,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let mut source = std::fs::File::open(path)
        .map_err(|error| format!("replay: opening {}: {error}", path.display()))?
        .take(prefix.bytes);
    let root = tracer.open("replay", None);
    let mut replay = Replay { root, ..Replay::default() };
    let mut assembler = LineAssembler::new(MAX_LINE_BYTES + 1);
    let mut ingestor =
        LineIngestor::new(FieldMapping::canonical(), None, ErrorPolicy::Skip, MAX_LINE_BYTES);
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut lines = Vec::new();
    // Batches are cut exactly where the pipeline cuts them, each with the
    // stream position a checkpoint after it records.
    let mut pending: Vec<Event> = Vec::new();
    let mut ready: Vec<(Vec<Event>, PipelineCheckpoint)> = Vec::new();
    let mut scratch = String::new();
    let mut since_checkpoint = 0u64;
    let mut batches = 0u64;
    let position = |ingestor: &LineIngestor| PipelineCheckpoint {
        offset: ingestor.consumed_through(),
        lines: ingestor.lines(),
        next_sequence: ingestor.next_sequence(),
        events: ingestor.events(),
        skipped: ingestor.skipped(),
        format: ingestor.format(),
        snapshot: Vec::new(),
    };

    let mut eof = false;
    while !eof {
        let start = Instant::now();
        let read = source.read(&mut chunk).map_err(|error| format!("replay: read: {error}"))?;
        tracer.record("read", start, Instant::now(), Some(root), batches);
        let start = Instant::now();
        if read == 0 {
            eof = true;
            lines.extend(assembler.finish());
        } else {
            assembler.push(&chunk[..read], &mut lines);
        }
        tracer.record("assemble", start, Instant::now(), Some(root), batches);

        let start = Instant::now();
        for line in lines.drain(..) {
            match ingestor.push_line(&line.bytes, line.start, line.end) {
                Ok(LinePush::Event(event)) => {
                    pending.push(event);
                    if pending.len() >= batch {
                        ready.push((std::mem::take(&mut pending), position(&ingestor)));
                    }
                }
                Ok(LinePush::Quarantined(_)) => replay.quarantined += 1,
                Ok(LinePush::Pending) => {}
                Err(error) => return Err(format!("replay: {error}")),
            }
        }
        if eof {
            match ingestor.finish(assembler.offset()) {
                Ok(Some(LinePush::Event(event))) => pending.push(event),
                Ok(Some(LinePush::Quarantined(_))) => replay.quarantined += 1,
                Ok(_) => {}
                Err(error) => return Err(format!("replay: {error}")),
            }
            if !pending.is_empty() {
                ready.push((std::mem::take(&mut pending), position(&ingestor)));
            }
        }
        tracer.record("parse", start, Instant::now(), Some(root), batches);

        for (events, position) in ready.drain(..) {
            let start = Instant::now();
            let raised = sink.ingest(&events).map_err(|error| format!("replay: {error}"))?;
            let ingested = Instant::now();
            tracer.record("monitor", start, ingested, Some(root), batches);
            for alert in &raised {
                replay.alerts.add(alert, &mut scratch);
            }
            drop(raised);
            tracer.record("oracle", ingested, Instant::now(), Some(root), batches);
            replay.events += events.len() as u64;
            since_checkpoint += events.len() as u64;
            batches += 1;
            if checkpoint_every > 0 && since_checkpoint >= checkpoint_every {
                checkpoint(sink, position, store, tracer, root, batches, &mut replay)?;
                since_checkpoint = 0;
            }
        }
    }
    // The drain's final checkpoint.
    checkpoint(sink, position(&ingestor), store, tracer, root, batches, &mut replay)?;
    tracer.close(root);
    Ok(replay)
}

/// One checkpoint, each layer's call in its own span. Dropping the
/// captured snapshot is part of capture.
fn checkpoint(
    sink: &IndexedSink,
    mut position: PipelineCheckpoint,
    store: &CheckpointStore,
    tracer: &Tracer,
    root: usize,
    batch: u64,
    replay: &mut Replay,
) -> Result<(), String> {
    let start = Instant::now();
    let snapshot = sink.monitor().snapshot();
    tracer.record("snapshot.capture", start, Instant::now(), Some(root), batch);
    let start = Instant::now();
    let snapshot_bytes = snapshot.to_bytes();
    tracer.record("snapshot.encode", start, Instant::now(), Some(root), batch);
    let start = Instant::now();
    drop(snapshot);
    tracer.record("snapshot.capture", start, Instant::now(), Some(root), batch);
    replay.snapshot_bytes += snapshot_bytes.len() as u64;

    let start = Instant::now();
    position.snapshot = snapshot_bytes;
    let frame = position.to_bytes();
    tracer.record("checkpoint.frame", start, Instant::now(), Some(root), batch);
    let start = Instant::now();
    store.write(&frame).map_err(|error| format!("replay: checkpoint write: {error}"))?;
    tracer.record("store.write", start, Instant::now(), Some(root), batch);
    replay.checkpoint_bytes += frame.len() as u64;
    replay.checkpoints += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_within_the_tree() {
        let span =
            |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, batch: 0 };
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            span("a", 12, 20, Some(1)),
            span("other", 0, 1000, None),
        ];
        let totals = self_times(&spans, 0);
        assert_eq!(totals["root"], (50e-9, 1));
        assert_eq!(totals["a"], (30e-9, 2), "22 ns self of the outer a plus 8 ns of the inner");
        assert_eq!(totals["b"], (20e-9, 1));
        assert!(!totals.contains_key("other"));

        let shares = shares(&spans, 0);
        assert_eq!(shares[0], ("unattributed", 0.5));
        assert_eq!(describe_shares(&shares), "unattributed 50.0%, a 30.0%, b 20.0%");
    }

    #[test]
    fn tracer_records_and_writes_spans() {
        let tracer = Tracer::new();
        let root = tracer.open("root", None);
        let mut reader = TimedReader::new(&b"abc"[..], Arc::clone(&tracer), root);
        let mut out = Vec::new();
        reader.read_to_end(&mut out).expect("read");
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(out, b"abc");
        assert!(spans.iter().filter(|s| s.name == "read").count() >= 2, "data, then EOF");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let path = std::env::temp_dir().join(format!("e2e-bench-spans-{}", std::process::id()));
        tracer.write_ndjson(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), spans.len());
        assert!(text.starts_with("{\"id\":0,\"name\":\"root\""));
    }
}
