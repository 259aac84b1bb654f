//! The live pipeline: supervised tail-to-alert operation.
//!
//! [`PipelineRunner`] wires a [`LiveSource`] (a polled file tail or a
//! long-lived pipe) through a [`FieldMapping`] into a monitor sink — the
//! in-process [`IndexedMonitor`] or the multi-process
//! [`DistributedMonitor`] — with the operational guarantees a monitor
//! that runs for days needs:
//!
//! * **Backpressure, not unbounded growth.** A parser thread assembles
//!   lines and resolves events; batches travel to the monitor loop over a
//!   *bounded* queue ([`std::sync::mpsc::sync_channel`]). When the
//!   monitor falls behind, the parser blocks — memory stays flat.
//! * **Poison quarantine, not death.** A record the ingest refuses is
//!   appended to a dead-letter NDJSON file
//!   ([`privacy_ingest::deadletter`]) with its typed error and exact byte
//!   span in the logical stream; the pipeline keeps going. Nothing is
//!   silently dropped: the chaos harness (`tests/live_chaos.rs`) asserts
//!   the dead-letter file accounts for every record the offline run
//!   refuses.
//! * **Resumable checkpoints, off the monitor thread.** Every
//!   `checkpoint_every_events` resolved events, the monitor loop captures
//!   the sink's state at the batch's exact stream point — for the indexed
//!   sink an immutable [`MonitorSnapshot`] that shares the monitor's cached
//!   shard bodies — and submits it with the stream position (offset, line
//!   count, sequence counter, pinned format) to a [`CheckpointWriter`]. The
//!   writer's thread encodes the [`PipelineCheckpoint`] and writes it
//!   atomically through [`CheckpointStore`] while the monitor keeps
//!   ingesting. At most one checkpoint waits behind the one being written,
//!   and a further submit blocks, so a periodic checkpoint is durable
//!   within one checkpoint interval of its capture while the disk keeps
//!   up, and before the monitor loop gets past the checkpoint after next
//!   when it does not. [`PipelineProgress::checkpoints`] and
//!   [`PipelineReport::checkpoints`] count durable checkpoints only. A
//!   failed write surfaces as [`PipelineError::Io`] at the next checkpoint
//!   or at drain.
//! * **Graceful drain.** On a stop signal (the [`PipelineRunner::stop_handle`]
//!   handle, a `--stop-file`, or pipe EOF) the parser finishes the
//!   partial line it is carrying, the queue drains, pending alerts flush,
//!   and a final checkpoint is written — durable before
//!   [`PipelineRunner::run`] returns — so a subsequent run with
//!   [`PipelineConfig::resume`] continues the identical stream.
//!
//! Live-vs-offline equivalence is structural, not aspirational: both this
//! runner and [`privacy_ingest::ingest_bytes`] drive the same
//! [`LineIngestor`] state machine, so a live run over some observed bytes
//! and an offline run over the same bytes agree event for event and
//! quarantine for quarantine.
//!
//! One live limitation is explicit: a gzip stream cannot be tailed
//! incrementally (its integrity is only checkable whole), so a source
//! that opens with the gzip magic is buffered until the stream ends and
//! decompressed at drain; a corrupt archive becomes a stream-level
//! dead-letter entry and a fatal error, exactly like the offline path.

use privacy_distrib::{
    CheckpointJob, CheckpointStore, CheckpointWriteError, CheckpointWriter, DistributedMonitor,
};
use privacy_ingest::deadletter::{read_dead_letters, DeadLetterRecord, DeadLetterWriter};
use privacy_ingest::live::{FollowConfig, LineAssembler, LiveSource, SourceEvent};
use privacy_ingest::stream::{LineIngestor, LinePush, QuarantinedLine};
use privacy_ingest::{gunzip, is_gzip, ErrorPolicy, FieldMapping, Format, IngestError};
use privacy_interchange::binary::{CodecError, Decoder, Encoder};
use privacy_model::{ServiceId, UserId, UserProfile};
use privacy_runtime::{Alert, Event, IndexedMonitor, MonitorSnapshot};
use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Frame kind for a serialised [`PipelineCheckpoint`].
pub const PIPELINE_CHECKPOINT_KIND: [u8; 4] = *b"PPLC";
const PIPELINE_CHECKPOINT_VERSION: u32 = 1;

/// Why a pipeline run failed.
#[derive(Debug)]
pub enum PipelineError {
    /// The source or parser failed fatally (IO retries exhausted, a
    /// stream-level error, or a line-level error under fail-fast).
    Ingest(IngestError),
    /// The monitor sink rejected events or could not flush.
    Monitor(String),
    /// A checkpoint or dead-letter file could not be read or written.
    Io(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Ingest(error) => write!(f, "ingest: {error}"),
            PipelineError::Monitor(message) => write!(f, "monitor: {message}"),
            PipelineError::Io(message) => write!(f, "io: {message}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<IngestError> for PipelineError {
    fn from(error: IngestError) -> Self {
        PipelineError::Ingest(error)
    }
}

/// Live counters shared with whoever launched the pipeline (the chaos
/// harness synchronises fault injection on these; a CLI could render
/// them). All counters are monotone within one run.
#[derive(Debug, Default)]
pub struct PipelineProgress {
    /// Raw bytes observed from the source.
    pub bytes: AtomicU64,
    /// Events resolved by the parser.
    pub events: AtomicU64,
    /// Events ingested by the monitor sink.
    pub ingested: AtomicU64,
    /// Alerts raised.
    pub alerts: AtomicU64,
    /// Records quarantined to the dead-letter file.
    pub quarantined: AtomicU64,
    /// Checkpoints made durable.
    pub checkpoints: AtomicU64,
    /// Source rotations observed.
    pub rotations: AtomicU64,
    /// Source truncations observed.
    pub truncations: AtomicU64,
}

impl PipelineProgress {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Loads a counter.
    #[must_use]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// The resume-relevant state a pipeline persists, framed as `PPLC` via
/// [`privacy_interchange::binary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineCheckpoint {
    /// Logical stream offset through which every record is consumed.
    pub offset: u64,
    /// Physical lines consumed.
    pub lines: u64,
    /// The next sequence number the resolver will auto-assign.
    pub next_sequence: u64,
    /// Events resolved so far.
    pub events: u64,
    /// Records quarantined so far.
    pub skipped: u64,
    /// The pinned format (detection must not flip on resume).
    pub format: Option<Format>,
    /// The embedded [`MonitorSnapshot`] bytes (empty for sinks that
    /// checkpoint themselves, like the distributed monitor).
    pub snapshot: Vec<u8>,
}

fn format_tag(format: Option<Format>) -> u8 {
    match format {
        None => 0,
        Some(Format::Json) => 1,
        Some(Format::Logfmt) => 2,
        Some(Format::Csv) => 3,
    }
}

fn tag_format(tag: u8) -> Result<Option<Format>, CodecError> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(Format::Json)),
        2 => Ok(Some(Format::Logfmt)),
        3 => Ok(Some(Format::Csv)),
        other => Err(CodecError::Malformed {
            what: "format tag",
            detail: format!("unknown discriminant {other}"),
        }),
    }
}

impl PipelineCheckpoint {
    /// Serialises the checkpoint as one framed, checksummed blob.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let position = StreamMeta {
            offset: self.offset,
            lines: self.lines,
            next_sequence: self.next_sequence,
            events: self.events,
            skipped: self.skipped,
            format: self.format,
        };
        let mut encoder = position.checkpoint_encoder(Vec::new(), self.snapshot.len());
        encoder.bytes(&self.snapshot);
        encoder.finish()
    }

    /// Decodes a checkpoint written by [`to_bytes`].
    ///
    /// [`to_bytes`]: PipelineCheckpoint::to_bytes
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a torn, truncated, or foreign frame.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut decoder =
            Decoder::new(bytes, PIPELINE_CHECKPOINT_KIND, PIPELINE_CHECKPOINT_VERSION)?;
        let offset = decoder.u64()?;
        let lines = decoder.u64()?;
        let next_sequence = decoder.u64()?;
        let events = decoder.u64()?;
        let skipped = decoder.u64()?;
        let format = tag_format(decoder.u8()?)?;
        let snapshot = decoder.bytes()?;
        decoder.finish()?;
        Ok(PipelineCheckpoint { offset, lines, next_sequence, events, skipped, format, snapshot })
    }
}

/// Where resolved events go. Implementations register unseen users on
/// first sight and surface alerts per batch.
pub trait MonitorSink {
    /// Ingests one batch, returning the alerts it raised.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Monitor`] when the sink rejects the batch.
    fn ingest(&mut self, events: &[Event]) -> Result<Vec<Alert>, PipelineError>;

    /// Flushes whatever the sink still holds (drain), returning late
    /// alerts.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Monitor`] when the flush fails.
    fn flush(&mut self) -> Result<Vec<Alert>, PipelineError>;

    /// State to embed in a [`PipelineCheckpoint`] — empty when the sink
    /// persists its own state (the distributed monitor checkpoints its
    /// workers instead).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Monitor`] when state capture fails.
    fn snapshot(&mut self) -> Result<Vec<u8>, PipelineError>;

    /// The state for the next checkpoint, captured now and encoded later
    /// on the checkpoint writer's thread. The default encodes
    /// [`MonitorSink::snapshot`] right here; a sink that can hand over an
    /// immutable capture instead, as [`IndexedSink`] does, moves the encode
    /// off the monitor thread.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Monitor`] when state capture fails.
    fn capture(&mut self) -> Result<SinkCapture, PipelineError> {
        self.snapshot().map(SinkCapture::Encoded)
    }
}

/// A sink's state at a checkpoint, as [`MonitorSink::capture`] returns it.
#[derive(Debug)]
pub enum SinkCapture {
    /// Already encoded: [`MonitorSnapshot`] bytes, or empty for a sink that
    /// persists its own state.
    Encoded(Vec<u8>),
    /// A snapshot the checkpoint writer still has to encode.
    Snapshot(MonitorSnapshot),
}

/// A profile for a user first seen in the log.
fn first_sight_profile(user: &UserId, services: &[ServiceId], no_consent: bool) -> UserProfile {
    let mut profile = UserProfile::new(user.clone());
    if !no_consent {
        for service in services {
            profile = profile.consents_to(service.clone());
        }
    }
    profile
}

/// The in-process [`IndexedMonitor`] as a pipeline sink.
#[derive(Debug)]
pub struct IndexedSink {
    monitor: IndexedMonitor,
    services: Vec<ServiceId>,
    no_consent: bool,
}

impl IndexedSink {
    /// Wraps `monitor`, registering users first seen in the log with
    /// consent to every service in `services` (or none under
    /// `no_consent`). A monitor resumed from a snapshot keeps its
    /// registered users — they are never re-registered (re-registration
    /// would reset their privacy state).
    #[must_use]
    pub fn new(monitor: IndexedMonitor, services: Vec<ServiceId>, no_consent: bool) -> Self {
        IndexedSink { monitor, services, no_consent }
    }

    /// The wrapped monitor.
    #[must_use]
    pub fn monitor(&self) -> &IndexedMonitor {
        &self.monitor
    }

    /// Unwraps the monitor (e.g. for a final snapshot).
    #[must_use]
    pub fn into_monitor(self) -> IndexedMonitor {
        self.monitor
    }
}

impl MonitorSink for IndexedSink {
    fn ingest(&mut self, events: &[Event]) -> Result<Vec<Alert>, PipelineError> {
        for event in events {
            if !self.monitor.is_registered(event.user()) {
                self.monitor.register_user(&first_sight_profile(
                    event.user(),
                    &self.services,
                    self.no_consent,
                ));
            }
        }
        // `ingest_batch` both returns the raised alerts and queues them on
        // the monitor's pending list; drain here (the drained list is the
        // raised alerts, plus any pending carried in by a resumed
        // snapshot) so the final flush does not report everything twice.
        let _ = self.monitor.ingest_batch(events);
        Ok(self.monitor.drain_alerts())
    }

    fn flush(&mut self) -> Result<Vec<Alert>, PipelineError> {
        Ok(self.monitor.drain_alerts())
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, PipelineError> {
        Ok(self.monitor.snapshot().to_bytes())
    }

    fn capture(&mut self) -> Result<SinkCapture, PipelineError> {
        Ok(SinkCapture::Snapshot(self.monitor.snapshot()))
    }
}

/// The multi-process [`DistributedMonitor`] as a pipeline sink. The
/// supervisor checkpoints its workers itself, so pipeline checkpoints
/// embed no snapshot and `--resume` is scoped to the indexed sink.
///
/// Each `ingest` call maps to one supervisor super-batch; the supervisor's
/// per-worker writer threads coalesce consecutive sub-batches into single
/// wire frames, so small pipeline batches do not translate into per-event
/// framing overhead on the pipes.
#[derive(Debug)]
pub struct DistributedSink {
    monitor: DistributedMonitor,
    services: Vec<ServiceId>,
    no_consent: bool,
    known: BTreeSet<UserId>,
}

impl DistributedSink {
    /// Wraps a launched supervisor.
    #[must_use]
    pub fn new(monitor: DistributedMonitor, services: Vec<ServiceId>, no_consent: bool) -> Self {
        DistributedSink { monitor, services, no_consent, known: BTreeSet::new() }
    }

    /// Unwraps the supervisor (e.g. to shut it down).
    #[must_use]
    pub fn into_monitor(self) -> DistributedMonitor {
        self.monitor
    }
}

impl MonitorSink for DistributedSink {
    fn ingest(&mut self, events: &[Event]) -> Result<Vec<Alert>, PipelineError> {
        for event in events {
            if self.known.insert(event.user().clone()) {
                self.monitor
                    .register_user(&first_sight_profile(
                        event.user(),
                        &self.services,
                        self.no_consent,
                    ))
                    .map_err(|error| PipelineError::Monitor(error.to_string()))?;
            }
        }
        self.monitor.submit_batch(events).map_err(|error| PipelineError::Monitor(error.to_string()))
    }

    fn flush(&mut self) -> Result<Vec<Alert>, PipelineError> {
        self.monitor.flush().map_err(|error| PipelineError::Monitor(error.to_string()))
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, PipelineError> {
        self.monitor.checkpoint_now().map_err(|error| PipelineError::Monitor(error.to_string()))?;
        Ok(Vec::new())
    }
}

/// Tuning for one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The field mapping resolving records into events.
    pub mapping: FieldMapping,
    /// Declared format; `None` auto-detects.
    pub format: Option<Format>,
    /// Error policy. [`ErrorPolicy::Skip`] quarantines poison records;
    /// [`ErrorPolicy::FailFast`] aborts the run on the first one.
    pub policy: ErrorPolicy,
    /// Per-line size limit in bytes.
    pub max_line_bytes: usize,
    /// Events per monitor batch.
    pub batch: usize,
    /// Bounded parse→monitor queue depth, in batches. The parser blocks
    /// when the monitor falls this far behind.
    pub queue_batches: usize,
    /// Checkpoint file (written via [`CheckpointStore`]); `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Resolved events between periodic checkpoints.
    pub checkpoint_every_events: u64,
    /// Dead-letter NDJSON file; `None` keeps quarantined records in the
    /// report only.
    pub dead_letter: Option<PathBuf>,
    /// Stop when this path exists (polled; for tails, which have no EOF).
    pub stop_file: Option<PathBuf>,
    /// Source polling tuning.
    pub follow: FollowConfig,
    /// Resume state from a previous run's final checkpoint.
    pub resume: Option<PipelineCheckpoint>,
}

impl PipelineConfig {
    /// Defaults around `mapping`: auto-detect, skip-and-quarantine, 1 MiB
    /// lines, 256-event batches, a 16-batch queue, checkpoint every 1024
    /// events.
    #[must_use]
    pub fn new(mapping: FieldMapping) -> Self {
        PipelineConfig {
            mapping,
            format: None,
            policy: ErrorPolicy::Skip,
            max_line_bytes: 1 << 20,
            batch: 256,
            queue_batches: 16,
            checkpoint: None,
            checkpoint_every_events: 1024,
            dead_letter: None,
            stop_file: None,
            follow: FollowConfig::default(),
            resume: None,
        }
    }
}

/// What one pipeline run did.
#[derive(Debug, Default)]
pub struct PipelineReport {
    /// Alerts raised this run. Each was passed to `on_alert` as it was
    /// raised; the report keeps only the count, so a run that never ends
    /// holds no per-alert memory.
    pub alerts: u64,
    /// Raw bytes observed from the source this run.
    pub bytes: u64,
    /// Physical lines consumed (cumulative across resume).
    pub lines: u64,
    /// Events resolved (cumulative across resume).
    pub events: u64,
    /// Records quarantined (cumulative across resume).
    pub skipped: u64,
    /// Dead-letter records appended this run.
    pub dead_letters: u64,
    /// The format in effect.
    pub format: Option<Format>,
    /// Rotations observed this run.
    pub rotations: u64,
    /// Truncations observed this run.
    pub truncations: u64,
    /// Checkpoints made durable this run.
    pub checkpoints: u64,
    /// Logical stream offset consumed through.
    pub offset: u64,
}

/// Stream-position metadata travelling with each batch, so checkpoints
/// written by the monitor loop describe exactly the events it has
/// ingested (never the parser's read-ahead).
#[derive(Debug, Clone, Copy)]
struct StreamMeta {
    offset: u64,
    lines: u64,
    next_sequence: u64,
    events: u64,
    skipped: u64,
    format: Option<Format>,
}

impl StreamMeta {
    /// A `PPLC` checkpoint frame of this position in `buffer`'s allocation,
    /// up to the snapshot blob the caller appends before sealing it. Room is
    /// reserved for a snapshot of `snapshot_len` bytes.
    fn checkpoint_encoder(&self, buffer: Vec<u8>, snapshot_len: usize) -> Encoder {
        let mut encoder =
            Encoder::reusing(buffer, PIPELINE_CHECKPOINT_KIND, PIPELINE_CHECKPOINT_VERSION);
        // Five counters, the format tag, the snapshot and its length.
        encoder.reserve(5 * 8 + 1 + 4 + snapshot_len);
        encoder.u64(self.offset);
        encoder.u64(self.lines);
        encoder.u64(self.next_sequence);
        encoder.u64(self.events);
        encoder.u64(self.skipped);
        encoder.u8(format_tag(self.format));
        encoder
    }
}

/// A checkpoint on its way to the [`CheckpointWriter`]: the stream
/// position and the sink's capture at that position.
struct PipelineJob {
    meta: StreamMeta,
    capture: SinkCapture,
}

impl CheckpointJob for PipelineJob {
    type Done = ();

    fn encode(self, file: &mut Vec<u8>) {
        let mut encoder = self.meta.checkpoint_encoder(std::mem::take(file), 0);
        match &self.capture {
            SinkCapture::Encoded(bytes) => encoder.bytes(bytes),
            // In place: the buffer already holds the previous checkpoint's
            // capacity, so the snapshot never takes a buffer of its own.
            SinkCapture::Snapshot(snapshot) => snapshot.encode_nested(&mut encoder),
        }
        *file = encoder.finish();
    }
}

fn checkpoint_error(error: CheckpointWriteError) -> PipelineError {
    PipelineError::Io(error.to_string())
}

enum WorkItem {
    Batch(Vec<Event>, StreamMeta),
    Quarantined(Box<QuarantinedLine>),
    /// A fatal stream error at the given logical offset; always the last
    /// item the parser sends.
    Fatal(IngestError, u64),
    /// End of stream: the final metadata (possibly after quarantines with
    /// no trailing event batch).
    Drained(StreamMeta),
}

/// The supervised live pipeline. See the module docs.
pub struct PipelineRunner {
    config: PipelineConfig,
    progress: Arc<PipelineProgress>,
    stop: Arc<AtomicBool>,
}

impl PipelineRunner {
    /// A runner over `config`.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        PipelineRunner {
            config,
            progress: Arc::new(PipelineProgress::default()),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The shared progress counters.
    #[must_use]
    pub fn progress(&self) -> Arc<PipelineProgress> {
        Arc::clone(&self.progress)
    }

    /// A handle that requests a graceful drain when set.
    #[must_use]
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs the pipeline to completion: until the source reports EOF, the
    /// stop handle or stop file fires, or a fatal error. `on_alert` sees
    /// every alert as it is raised; the report only counts them.
    ///
    /// Every checkpoint submitted during the run, the final one included,
    /// is durable (or has failed) when `run` returns.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] on a fatal ingest, monitor, or IO failure. A
    /// final checkpoint and the dead-letter file are still flushed where
    /// possible.
    pub fn run(
        &self,
        mut source: LiveSource,
        sink: &mut dyn MonitorSink,
        mut on_alert: impl FnMut(&Alert),
    ) -> Result<PipelineReport, PipelineError> {
        let (sender, receiver) = sync_channel::<WorkItem>(self.config.queue_batches.max(1));
        let mut report = PipelineReport::default();
        let durable = AtomicU64::new(0);

        let outcome = std::thread::scope(|scope| {
            let (progress, durable) = (&self.progress, &durable);
            let writer = self.config.checkpoint.as_ref().map(|path| {
                CheckpointWriter::<PipelineJob>::spawn(
                    scope,
                    CheckpointStore::new(path),
                    move |done| {
                        if done.is_ok() {
                            PipelineProgress::add(&progress.checkpoints, 1);
                            durable.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                )
            });
            // The sender moves into the parser thread so the channel
            // closes (and the monitor loop's `recv` unblocks) the moment
            // the parser finishes.
            let source_ref = &mut source;
            let parser = scope.spawn(move || self.parse_loop(source_ref, &sender));
            let consumed = self.monitor_loop(&receiver, sink, writer, &mut report, &mut on_alert);
            // A consumer error must unblock a parser waiting on the full
            // queue: drop the receiver end and raise the stop flag.
            if consumed.is_err() {
                self.stop.store(true, Ordering::Relaxed);
                drop(receiver);
            }
            parser.join().expect("parser thread never panics");
            consumed
        });

        if let LiveSource::File(tail) = &source {
            report.rotations = tail.rotations();
            report.truncations = tail.truncations();
        }
        report.bytes = PipelineProgress::get(&self.progress.bytes);
        report.checkpoints = durable.into_inner();
        outcome.map(|()| report)
    }

    /// The parser side: polls the source, assembles lines, resolves
    /// events, and ships batches/quarantines over the bounded queue. All
    /// failures are reported through the queue; the returned result only
    /// reflects whether the consumer is still listening.
    fn parse_loop(&self, source: &mut LiveSource, sender: &SyncSender<WorkItem>) {
        let mut assembler = LineAssembler::new(self.config.max_line_bytes.saturating_add(1));
        let mut ingestor = LineIngestor::new(
            self.config.mapping.clone(),
            self.config.format,
            self.config.policy,
            self.config.max_line_bytes,
        );
        if let Some(resume) = &self.config.resume {
            ingestor.restore(
                resume.format,
                resume.lines,
                resume.events,
                resume.skipped,
                resume.next_sequence,
            );
            assembler.start_at(resume.offset);
        }

        let mut pending: Vec<Event> = Vec::new();
        let mut lines = Vec::new();
        // `Some` once the stream opened with the gzip magic: buffer it
        // whole and decompress at drain (gzip cannot be tailed).
        let mut gzip_buffer: Option<Vec<u8>> = None;
        let mut sniffed = false;

        let meta = |ingestor: &LineIngestor| StreamMeta {
            offset: ingestor.consumed_through(),
            lines: ingestor.lines(),
            next_sequence: ingestor.next_sequence(),
            events: ingestor.events(),
            skipped: ingestor.skipped(),
            format: ingestor.format(),
        };

        macro_rules! ship {
            ($item:expr) => {
                if sender.send($item).is_err() {
                    return; // the consumer failed; it owns the error
                }
            };
        }
        macro_rules! flush_pending {
            () => {
                if !pending.is_empty() {
                    let batch = std::mem::take(&mut pending);
                    ship!(WorkItem::Batch(batch, meta(&ingestor)));
                }
            };
        }
        macro_rules! feed {
            ($line:expr) => {{
                let line = $line;
                match ingestor.push_line(&line.bytes, line.start, line.end) {
                    Ok(LinePush::Event(event)) => {
                        PipelineProgress::add(&self.progress.events, 1);
                        pending.push(event);
                        if pending.len() >= self.config.batch {
                            flush_pending!();
                        }
                    }
                    Ok(LinePush::Quarantined(quarantined)) => {
                        // Quarantines precede the batch whose metadata
                        // covers them (the queue is FIFO), so a checkpoint
                        // never claims an unaccounted span.
                        flush_pending!();
                        ship!(WorkItem::Quarantined(Box::new(quarantined)));
                    }
                    Ok(LinePush::Pending) => {}
                    Err(error) => {
                        flush_pending!();
                        ship!(WorkItem::Fatal(error, line.start));
                        return;
                    }
                }
            }};
        }

        loop {
            if self.stop.load(Ordering::Relaxed) || self.stop_file_exists() {
                break;
            }
            match source.poll() {
                Ok(SourceEvent::Data(chunk)) => {
                    PipelineProgress::add(&self.progress.bytes, chunk.len() as u64);
                    if !sniffed {
                        sniffed = true;
                        if is_gzip(&chunk) {
                            gzip_buffer = Some(Vec::new());
                        }
                    }
                    if let Some(buffer) = &mut gzip_buffer {
                        buffer.extend_from_slice(&chunk);
                        continue;
                    }
                    assembler.push(&chunk, &mut lines);
                    for line in lines.drain(..) {
                        feed!(line);
                    }
                }
                Ok(SourceEvent::Rotated) => {
                    PipelineProgress::add(&self.progress.rotations, 1);
                }
                Ok(SourceEvent::Truncated { .. }) => {
                    PipelineProgress::add(&self.progress.truncations, 1);
                }
                Ok(SourceEvent::Idle) => {
                    // Latency over batching while the source is quiet.
                    flush_pending!();
                    std::thread::sleep(source.delay());
                }
                Ok(SourceEvent::Eof) => break,
                Err(error) => {
                    flush_pending!();
                    ship!(WorkItem::Fatal(error, assembler.offset()));
                    return;
                }
            }
        }

        // Drain: decompress a buffered gzip stream, flush the partial
        // line, refuse an unterminated CSV record, ship the final meta.
        if let Some(buffer) = gzip_buffer.take() {
            match gunzip(&buffer) {
                Ok(payload) => {
                    // Logical offsets restart over the decompressed
                    // payload, matching the offline path.
                    assembler.push(&payload, &mut lines);
                    for line in lines.drain(..) {
                        feed!(line);
                    }
                }
                Err(error) => {
                    ship!(WorkItem::Fatal(IngestError::Gzip(error), 0));
                    return;
                }
            }
        }
        if let Some(line) = assembler.finish() {
            feed!(line);
        }
        match ingestor.finish(assembler.offset()) {
            Ok(Some(LinePush::Event(event))) => {
                PipelineProgress::add(&self.progress.events, 1);
                pending.push(event);
            }
            Ok(Some(LinePush::Quarantined(quarantined))) => {
                flush_pending!();
                ship!(WorkItem::Quarantined(Box::new(quarantined)));
            }
            Ok(Some(LinePush::Pending)) | Ok(None) => {}
            Err(error) => {
                flush_pending!();
                ship!(WorkItem::Fatal(error, assembler.offset()));
                return;
            }
        }
        flush_pending!();
        ship!(WorkItem::Drained(meta(&ingestor)));
    }

    fn stop_file_exists(&self) -> bool {
        self.config.stop_file.as_deref().is_some_and(|path| path.exists())
    }

    /// The monitor side: ingests batches, appends dead letters, submits
    /// periodic and final checkpoints to `writer`, flushes the sink at
    /// drain, and closes the writer.
    fn monitor_loop(
        &self,
        receiver: &Receiver<WorkItem>,
        sink: &mut dyn MonitorSink,
        writer: Option<CheckpointWriter<'_, PipelineJob>>,
        report: &mut PipelineReport,
        on_alert: &mut dyn FnMut(&Alert),
    ) -> Result<(), PipelineError> {
        let mut dead_letters = match &self.config.dead_letter {
            Some(path) => {
                // Offsets already on file (a previous run's parser may
                // have quarantined past the checkpoint it resumed from):
                // never append the same span twice.
                let seen: BTreeSet<u64> = if path.exists() {
                    read_dead_letters(path)
                        .map_err(|error| PipelineError::Io(error.to_string()))?
                        .iter()
                        .map(|record| record.offset)
                        .collect()
                } else {
                    BTreeSet::new()
                };
                let writer = DeadLetterWriter::open(path)
                    .map_err(|error| PipelineError::Io(error.to_string()))?;
                Some((writer, seen))
            }
            None => None,
        };
        // The only accessor of the dead-letter writer: appends `record`
        // unless its offset is already on file (resume re-parses the span
        // past the checkpoint, which may re-quarantine the same records).
        let mut append_dead_letter = |record: DeadLetterRecord,
                                      report: &mut PipelineReport|
         -> Result<(), PipelineError> {
            if let Some((writer, seen)) = &mut dead_letters {
                if seen.insert(record.offset) {
                    writer.append(&record).map_err(|error| PipelineError::Io(error.to_string()))?;
                    report.dead_letters += 1;
                }
            }
            Ok(())
        };

        let mut last_meta: Option<StreamMeta> = None;
        let mut since_checkpoint = 0u64;
        let mut fatal: Option<PipelineError> = None;

        // Captures the sink at `meta` and hands the capture to the writer,
        // which counts the checkpoint once it is durable.
        let submit_checkpoint =
            |meta: &StreamMeta, sink: &mut dyn MonitorSink| -> Result<(), PipelineError> {
                let Some(writer) = &writer else { return Ok(()) };
                let capture = sink.capture()?;
                writer.submit(PipelineJob { meta: *meta, capture }).map_err(checkpoint_error)
            };

        while let Ok(item) = receiver.recv() {
            match item {
                WorkItem::Batch(events, meta) => {
                    let alerts = sink.ingest(&events)?;
                    PipelineProgress::add(&self.progress.ingested, events.len() as u64);
                    PipelineProgress::add(&self.progress.alerts, alerts.len() as u64);
                    report.alerts += alerts.len() as u64;
                    for alert in &alerts {
                        on_alert(alert);
                    }
                    since_checkpoint += events.len() as u64;
                    if self.config.checkpoint_every_events > 0
                        && since_checkpoint >= self.config.checkpoint_every_events
                    {
                        submit_checkpoint(&meta, sink)?;
                        since_checkpoint = 0;
                    }
                    last_meta = Some(meta);
                }
                WorkItem::Quarantined(line) => {
                    PipelineProgress::add(&self.progress.quarantined, 1);
                    append_dead_letter(DeadLetterRecord::from_quarantined(&line), report)?;
                }
                WorkItem::Fatal(error, offset) => {
                    // Account for the poisoned stream before failing.
                    append_dead_letter(
                        DeadLetterRecord::stream_level(&error, offset, offset),
                        report,
                    )?;
                    fatal = Some(PipelineError::Ingest(error));
                    break;
                }
                WorkItem::Drained(meta) => {
                    last_meta = Some(meta);
                    break;
                }
            }
        }

        // Graceful drain: flush late alerts, then the final checkpoint.
        let flushed = sink.flush()?;
        PipelineProgress::add(&self.progress.alerts, flushed.len() as u64);
        report.alerts += flushed.len() as u64;
        for alert in &flushed {
            on_alert(alert);
        }
        if let Some(meta) = &last_meta {
            report.offset = meta.offset;
            report.lines = meta.lines;
            report.events = meta.events;
            report.skipped = meta.skipped;
            report.format = meta.format;
            if fatal.is_none() {
                submit_checkpoint(meta, sink)?;
            }
        }
        let closed = writer.map_or(Ok(()), CheckpointWriter::close);
        match fatal {
            Some(error) => Err(error),
            None => closed.map_err(checkpoint_error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_checkpoints_round_trip() {
        let checkpoint = PipelineCheckpoint {
            offset: 8_192,
            lines: 120,
            next_sequence: 97,
            events: 96,
            skipped: 3,
            format: Some(Format::Logfmt),
            snapshot: vec![1, 2, 3, 4],
        };
        let decoded = PipelineCheckpoint::from_bytes(&checkpoint.to_bytes()).expect("decode");
        assert_eq!(decoded, checkpoint);
    }

    #[test]
    fn pipeline_checkpoints_reject_torn_frames() {
        let checkpoint = PipelineCheckpoint {
            offset: 1,
            lines: 1,
            next_sequence: 2,
            events: 1,
            skipped: 0,
            format: None,
            snapshot: Vec::new(),
        };
        let mut bytes = checkpoint.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(PipelineCheckpoint::from_bytes(&bytes).is_err());
        let mut flipped = checkpoint.to_bytes();
        let middle = flipped.len() / 2;
        flipped[middle] ^= 0xFF;
        assert!(PipelineCheckpoint::from_bytes(&flipped).is_err());
    }

    #[test]
    fn format_tags_cover_every_format() {
        for format in [None, Some(Format::Json), Some(Format::Logfmt), Some(Format::Csv)] {
            assert_eq!(tag_format(format_tag(format)).expect("tag"), format);
        }
        assert!(tag_format(9).is_err());
    }

    /// A fresh healthcare sink and a JSON log of `length` requests by users
    /// the sink meets first in the log.
    fn healthcare_sink_and_log(length: usize) -> (IndexedSink, Vec<u8>) {
        use privacy_synth::{random_workload, render_events, LogFormat, WorkloadConfig};

        let system = privacy_core::casestudy::healthcare().expect("healthcare model");
        let services: Vec<ServiceId> =
            system.catalog().services().map(|s| s.id().clone()).collect();
        let fields: Vec<_> = system.catalog().fields().map(|f| f.id().clone()).collect();
        let mut engine = privacy_runtime::ServiceEngine::new(
            system.catalog().clone(),
            system.dataflows().clone(),
            system.policy().clone(),
        );
        let workload = random_workload(&WorkloadConfig {
            length,
            seed: 23,
            users: (0..64).map(|i| UserId::new(format!("patient-{i:03}"))).collect(),
            services: services.iter().map(|s| (s.clone(), 1.0)).collect(),
        });
        for request in &workload {
            let record = fields.iter().fold(privacy_model::Record::new(), |record, field| {
                record.with(field.clone(), format!("v-{field}"))
            });
            let _ = engine.execute(request.user(), request.service(), &record);
        }
        let log = render_events(engine.log().events(), LogFormat::Json).into_bytes();
        let lts = system.generate_lts().expect("lts");
        let index = Arc::new(privacy_lts::LtsIndex::build(&lts));
        let monitor = IndexedMonitor::new(system.catalog().clone(), system.policy().clone(), index);
        (IndexedSink::new(monitor, services, false), log)
    }

    /// The writer's in-place encoding of a captured snapshot is the
    /// `PipelineCheckpoint` of its encoded bytes.
    #[test]
    fn pipeline_jobs_encode_the_checkpoint_bytes() {
        let (mut sink, log) = healthcare_sink_and_log(40);
        let mapping = FieldMapping::canonical();
        let events: Vec<Event> = privacy_ingest::ingest_bytes(&log, &mapping, &Default::default())
            .expect("clean log")
            .events;
        let _ = sink.ingest(&events).expect("ingest");
        let meta = StreamMeta {
            offset: log.len() as u64,
            lines: events.len() as u64,
            next_sequence: 77,
            events: events.len() as u64,
            skipped: 0,
            format: Some(Format::Json),
        };
        let expected = PipelineCheckpoint {
            offset: meta.offset,
            lines: meta.lines,
            next_sequence: meta.next_sequence,
            events: meta.events,
            skipped: meta.skipped,
            format: meta.format,
            snapshot: sink.snapshot().expect("snapshot"),
        }
        .to_bytes();
        let mut file = vec![0xEE; 16];
        let capture = sink.capture().expect("capture");
        assert!(matches!(capture, SinkCapture::Snapshot(_)));
        PipelineJob { meta, capture }.encode(&mut file);
        assert_eq!(file, expected);
    }

    /// A checkpoint that cannot be written fails the run with
    /// `PipelineError::Io` naming the path — whether the first failure is a
    /// periodic checkpoint or the final one — and `run` returns even though
    /// the parser still has far more of the log to ship than the queue
    /// holds.
    #[test]
    fn unwritable_checkpoint_fails_the_run_with_a_typed_io_error() {
        let dir = std::env::temp_dir().join(format!("pipeline-ckpt-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let blocker = dir.join("not-a-directory");
        std::fs::write(&blocker, b"").expect("blocker file");
        let checkpoint = blocker.join("pipeline.ckpt");

        for every in [16, 0] {
            let (mut sink, log) = healthcare_sink_and_log(3_000);
            let lines = log.iter().filter(|&&byte| byte == b'\n').count() as u64;
            let mut config = PipelineConfig::new(FieldMapping::canonical());
            config.batch = 8;
            config.queue_batches = 2;
            config.checkpoint = Some(checkpoint.clone());
            config.checkpoint_every_events = every;
            let follow = config.follow.clone();
            let runner = PipelineRunner::new(config);
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::scope(|scope| {
                let watchdog = scope.spawn(move || {
                    finished.recv_timeout(std::time::Duration::from_secs(120)).is_ok()
                });
                let source = LiveSource::pipe(Box::new(std::io::Cursor::new(log)), follow);
                let outcome = runner.run(source, &mut sink, |_| {});
                done.send(()).expect("the watchdog waits");
                assert!(watchdog.join().expect("watchdog"), "run did not return in time");
                match outcome {
                    Err(PipelineError::Io(message)) => assert!(
                        message.contains(checkpoint.to_str().expect("utf-8 path")),
                        "every {every}: {message}"
                    ),
                    other => panic!("every {every}: expected an Io error, got {other:?}"),
                }
            });
            let progress = runner.progress();
            assert_eq!(PipelineProgress::get(&progress.checkpoints), 0, "every {every}");
            if every > 0 {
                // A periodic failure stops the run well before the end.
                let ingested = PipelineProgress::get(&progress.ingested);
                assert!(
                    ingested < lines,
                    "every {every}: {ingested} of {lines} events ingested past the failed checkpoint"
                );
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `ingest_batch` queues raised alerts on the monitor as well as
    /// returning them; the sink must not report that queue again at
    /// flush. Pinned directly because the live-vs-offline differentials
    /// compare two sinks and would miss symmetric double-reporting.
    #[test]
    fn indexed_sink_reports_each_alert_exactly_once() {
        use privacy_synth::{
            random_profiles, random_workload, ProfileGeneratorConfig, WorkloadConfig,
        };

        let system = privacy_core::casestudy::healthcare().expect("healthcare model");
        let services: Vec<ServiceId> =
            system.catalog().services().map(|s| s.id().clone()).collect();
        let fields: Vec<_> = system.catalog().fields().map(|f| f.id().clone()).collect();
        let users = random_profiles(&ProfileGeneratorConfig {
            count: 12,
            seed: 13,
            services: services.clone(),
            consent_probability: 0.5,
            fields: fields.clone(),
            sensitivity_probability: 0.6,
        });
        let mut engine = privacy_runtime::ServiceEngine::new(
            system.catalog().clone(),
            system.dataflows().clone(),
            system.policy().clone(),
        );
        let workload = random_workload(&WorkloadConfig {
            length: 200,
            seed: 17,
            users: users.iter().map(|u| u.id().clone()).collect(),
            services: services.iter().map(|s| (s.clone(), 1.0)).collect(),
        });
        for request in &workload {
            let record = fields.iter().fold(privacy_model::Record::new(), |record, field| {
                record.with(field.clone(), format!("v-{field}"))
            });
            let _ = engine.execute(request.user(), request.service(), &record);
        }
        let events = engine.log().events().to_vec();

        let lts = system.generate_lts().expect("lts");
        let index = Arc::new(privacy_lts::LtsIndex::build(&lts));
        let mut proto =
            IndexedMonitor::new(system.catalog().clone(), system.policy().clone(), index);
        for user in &users {
            proto.register_user(user);
        }
        let direct = proto.clone().ingest_batch(&events);
        assert!(!direct.is_empty(), "the corpus must raise alerts for this test to pin anything");

        let mut sink = IndexedSink::new(proto, services, false);
        let mut streamed = Vec::new();
        for chunk in events.chunks(32) {
            streamed.extend(sink.ingest(chunk).expect("ingest"));
        }
        let late = sink.flush().expect("flush");
        assert!(late.is_empty(), "every alert was already reported per batch: {late:?}");
        assert_eq!(
            streamed.iter().map(ToString::to_string).collect::<Vec<_>>(),
            direct.iter().map(ToString::to_string).collect::<Vec<_>>(),
            "the chunked sink stream must equal one whole-batch ingest, each alert exactly once"
        );
    }
}
