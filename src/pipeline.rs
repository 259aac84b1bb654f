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
//!   monitor falls behind, the parser blocks — memory stays flat. Spent
//!   batches travel back over a second, two-slot channel that the monitor
//!   never waits on, so the parser frees the events it allocated and
//!   reuses a batch's buffer.
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
//! * **Checkpoints proportional to change.** A periodic checkpoint whose
//!   capture directly follows the last one written is appended to the
//!   store's delta log (`<path>.delta`) as a record holding only the rows
//!   that capture changed, while the log stays smaller than the base it
//!   extends; otherwise, and for a run's first checkpoint and its drain
//!   checkpoint, the whole `PPLC` file is rewritten as a new base, which
//!   resets the log. [`load_checkpoint`] resumes from the newest base with
//!   its whole records applied.
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

use privacy_distrib::checkpoint::{decode_frame, encode_frame};
use privacy_distrib::{
    CaptureJob, CheckpointStore, CheckpointWarning, CheckpointWriteError, CheckpointWriter,
    DistributedMonitor, FramePosition, Generation,
};
use privacy_ingest::deadletter::{read_dead_letters, DeadLetterRecord, DeadLetterWriter};
use privacy_ingest::live::{FollowConfig, LineAssembler, LiveSource, SourceEvent};
use privacy_ingest::stream::{LineIngestor, LinePush, QuarantinedLine};
use privacy_ingest::{gunzip, is_gzip, ErrorPolicy, FieldMapping, Format, IngestError};
use privacy_interchange::binary::{CodecError, Decoder, Encoder};
use privacy_model::{ServiceId, UserId, UserProfile};
use privacy_runtime::{Alert, Event, IndexedMonitor, MonitorSnapshot, SnapshotDelta};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Frame kind for a serialised [`PipelineCheckpoint`].
pub const PIPELINE_CHECKPOINT_KIND: [u8; 4] = *b"PPLC";

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
        encode_frame(&position, &self.snapshot)
    }

    /// Decodes a checkpoint written by [`to_bytes`].
    ///
    /// [`to_bytes`]: PipelineCheckpoint::to_bytes
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a torn, truncated, or foreign frame.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let (meta, snapshot) = decode_frame::<StreamMeta>(bytes)?;
        Ok(meta.checkpoint(snapshot.to_vec()))
    }
}

/// A pipeline checkpoint as a resume loads it: see [`load_checkpoint`].
#[derive(Debug)]
pub struct ResumePoint {
    /// The stream position to continue from — the base's, or that of the
    /// last delta record applied — with an empty `snapshot`.
    pub checkpoint: PipelineCheckpoint,
    /// The monitor state at that position; `None` when the checkpoint
    /// embeds none (a sink that persists its own state).
    pub snapshot: Option<MonitorSnapshot>,
    /// The generation the base came from.
    pub generation: Generation,
    /// The delta records applied to the base.
    pub deltas: usize,
}

/// Loads the pipeline checkpoint at `path` for a resume: the newest base
/// that decodes, falling back to `<path>.prev`, with every whole delta
/// record of `<path>.delta` that names it applied in order. Each frame is
/// decoded once: the base's `PPLC` frame and embedded snapshot, then each
/// record's `PPLC` frame and embedded [`SnapshotDelta`], which
/// [`MonitorSnapshot::apply`] splices in.
///
/// The returned warnings name each generation skipped and the first record
/// not applied (torn, corrupt, extending another base, or not
/// applicable), after which no record is applied.
pub fn load_checkpoint(path: &Path) -> (Option<ResumePoint>, Vec<CheckpointWarning>) {
    let (loaded, warnings) = CheckpointStore::new(path).load(
        |bytes| {
            let (meta, blob) =
                decode_frame::<StreamMeta>(bytes).map_err(|error| error.to_string())?;
            let snapshot = (!blob.is_empty())
                .then(|| MonitorSnapshot::from_bytes(blob))
                .transpose()
                .map_err(|error| format!("embedded snapshot: {error}"))?;
            Ok((meta, snapshot))
        },
        |(meta, snapshot), payload| {
            let (next, blob) =
                decode_frame::<StreamMeta>(payload).map_err(|error| error.to_string())?;
            let delta = SnapshotDelta::from_bytes(blob)
                .map_err(|error| format!("embedded snapshot delta: {error}"))?;
            snapshot
                .as_mut()
                .ok_or("the base embeds no snapshot to apply a delta to")?
                .apply(&delta)
                .map_err(|error| error.to_string())?;
            *meta = next;
            Ok(())
        },
    );
    let point = loaded.map(|loaded| {
        let (meta, snapshot) = loaded.state;
        ResumePoint {
            checkpoint: meta.checkpoint(Vec::new()),
            snapshot,
            generation: loaded.generation,
            deltas: loaded.deltas,
        }
    });
    (point, warnings)
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
pub use privacy_distrib::SinkCapture;

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
            if !self.monitor.activate(event.user()) {
                self.monitor.register_user(&first_sight_profile(
                    event.user(),
                    &self.services,
                    self.no_consent,
                ));
            }
        }
        // `ingest_batch` queues the raised alerts on the monitor's pending
        // list; drain here (the drained list is the raised alerts, plus any
        // pending carried in by a resumed snapshot) so the final flush does
        // not report everything twice, and no alert is copied.
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
    /// The checkpoint of this position embedding `snapshot`.
    fn checkpoint(self, snapshot: Vec<u8>) -> PipelineCheckpoint {
        PipelineCheckpoint {
            offset: self.offset,
            lines: self.lines,
            next_sequence: self.next_sequence,
            events: self.events,
            skipped: self.skipped,
            format: self.format,
            snapshot,
        }
    }
}

/// A `PPLC` v1 frame's position: five counters and the format tag.
impl FramePosition for StreamMeta {
    const KIND: [u8; 4] = PIPELINE_CHECKPOINT_KIND;
    const VERSION: u32 = 1;

    fn put(&self, encoder: &mut Encoder) {
        encoder.u64(self.offset);
        encoder.u64(self.lines);
        encoder.u64(self.next_sequence);
        encoder.u64(self.events);
        encoder.u64(self.skipped);
        encoder.u8(format_tag(self.format));
    }

    fn get(decoder: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(StreamMeta {
            offset: decoder.u64()?,
            lines: decoder.u64()?,
            next_sequence: decoder.u64()?,
            events: decoder.u64()?,
            skipped: decoder.u64()?,
            format: tag_format(decoder.u8()?)?,
        })
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

/// Spent batches the monitor loop can hand back before the parser takes
/// them; past that, the monitor drops a spent batch itself rather than
/// wait.
const RETURNED_BATCHES: usize = 2;

/// The buffer for the parser's next batch: every batch the monitor has
/// handed back is emptied here, so its events are freed on the thread that
/// allocated them, and the first one's capacity is reused. The events of
/// one batch hold a user id and a field set each; dropped on the monitor
/// thread instead, they are frees across threads, which the allocator
/// serialises against the parser's own allocations.
fn recycle(spent: &Receiver<Vec<Event>>) -> Vec<Event> {
    let mut next = Vec::new();
    for mut batch in spent.try_iter() {
        batch.clear();
        if next.capacity() == 0 {
            next = batch;
        }
    }
    next
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
    /// The run starts the parser thread and, when checkpointing, the
    /// checkpoint writer; the sink ingests on the monitor loop's own thread
    /// unless it was built to fan out (`IndexedMonitor::with_threads`).
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
        let (spent_sender, spent) = sync_channel::<Vec<Event>>(RETURNED_BATCHES);
        let mut report = PipelineReport::default();
        let durable = AtomicU64::new(0);

        let outcome = std::thread::scope(|scope| {
            let (progress, durable) = (&self.progress, &durable);
            let writer = self.config.checkpoint.as_ref().map(|path| {
                CheckpointWriter::<CaptureJob<StreamMeta>>::spawn(
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
            // the parser finishes; so does the receiver of spent batches,
            // whose leftovers the parser then frees itself.
            let source_ref = &mut source;
            let parser = scope.spawn(move || self.parse_loop(source_ref, &sender, &spent));
            let consumed = self.monitor_loop(
                &receiver,
                &spent_sender,
                sink,
                writer,
                &mut report,
                &mut on_alert,
            );
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
    /// events, and ships batches/quarantines over the bounded queue, taking
    /// back the spent batches from `spent` each time it ships one. All
    /// failures are reported through the queue.
    fn parse_loop(
        &self,
        source: &mut LiveSource,
        sender: &SyncSender<WorkItem>,
        spent: &Receiver<Vec<Event>>,
    ) {
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
                    let batch = std::mem::replace(&mut pending, recycle(spent));
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

    /// The monitor side: ingests batches and hands each spent one back to
    /// the parser over `spent` (dropping it when that is full), appends
    /// dead letters, submits periodic and final checkpoints to `writer`,
    /// flushes the sink at drain, and closes the writer.
    fn monitor_loop(
        &self,
        receiver: &Receiver<WorkItem>,
        spent: &SyncSender<Vec<Event>>,
        sink: &mut dyn MonitorSink,
        writer: Option<CheckpointWriter<'_, CaptureJob<StreamMeta>>>,
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
        // The ordinal of the capture the last job carried, if it was a
        // snapshot.
        let mut last_capture: Option<u64> = None;

        // Captures the sink at `meta` and hands the capture to the writer,
        // which counts the checkpoint once it is durable. A periodic
        // capture that directly follows the last one may go as a delta.
        let mut submit_checkpoint = |meta: &StreamMeta,
                                     sink: &mut dyn MonitorSink,
                                     periodic: bool|
         -> Result<(), PipelineError> {
            let Some(writer) = &writer else { return Ok(()) };
            let capture = sink.capture()?;
            let ordinal = match &capture {
                SinkCapture::Snapshot(snapshot) => Some(snapshot.ordinal()),
                SinkCapture::Encoded(_) => None,
            };
            let follows =
                periodic && last_capture.zip(ordinal).is_some_and(|(last, next)| next == last + 1);
            last_capture = ordinal;
            writer
                .submit(CaptureJob { position: *meta, capture, follows })
                .map_err(checkpoint_error)
        };

        while let Ok(item) = receiver.recv() {
            match item {
                WorkItem::Batch(events, meta) => {
                    let alerts = sink.ingest(&events)?;
                    let ingested = events.len() as u64;
                    PipelineProgress::add(&self.progress.ingested, ingested);
                    PipelineProgress::add(&self.progress.alerts, alerts.len() as u64);
                    report.alerts += alerts.len() as u64;
                    for alert in &alerts {
                        on_alert(alert);
                    }
                    // Alerts hold clones of the events' user ids, and so
                    // does the indexed monitor's list of changed users until
                    // a checkpoint's capture clears it: both go before the
                    // batch goes back, so that the parser drops the last
                    // reference and frees each id on the thread that
                    // allocated it.
                    drop(alerts);
                    since_checkpoint += ingested;
                    if self.config.checkpoint_every_events > 0
                        && since_checkpoint >= self.config.checkpoint_every_events
                    {
                        submit_checkpoint(&meta, sink, true)?;
                        since_checkpoint = 0;
                    }
                    last_meta = Some(meta);
                    // Never waits: a full or closed channel leaves the batch
                    // to be dropped here.
                    let _ = spent.try_send(events);
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
                submit_checkpoint(meta, sink, false)?;
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
    use privacy_distrib::CheckpointJob;

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
    /// `PipelineCheckpoint` of its encoded bytes, and both are a `PPLC` v1
    /// frame built field by field: five counters, the format tag, then the
    /// snapshot as a nested blob.
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
        let mut by_hand = Encoder::new(*b"PPLC", 1);
        for counter in [meta.offset, meta.lines, 77, meta.events, 0] {
            by_hand.u64(counter);
        }
        by_hand.u8(1);
        by_hand.bytes(&sink.snapshot().expect("snapshot"));
        assert_eq!(by_hand.finish(), expected);
        let mut file = vec![0xEE; 16];
        let capture = sink.capture().expect("capture");
        assert!(matches!(capture, SinkCapture::Snapshot(_)));
        CaptureJob { position: meta, capture, follows: false }.encode(&mut file);
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

    /// The healthcare sink and log of [`healthcare_sink_and_log`], with
    /// half the log's users registered up front without consent, and
    /// `idle` more users who never appear in the log: they make the base
    /// large against the rows a checkpoint changes.
    fn sink_with_idle_users(length: usize, idle: usize) -> (IndexedSink, Vec<u8>) {
        let (mut sink, log) = healthcare_sink_and_log(length);
        // Half the log's users without consent, so their reads alert.
        for i in (0..64).step_by(2) {
            let user = UserId::new(format!("patient-{i:03}"));
            sink.monitor.register_user(&first_sight_profile(&user, &sink.services, true));
        }
        for i in 0..idle {
            let user = UserId::new(format!("idle-{i:04}"));
            sink.monitor.register_user(&first_sight_profile(&user, &sink.services, true));
        }
        (sink, log)
    }

    /// The offline oracle: the log's events through a fresh sink of
    /// [`sink_with_idle_users`] in one batch.
    fn offline_alerts(length: usize, idle: usize) -> Vec<String> {
        let (mut sink, log) = sink_with_idle_users(length, idle);
        let events =
            privacy_ingest::ingest_bytes(&log, &FieldMapping::canonical(), &Default::default())
                .expect("clean log")
                .events;
        let mut alerts = sink.ingest(&events).expect("ingest");
        alerts.extend(sink.flush().expect("flush"));
        alerts.iter().map(ToString::to_string).collect()
    }

    /// The checkpoint file names a store keeps beside `path`.
    fn checkpoint_files(path: &Path) -> [PathBuf; 3] {
        let store = CheckpointStore::new(path);
        [path.to_owned(), store.prev_path(), store.delta_path()]
    }

    /// An indexed sink that, when `saves` is set, at each capture up to
    /// `fail_at` waits until every earlier checkpoint is durable and copies
    /// the checkpoint files as they stand into `saves/<n>` with the count
    /// of alerts reported so far; and at capture `fail_at` then puts a
    /// directory where the delta log was (moving the log to
    /// `<log>.saved`), so the next append fails.
    struct Intercepting {
        inner: IndexedSink,
        progress: Arc<PipelineProgress>,
        checkpoint: PathBuf,
        saves: Option<PathBuf>,
        fail_at: Option<u64>,
        captures: u64,
        alerts: usize,
        /// The alerts reported before the last capture.
        captured_alerts: usize,
        /// Per copy: its directory and the alerts reported before the
        /// checkpoint it holds.
        saved: Vec<(PathBuf, usize)>,
    }

    impl Intercepting {
        fn new(inner: IndexedSink, runner: &PipelineRunner, checkpoint: &Path) -> Self {
            Intercepting {
                inner,
                progress: runner.progress(),
                checkpoint: checkpoint.to_owned(),
                saves: None,
                fail_at: None,
                captures: 0,
                alerts: 0,
                captured_alerts: 0,
                saved: Vec::new(),
            }
        }

        fn wait_until_durable(&self) {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while PipelineProgress::get(&self.progress.checkpoints) < self.captures {
                assert!(std::time::Instant::now() < deadline, "checkpoints never became durable");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    impl MonitorSink for Intercepting {
        fn ingest(&mut self, events: &[Event]) -> Result<Vec<Alert>, PipelineError> {
            let alerts = self.inner.ingest(events)?;
            self.alerts += alerts.len();
            Ok(alerts)
        }

        fn flush(&mut self) -> Result<Vec<Alert>, PipelineError> {
            self.inner.flush()
        }

        fn snapshot(&mut self) -> Result<Vec<u8>, PipelineError> {
            self.inner.snapshot()
        }

        fn capture(&mut self) -> Result<SinkCapture, PipelineError> {
            if let Some(saves) = &self.saves {
                if self.captures > 0 && self.fail_at.is_none_or(|at| self.captures <= at) {
                    self.wait_until_durable();
                    let copy = saves.join(self.captures.to_string());
                    std::fs::create_dir_all(&copy).expect("copy dir");
                    for file in checkpoint_files(&self.checkpoint).iter().filter(|f| f.exists()) {
                        std::fs::copy(file, copy.join(file.file_name().expect("a file name")))
                            .expect("copy a checkpoint file");
                    }
                    self.saved.push((copy, self.captured_alerts));
                }
            }
            if self.fail_at == Some(self.captures) {
                self.wait_until_durable();
                let log = CheckpointStore::new(&self.checkpoint).delta_path();
                let mut saved = log.clone().into_os_string();
                saved.push(".saved");
                std::fs::rename(&log, saved).expect("the log exists");
                std::fs::create_dir(&log).expect("a directory in its place");
            }
            self.captures += 1;
            self.captured_alerts = self.alerts;
            self.inner.capture()
        }
    }

    /// Resumes a fresh healthcare monitor from the checkpoint at `path`
    /// and runs the rest of `log` through it, checkpointing to `out`.
    /// Returns the resumed run's alerts.
    fn resume_run(
        point: ResumePoint,
        log: &[u8],
        services: &[ServiceId],
        out: &Path,
    ) -> Vec<String> {
        let system = privacy_core::casestudy::healthcare().expect("healthcare model");
        let index = Arc::new(privacy_lts::LtsIndex::build(&system.generate_lts().expect("lts")));
        let snapshot = point.snapshot.expect("an embedded snapshot");
        let monitor = IndexedMonitor::resume_from(
            system.catalog().clone(),
            system.policy().clone(),
            index,
            &snapshot,
        )
        .expect("the loaded state resumes");
        let mut sink = IndexedSink::new(monitor, services.to_vec(), false);
        let offset = point.checkpoint.offset as usize;
        let mut config = PipelineConfig::new(FieldMapping::canonical());
        config.batch = 16;
        config.checkpoint = Some(out.to_owned());
        config.checkpoint_every_events = 64;
        config.resume = Some(point.checkpoint);
        let follow = config.follow.clone();
        let source =
            LiveSource::pipe(Box::new(std::io::Cursor::new(log[offset..].to_vec())), follow);
        let mut alerts = Vec::new();
        PipelineRunner::new(config)
            .run(source, &mut sink, |alert| alerts.push(alert.to_string()))
            .expect("the resumed run is clean");
        alerts
    }

    /// The byte ranges of the records in a delta log.
    fn record_spans(log: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut spans = Vec::new();
        let mut at = 0;
        while at < log.len() {
            let len = privacy_interchange::binary::frame_len(&log[at..]).expect("a whole record");
            spans.push(at..at + len);
            at += len;
        }
        spans
    }

    const IDLE_USERS: usize = 400;

    /// A run checkpointing every 64 events writes bases and delta records,
    /// compacting the log into a new base at least twice. The files as they
    /// stand after every periodic checkpoint — a base, or a base and its
    /// records — load without a warning and resume into exactly the rest of
    /// the uninterrupted run: its alerts, and its final checkpoint bytes.
    /// Cutting or corrupting the last record of a log resumes from the
    /// record before it, with one warning, losing and repeating no alert
    /// against the offline oracle.
    #[test]
    fn resuming_after_every_base_and_delta_continues_the_uninterrupted_run() {
        let dir = std::env::temp_dir().join(format!("pipeline-deltas-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let checkpoint = dir.join("pipeline.ckpt");
        let (sink, log) = sink_with_idle_users(3_000, IDLE_USERS);
        let services = sink.services.clone();
        let mut config = PipelineConfig::new(FieldMapping::canonical());
        config.batch = 16;
        config.checkpoint = Some(checkpoint.clone());
        config.checkpoint_every_events = 64;
        let follow = config.follow.clone();
        let runner = PipelineRunner::new(config);
        let mut sink = Intercepting::new(sink, &runner, &checkpoint);
        sink.saves = Some(dir.join("saved"));
        let mut alerts = Vec::new();
        let source = LiveSource::pipe(Box::new(std::io::Cursor::new(log.clone())), follow);
        let report = runner
            .run(source, &mut sink, |alert| alerts.push(alert.to_string()))
            .expect("clean run");
        let final_bytes = std::fs::read(&checkpoint).expect("final checkpoint");
        assert!(!CheckpointStore::new(&checkpoint).delta_path().exists(), "drain writes a base");
        assert_eq!(alerts, offline_alerts(3_000, IDLE_USERS), "the run differs from the oracle");
        assert!(!alerts.is_empty(), "the log must raise alerts for this test to pin anything");

        let mut bases = 0;
        let mut deltas = 0;
        let mut longest: Option<(usize, usize)> = None;
        for (at, (copy, before)) in sink.saved.iter().enumerate() {
            let (point, warnings) = load_checkpoint(&copy.join("pipeline.ckpt"));
            assert!(warnings.is_empty(), "copy {at}: {warnings:?}");
            let point = point.expect("the copy loads");
            if point.deltas == 0 {
                bases += 1;
            } else {
                deltas += 1;
            }
            if longest.is_none_or(|(_, records)| point.deltas >= records) {
                longest = Some((at, point.deltas));
            }
            let out = copy.join("resumed.ckpt");
            let resumed = resume_run(point, &log, &services, &out);
            assert_eq!(resumed, alerts[*before..], "copy {at}: the resumed alerts differ");
            assert!(
                std::fs::read(&out).expect("resumed final checkpoint") == final_bytes,
                "copy {at}: the resumed final checkpoint differs"
            );
        }
        assert_eq!(
            sink.saved.len() as u64 + 1,
            report.checkpoints,
            "one copy per periodic checkpoint"
        );
        assert!(bases >= 3, "{bases} bases: the log must compact at least twice");
        assert!(deltas > bases, "{deltas} delta checkpoints against {bases} bases");

        // The torn tail, on the copy with the longest log.
        let (at, records) = longest.expect("a copy");
        assert!(records >= 2, "the longest log holds {records} records");
        let (copy, _) = &sink.saved[at];
        let torn = dir.join("torn");
        std::fs::create_dir_all(&torn).expect("torn dir");
        for file in checkpoint_files(&copy.join("pipeline.ckpt")).iter().filter(|f| f.exists()) {
            std::fs::copy(file, torn.join(file.file_name().expect("a file name"))).expect("copy");
        }
        let [torn_base, _, torn_log] = checkpoint_files(&torn.join("pipeline.ckpt"));
        let log_bytes = std::fs::read(&torn_log).expect("the log");
        let last = record_spans(&log_bytes).pop().expect("a record");
        std::fs::write(&torn_log, &log_bytes[..last.start]).expect("drop the last record");
        let (expected, warnings) = load_checkpoint(&torn_base);
        let expected = expected.expect("loads");
        assert!(warnings.is_empty() && expected.deltas == records - 1, "{warnings:?}");
        let expected_snapshot = expected.snapshot.as_ref().expect("a snapshot").to_bytes();
        let mut damaged: Vec<Vec<u8>> =
            (last.start + 1..last.end).map(|len| log_bytes[..len].to_vec()).collect();
        damaged.extend(last.clone().map(|byte| {
            let mut flipped = log_bytes.clone();
            flipped[byte] ^= 0xFF;
            flipped
        }));
        for bytes in &damaged {
            std::fs::write(&torn_log, bytes).expect("damage the last record");
            let (point, warnings) = load_checkpoint(&torn_base);
            let point = point.expect("the base still loads");
            assert_eq!(warnings.len(), 1, "{warnings:?}");
            assert_eq!(point.deltas, records - 1);
            assert_eq!(point.checkpoint, expected.checkpoint);
            assert!(point.snapshot.expect("a snapshot").to_bytes() == expected_snapshot);
        }
        // That state continues the stream with no alert lost or repeated.
        let before = sink.saved.iter().find_map(|(copy, before)| {
            let (point, _) = load_checkpoint(&copy.join("pipeline.ckpt"));
            (point.expect("loads").checkpoint == expected.checkpoint).then_some(*before)
        });
        let before = before.expect("the record before is another copy's last");
        let resumed = resume_run(expected, &log, &services, &torn.join("resumed.ckpt"));
        assert_eq!(
            [&alerts[..before], &resumed[..]].concat(),
            offline_alerts(3_000, IDLE_USERS),
            "resuming from the torn log lost or repeated alerts"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A delta append that fails after a good base fails the run with the
    /// sticky `PipelineError::Io` naming the delta log, and the base with
    /// every whole record appended before the failure still loads.
    #[test]
    fn a_failed_delta_append_fails_the_run_and_leaves_the_records_before_it() {
        let dir = std::env::temp_dir().join(format!("pipeline-delta-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let checkpoint = dir.join("pipeline.ckpt");
        let (sink, log) = sink_with_idle_users(3_000, IDLE_USERS);
        let mut config = PipelineConfig::new(FieldMapping::canonical());
        config.batch = 16;
        config.checkpoint = Some(checkpoint.clone());
        config.checkpoint_every_events = 64;
        let follow = config.follow.clone();
        let runner = PipelineRunner::new(config);
        let mut sink = Intercepting::new(sink, &runner, &checkpoint);
        sink.saves = Some(dir.join("saved"));
        sink.fail_at = Some(3);
        let source = LiveSource::pipe(Box::new(std::io::Cursor::new(log)), follow);
        let delta_path = CheckpointStore::new(&checkpoint).delta_path();
        match runner.run(source, &mut sink, |_| {}) {
            Err(PipelineError::Io(message)) => {
                assert!(message.contains(delta_path.to_str().expect("utf-8 path")), "{message}")
            }
            other => panic!("expected an Io error, got {other:?}"),
        }
        assert_eq!(PipelineProgress::get(&runner.progress().checkpoints), 3);

        std::fs::remove_dir(&delta_path).expect("the directory");
        let mut saved = delta_path.clone().into_os_string();
        saved.push(".saved");
        std::fs::rename(saved, &delta_path).expect("the log back");
        let (point, warnings) = load_checkpoint(&checkpoint);
        let point = point.expect("the base loads");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(point.deltas, 2, "the base and both whole records load");
        // The same state as the files held before the failed append.
        let (copy, _) = sink.saved.last().expect("copies up to the failure");
        let (before, _) = load_checkpoint(&copy.join("pipeline.ckpt"));
        let before = before.expect("the copy loads");
        assert_eq!(point.checkpoint, before.checkpoint);
        assert!(point.snapshot == before.snapshot);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The monitor's fan-out is a pure scheduling choice: a run with
    /// periodic checkpoints raises the same alerts, in the same order, and
    /// writes a byte-identical final checkpoint whether the monitor fans
    /// out over one thread, four, or the default (the calling thread). Half
    /// the log's users are registered ahead of the run without consent
    /// (held encoded until their first event, and alerted on), the rest on
    /// first sight.
    #[test]
    fn monitor_fan_out_leaves_alerts_and_checkpoint_bytes_unchanged() {
        let dir = std::env::temp_dir().join(format!("pipeline-threads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut outcomes = Vec::new();
        for threads in [Some(1), Some(4), None] {
            let (sink, log) = healthcare_sink_and_log(3_000);
            let mut monitor = sink.monitor.with_threads(threads);
            for i in (0..64).step_by(2) {
                let user = UserId::new(format!("patient-{i:03}"));
                monitor.register_user(&first_sight_profile(&user, &sink.services, true));
            }
            let mut sink = IndexedSink { monitor, ..sink };
            let checkpoint = dir.join(format!("threads-{threads:?}.ckpt"));
            let mut config = PipelineConfig::new(FieldMapping::canonical());
            config.batch = 64;
            config.checkpoint = Some(checkpoint.clone());
            config.checkpoint_every_events = 128;
            let follow = config.follow.clone();
            let runner = PipelineRunner::new(config);
            let mut alerts = Vec::new();
            let source = LiveSource::pipe(Box::new(std::io::Cursor::new(log)), follow);
            let report = runner
                .run(source, &mut sink, |alert| alerts.push(alert.to_string()))
                .expect("clean run");
            assert!(report.checkpoints > 2, "{threads:?}: periodic checkpoints were written");
            let bytes = std::fs::read(&checkpoint).expect("final checkpoint");
            outcomes.push((threads, alerts, bytes));
        }
        let (_, alerts, bytes) = &outcomes[0];
        assert!(!alerts.is_empty(), "the log must raise alerts for this test to pin anything");
        for (threads, other_alerts, other_bytes) in &outcomes[1..] {
            assert_eq!(other_alerts, alerts, "{threads:?}: alert stream differs");
            assert!(other_bytes == bytes, "{threads:?}: final checkpoint bytes differ");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A pipe over `log` that, once it has handed out the bytes before
    /// `stall_at`, stalls the parser until the monitor has ingested every
    /// event resolved so far, or until a deadline; `caught_up` records
    /// which.
    struct StallingReader {
        log: std::io::Cursor<Vec<u8>>,
        stall_at: u64,
        progress: Arc<PipelineProgress>,
        caught_up: Arc<AtomicBool>,
        stalled: bool,
    }

    impl std::io::Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let at = self.log.position();
            if at == self.stall_at && !self.stalled {
                self.stalled = true;
                let resolved = PipelineProgress::get(&self.progress.events);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
                while PipelineProgress::get(&self.progress.ingested) < resolved
                    && std::time::Instant::now() < deadline
                {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                let ingested = PipelineProgress::get(&self.progress.ingested);
                self.caught_up.store(ingested == resolved, Ordering::Relaxed);
            }
            let room = if at < self.stall_at { (self.stall_at - at) as usize } else { buf.len() };
            let len = room.min(buf.len());
            std::io::Read::read(&mut self.log, &mut buf[..len])
        }
    }

    /// With a one-batch queue and a parser stalled in its source after 400
    /// lines, which takes no spent batch back while it stalls, the monitor
    /// still ingests every batch it was sent. The stall changes nothing the
    /// run reports: the alert stream and the final checkpoint bytes equal
    /// those of a run without it.
    #[test]
    fn a_stalled_parser_never_blocks_the_monitor_on_spent_batches() {
        let dir = std::env::temp_dir().join(format!("pipeline-handoff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut outcomes = Vec::new();
        for stall in [false, true] {
            let (mut sink, log) = healthcare_sink_and_log(1_000);
            // Users registered without consent, so their reads alert.
            for i in (0..64).step_by(2) {
                let user = UserId::new(format!("patient-{i:03}"));
                sink.monitor.register_user(&first_sight_profile(&user, &sink.services, true));
            }
            let stall_at = log
                .iter()
                .enumerate()
                .filter(|&(_, &byte)| byte == b'\n')
                .nth(399)
                .map(|(at, _)| at as u64 + 1)
                .expect("the log has 400 lines");
            let checkpoint = dir.join(format!("stall-{stall}.ckpt"));
            let mut config = PipelineConfig::new(FieldMapping::canonical());
            config.batch = 8;
            config.queue_batches = 1;
            config.checkpoint = Some(checkpoint.clone());
            config.checkpoint_every_events = 64;
            let follow = config.follow.clone();
            let runner = PipelineRunner::new(config);
            let caught_up = Arc::new(AtomicBool::new(false));
            let reader: Box<dyn std::io::Read + Send> = if stall {
                Box::new(StallingReader {
                    log: std::io::Cursor::new(log),
                    stall_at,
                    progress: runner.progress(),
                    caught_up: Arc::clone(&caught_up),
                    stalled: false,
                })
            } else {
                Box::new(std::io::Cursor::new(log))
            };
            let mut alerts = Vec::new();
            let report = runner
                .run(LiveSource::pipe(reader, follow), &mut sink, |alert| {
                    alerts.push(alert.to_string());
                })
                .expect("clean run");
            assert_eq!(report.skipped, 0, "every line is an event, so no batch is partial");
            if stall {
                assert!(
                    caught_up.load(Ordering::Relaxed),
                    "the monitor stopped short of the batches it was sent while the parser stalled"
                );
            }
            outcomes.push((alerts, std::fs::read(&checkpoint).expect("final checkpoint")));
        }
        let _ = std::fs::remove_dir_all(dir);
        assert!(
            !outcomes[0].0.is_empty(),
            "the log must raise alerts for this test to pin anything"
        );
        assert_eq!(outcomes[1].0, outcomes[0].0, "the stall changed the alert stream");
        assert!(outcomes[1].1 == outcomes[0].1, "the stall changed the final checkpoint bytes");
    }

    /// The monitor loop never waits on the return channel: with nobody
    /// taking spent batches back, it ingests every batch it is sent, hands
    /// back as many as the channel holds and drops the rest itself.
    #[test]
    fn the_monitor_loop_drops_the_spent_batches_a_full_return_channel_cannot_take() {
        let (mut sink, log) = healthcare_sink_and_log(100);
        let events =
            privacy_ingest::ingest_bytes(&log, &FieldMapping::canonical(), &Default::default())
                .expect("clean log")
                .events;
        let meta = StreamMeta {
            offset: log.len() as u64,
            lines: events.len() as u64,
            next_sequence: events.len() as u64 + 1,
            events: events.len() as u64,
            skipped: 0,
            format: Some(Format::Json),
        };
        let batches: Vec<Vec<Event>> = events.chunks(8).map(<[Event]>::to_vec).collect();
        assert!(batches.len() > RETURNED_BATCHES, "more batches than the return channel holds");
        let (sender, receiver) = sync_channel(batches.len() + 1);
        for batch in &batches {
            sender.send(WorkItem::Batch(batch.clone(), meta)).expect("the queue has room");
        }
        sender.send(WorkItem::Drained(meta)).expect("the queue has room");
        let (spent_sender, spent) = sync_channel(RETURNED_BATCHES);
        let runner = PipelineRunner::new(PipelineConfig::new(FieldMapping::canonical()));
        let (done, finished) = std::sync::mpsc::channel();
        // On a thread of its own, so a loop that waits on the full channel
        // fails this test instead of hanging it.
        std::thread::spawn(move || {
            let mut report = PipelineReport::default();
            let outcome = runner.monitor_loop(
                &receiver,
                &spent_sender,
                &mut sink,
                None,
                &mut report,
                &mut |_| {},
            );
            let ingested = PipelineProgress::get(&runner.progress.ingested);
            let _ = done.send((outcome.is_ok(), ingested));
        });
        let (clean, ingested) = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the monitor loop waited on the full return channel");
        assert!(clean, "the monitor loop failed");
        assert_eq!(ingested, events.len() as u64, "every batch sent was ingested");
        let returned: Vec<Vec<Event>> = spent.try_iter().collect();
        assert_eq!(returned, batches[..RETURNED_BATCHES], "the first spent batches come back");
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
        let direct = proto.clone().ingest_batch(&events).to_vec();
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
