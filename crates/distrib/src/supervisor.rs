//! The supervisor: [`DistributedMonitor`], a fault-tolerant router over
//! shard-owning worker processes.
//!
//! # Topology and determinism
//!
//! Every event is routed by `shard_of_user` to the worker that owns that
//! shard. Shards are assigned once, at launch, as contiguous ranges, and
//! never move while the fleet runs. Each submitted super-batch is split
//! into per-worker sub-batches whose events keep their
//! **position** in the super-batch; workers ack with position-tagged alerts,
//! and the supervisor reassembles super-batches in order, sorting each
//! one's merged alerts by position. Because a user's events always flow
//! through one owner in stream order, the merged stream is identical to the
//! in-process
//! [`IndexedMonitor::ingest_batch`](privacy_runtime::IndexedMonitor)
//! ordering — and stays identical under every fault the harness can inject,
//! which is what `tests/fault_differential.rs` asserts.
//!
//! # Data plane: coalesced frames over per-worker writer threads
//!
//! Sub-batches are not framed one by one on the supervisor thread. Each
//! worker lane owns a dedicated **writer thread** behind a bounded queue:
//! the supervisor enqueues sub-batch parts (cheap: no encoding) and the
//! writer coalesces adjacent parts into one
//! [`IngestBatch`](Message::IngestBatch) frame — flushed when
//! `max_frame_events` accumulate or the `linger` deadline passes, so
//! trickle input still sees bounded latency. Sends to different workers
//! overlap instead of serializing, and one frame pays one length/checksum
//! for many events. Workers answer with cumulative
//! [`AckThrough`](Message::AckThrough) frames carrying every alert the
//! supervisor has not yet confirmed; the next outbound frame piggybacks the
//! confirmed high-water (`acked_through`) back, which both prunes the
//! worker's retained alert buffer and lets a swallowed ack self-heal on the
//! next frame instead of forcing a restart. Control frames (register,
//! checkpoint, shutdown) flush any coalescing parts first, so the
//! per-lane FIFO order the protocol relies on is preserved.
//!
//! # Backpressure
//!
//! At most `window` sub-batches may be in flight per worker; submitting
//! more blocks on that worker's acks. The queue to a worker is therefore
//! bounded end to end — writer queue plus pipe hold at most `window`
//! sub-batches — and a stalled worker stalls its *own* lane, then (via the
//! ack timeout, scaled by `ack_grace_per_event` for the events legitimately
//! in flight) gets killed and restarted rather than wedging the fleet
//! forever.
//!
//! # Failure model
//!
//! Worker death is detected as pipe EOF, an undecodable frame, a
//! [`Fatal`](Message::Fatal) report, or an ack/checkpoint timeout. Terminal
//! exit codes (see [`crate::exit`]) abort the run with a typed error;
//! anything else triggers supervised restart with exponential backoff and a
//! deterministic jitter, capped by [`RestartPolicy`]. A replacement resumes
//! from the newest *valid* checkpoint generation (falling back past a
//! corrupt one with a recorded warning), gets its owned profiles
//! re-registered, and replays exactly the retained suffix of sub-batches
//! newer than the checkpoint. Re-acked batches that were already emitted are
//! recognised by id and dropped, so replay never duplicates an alert
//! downstream.
//!
//! The retained suffix and the profile registry live only in this
//! supervisor's memory, so only checkpoints written during this run can be
//! resumed: [`DistributedMonitor::launch`] refuses a checkpoint directory
//! that already holds a worker checkpoint.

use crate::checkpoint::{decode_frame, CheckpointStore, Generation, Loaded};
use crate::exit;
use crate::fault::FaultPlan;
use crate::wire::Message;
use crate::worker::WorkerPosition;
use privacy_core::PrivacySystem;
use privacy_interchange::{read_frame, render_system, write_frame};
use privacy_model::UserProfile;
use privacy_runtime::{shard_of_user, Alert, Event, SHARD_COUNT};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError,
};
use std::thread;
use std::time::{Duration, Instant};

/// Bound of the supervisor→writer command queue, in commands.
const WRITER_QUEUE: usize = 16;

/// How long a fresh worker may take to parse the model, rebuild the index
/// and report [`Ready`](Message::Ready).
const STARTUP_TIMEOUT: Duration = Duration::from_secs(120);

/// When and how often a dead worker is restarted.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Delay before the first restart attempt; doubles per attempt.
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay (the jitter cap).
    pub max_delay: Duration,
    /// Restarts allowed without intervening progress before the supervisor
    /// gives up with a typed error.
    pub max_restarts: u32,
    /// Acked batches a fresh incarnation must deliver before the restart
    /// budget resets. One ack is not progress: a worker that limps through
    /// a single batch per incarnation and then dies would otherwise crash-
    /// loop forever inside a perpetually-renewed budget. Only *sustained*
    /// health — this many acks from one incarnation — forgives its past.
    pub reset_after_acks: u32,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        Self {
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            max_restarts: 5,
            reset_after_acks: 3,
        }
    }
}

impl RestartPolicy {
    /// Exponential backoff with a deterministic per-(worker, spawn) jitter,
    /// capped at `max_delay`. Deterministic jitter keeps runs reproducible
    /// while still de-synchronising workers that died together.
    fn delay_for(&self, attempt: u32, worker: usize, spawn_count: u32) -> Duration {
        let doubled = self.base_delay.saturating_mul(1u32 << attempt.min(10));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for word in [worker as u64, u64::from(spawn_count)] {
            hash ^= word;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let jitter = self.base_delay.saturating_mul((hash % 1000) as u32) / 2000;
        doubled.saturating_add(jitter).min(self.max_delay)
    }
}

/// Configuration for a [`DistributedMonitor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The worker executable (the `privacy-shardd` binary).
    pub worker_program: PathBuf,
    /// Number of worker processes (1 ..= [`SHARD_COUNT`]).
    pub workers: usize,
    /// Maximum sub-batches in flight per worker before submits block.
    pub window: usize,
    /// Checkpoint all workers every N super-batches (0 = only on demand).
    pub checkpoint_every: u64,
    /// Directory for the per-worker checkpoint files. It must hold no
    /// worker checkpoint when the fleet launches.
    pub checkpoint_dir: PathBuf,
    /// How long to wait for an ack before declaring a worker stalled. The
    /// effective deadline additionally grows by
    /// [`ack_grace_per_event`](Self::ack_grace_per_event) for every event
    /// currently in flight, so
    /// a large legitimate batch on a slow model is not mistaken for a hang.
    pub ack_timeout: Duration,
    /// Extra ack-deadline grace granted per in-flight event.
    pub ack_grace_per_event: Duration,
    /// Most events one coalesced [`IngestBatch`](Message::IngestBatch)
    /// frame may carry before the writer flushes it.
    pub max_frame_events: usize,
    /// How long the writer holds a partially filled frame open for more
    /// parts before flushing it anyway — the latency bound under trickle
    /// input.
    pub linger: Duration,
    /// How long to wait for a checkpoint reply.
    pub control_timeout: Duration,
    /// Restart backoff policy.
    pub restart: RestartPolicy,
    /// Failure-injection schedule (empty in production).
    pub fault_plan: FaultPlan,
}

impl SupervisorConfig {
    /// A config with sensible defaults for the given worker executable and
    /// checkpoint directory.
    #[must_use]
    pub fn new(worker_program: impl Into<PathBuf>, checkpoint_dir: impl Into<PathBuf>) -> Self {
        Self {
            worker_program: worker_program.into(),
            workers: 2,
            window: 4,
            checkpoint_every: 0,
            checkpoint_dir: checkpoint_dir.into(),
            ack_timeout: Duration::from_secs(10),
            ack_grace_per_event: Duration::from_millis(5),
            max_frame_events: 1024,
            linger: Duration::from_millis(2),
            control_timeout: Duration::from_secs(60),
            restart: RestartPolicy::default(),
            fault_plan: FaultPlan::none(),
        }
    }
}

/// One supervised restart, as recorded in [`DistribStats`].
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The worker slot that was restarted.
    pub worker: usize,
    /// The incarnation that replaced the dead one.
    pub incarnation: u32,
    /// Why the old incarnation was declared dead.
    pub cause: String,
    /// Wall-clock time from death detection to the replacement being caught
    /// up (resumed, re-registered, suffix replayed).
    pub latency: Duration,
    /// The super-batch the resumed checkpoint covered through.
    pub resumed_from_batch: u64,
    /// Whether the resume had to fall back to the `.prev` generation.
    pub fell_back: bool,
}

/// Counters and records describing a supervised run.
#[derive(Debug, Clone, Default)]
pub struct DistribStats {
    /// Super-batches submitted.
    pub batches: u64,
    /// Events submitted.
    pub events: u64,
    /// Alerts emitted in the merged stream.
    pub alerts: u64,
    /// Checkpoints completed across all workers.
    pub checkpoints: u64,
    /// Checkpoint generations the loader had to skip (with causes).
    pub checkpoint_warnings: Vec<String>,
    /// Checkpoint files corrupted on purpose by the fault plan.
    pub corruptions_injected: u64,
    /// Every supervised restart, in order.
    pub recoveries: Vec<Recovery>,
}

/// A typed supervisor failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum DistribError {
    /// The configuration cannot describe a runnable fleet.
    Config {
        /// What is wrong with it.
        detail: String,
    },
    /// A worker died with an exit code restarting cannot fix.
    WorkerTerminal {
        /// The worker slot.
        worker: usize,
        /// Its exit code (see [`crate::exit`]).
        code: i32,
        /// The death cause as detected.
        detail: String,
    },
    /// A worker kept dying without making progress.
    RestartsExhausted {
        /// The worker slot.
        worker: usize,
        /// How many restarts were attempted.
        attempts: u32,
        /// The last failure.
        last: String,
    },
    /// A worker (or its pipe) broke the protocol in a way that is not a
    /// death: an ack for the wrong batch, an unexpected message kind.
    Protocol {
        /// The worker slot.
        worker: usize,
        /// What it did.
        detail: String,
    },
    /// No checkpoint generation covers the replay window: the retained
    /// suffix starts after the best available checkpoint ends, so state
    /// would be silently lost. (Reachable only when both generations are
    /// corrupt or deleted.)
    CheckpointUnrecoverable {
        /// The worker slot.
        worker: usize,
        /// What is missing.
        detail: String,
    },
}

impl DistribError {
    /// The process exit code (see [`crate::exit`]) a supervisor that fails
    /// with this error exits with: [`exit::USAGE`] for a configuration
    /// error, a terminal worker's own code, [`exit::PROTOCOL_FATAL`] for a
    /// protocol break, [`exit::SNAPSHOT_FATAL`] for an unrecoverable
    /// checkpoint and [`exit::RESTARTS_EXHAUSTED`] for a crash loop.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            DistribError::Config { .. } => exit::USAGE,
            DistribError::WorkerTerminal { code, .. } => *code,
            DistribError::RestartsExhausted { .. } => exit::RESTARTS_EXHAUSTED,
            DistribError::Protocol { .. } => exit::PROTOCOL_FATAL,
            DistribError::CheckpointUnrecoverable { .. } => exit::SNAPSHOT_FATAL,
        }
    }
}

impl fmt::Display for DistribError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistribError::Config { detail } => write!(f, "bad supervisor config: {detail}"),
            DistribError::WorkerTerminal { worker, code, detail } => write!(
                f,
                "worker {worker} died with terminal exit code {code} ({}): {detail}",
                exit::describe(*code)
            ),
            DistribError::RestartsExhausted { worker, attempts, last } => write!(
                f,
                "worker {worker} kept dying: gave up after {attempts} restarts (last: {last})"
            ),
            DistribError::Protocol { worker, detail } => {
                write!(f, "worker {worker} broke the protocol: {detail}")
            }
            DistribError::CheckpointUnrecoverable { worker, detail } => {
                write!(f, "worker {worker} cannot be recovered: {detail}")
            }
        }
    }
}

impl std::error::Error for DistribError {}

/// The worker slot that owns `shard` in a fleet of `workers`: slots own
/// contiguous shard ranges, fixed at launch.
fn owner_of(shard: usize, workers: usize) -> usize {
    shard * workers / SHARD_COUNT
}

/// A worker checkpoint file, of either generation, in `dir`: what an
/// earlier run left behind.
fn worker_checkpoint_in(dir: &Path) -> Option<PathBuf> {
    let is_checkpoint = |name: &str| {
        name.starts_with("worker-") && (name.ends_with(".ckpt") || name.ends_with(".ckpt.prev"))
    };
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .find(|entry| entry.file_name().to_str().is_some_and(is_checkpoint))
        .map(|entry| entry.path())
}

/// One command to a worker lane's writer thread.
enum WriteCmd {
    /// A pre-encoded control frame. Pending coalesced parts are flushed
    /// first so the lane stays FIFO.
    Frame(Vec<u8>),
    /// One sub-batch part for the coalescing buffer. Encoding happens on
    /// the writer thread, off the supervisor's critical path.
    Part {
        batch: u64,
        events: Vec<(u32, Event)>,
        /// The supervisor's confirmed high-water at enqueue time, piggybacked
        /// on the frame so the worker prunes its retained alert buffer.
        acked_through: u64,
    },
    /// Flush the coalescing buffer now (a lane flush is about to wait on
    /// acks that only arrive once the parts are on the wire).
    Flush,
}

/// A live worker process: the child, the bounded queue feeding its writer
/// thread, and the channel its reader thread feeds with stdout frames. The
/// reader exits (dropping its sender) on EOF or any read error, so death
/// always surfaces as a disconnected channel; the writer exits when its
/// queue disconnects or the pipe breaks.
struct WorkerProc {
    child: Child,
    writer_tx: Option<SyncSender<WriteCmd>>,
    writer: Option<thread::JoinHandle<()>>,
    rx: Receiver<Vec<u8>>,
}

/// The writer thread: coalesces adjacent `Part` commands into one
/// [`Message::IngestBatch`] frame, flushed on `max_frame_events`, on the
/// `linger` deadline, on a control frame, or on an explicit `Flush`. Exits
/// (after a best-effort drain) when the command queue disconnects or a pipe
/// write fails — the reader thread surfaces the actual death.
fn writer_loop(
    commands: &Receiver<WriteCmd>,
    stdin: ChildStdin,
    max_frame_events: usize,
    linger: Duration,
) {
    let mut out = BufWriter::new(stdin);
    let mut parts: Vec<(u64, Vec<(u32, Event)>)> = Vec::new();
    let mut buffered = 0usize;
    let mut acked_through = 0u64;
    let mut deadline = Instant::now();
    let flush_parts = |parts: &mut Vec<(u64, Vec<(u32, Event)>)>,
                       buffered: &mut usize,
                       acked_through: u64,
                       out: &mut BufWriter<ChildStdin>| {
        if parts.is_empty() {
            return true;
        }
        *buffered = 0;
        let message = Message::IngestBatch { acked_through, parts: std::mem::take(parts) };
        write_frame(out, &message.encode()).is_ok()
    };
    loop {
        let command = if parts.is_empty() {
            commands.recv().ok()
        } else {
            match commands.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(command) => Some(command),
                Err(RecvTimeoutError::Timeout) => {
                    if !flush_parts(&mut parts, &mut buffered, acked_through, &mut out) {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => None,
            }
        };
        match command {
            Some(WriteCmd::Part { batch, events, acked_through: confirmed }) => {
                acked_through = acked_through.max(confirmed);
                if parts.is_empty() {
                    deadline = Instant::now() + linger;
                }
                buffered += events.len();
                parts.push((batch, events));
                if buffered >= max_frame_events
                    && !flush_parts(&mut parts, &mut buffered, acked_through, &mut out)
                {
                    return;
                }
            }
            Some(WriteCmd::Frame(frame)) => {
                if !flush_parts(&mut parts, &mut buffered, acked_through, &mut out) {
                    return;
                }
                if write_frame(&mut out, &frame).is_err() {
                    return;
                }
            }
            Some(WriteCmd::Flush) => {
                if !flush_parts(&mut parts, &mut buffered, acked_through, &mut out) {
                    return;
                }
            }
            None => {
                let _ = flush_parts(&mut parts, &mut buffered, acked_through, &mut out);
                return;
            }
        }
    }
}

/// Everything the supervisor tracks per worker slot, surviving restarts.
struct WorkerSlot {
    proc: Option<WorkerProc>,
    /// How many processes have ever been spawned into this slot; the
    /// current incarnation is `spawn_count - 1`.
    spawn_count: u32,
    /// Restarts since the last *sustained* progress (see
    /// [`RestartPolicy::reset_after_acks`]).
    consecutive_restarts: u32,
    /// Batches acked by the current incarnation, for the sustained-progress
    /// test. Zeroed on every spawn.
    acks_since_spawn: u32,
    /// Sub-batches sent but not yet acked, in send order, as
    /// `(batch id, event count)` — the count feeds the per-event ack grace.
    inflight: VecDeque<(u64, u32)>,
    /// Highest batch id confirmed (popped from `inflight`) over the slot's
    /// whole life; piggybacked on outbound frames as `acked_through`.
    /// Monotonic across restarts.
    merged_through: u64,
    /// Sub-batches newer than the previous checkpoint generation, kept for
    /// suffix replay. Two generations are retained so a fallback to the
    /// `.prev` checkpoint still has its whole suffix.
    retained: VecDeque<(u64, Vec<(u32, Event)>)>,
    /// Super-batch coverage of the live / previous checkpoint generation.
    coverage: u64,
    prev_coverage: u64,
    /// Successful checkpoints, for the corrupt-checkpoint fault schedule.
    ckpt_ordinal: u64,
    /// [`Message::Checkpoint`] requests sent on the periodic (asynchronous)
    /// path whose [`Message::CheckpointDone`] has not arrived yet. The
    /// supervisor keeps streaming while the worker encodes and fsyncs; the
    /// reply is collected by [`DistributedMonitor::pump`] or the next ack
    /// wait. Zeroed on every spawn (a dead worker's replies never come).
    ckpts_pending: u32,
    store: CheckpointStore,
}

/// A super-batch being reassembled from per-worker acks.
struct PendingBatch {
    expected: usize,
    got: BTreeMap<usize, Vec<(u32, Alert)>>,
}

enum Received {
    Msg(Message),
    Dead(String),
    TimedOut,
}

enum BringUp {
    Retry(String),
    Terminal(DistribError),
}

/// The supervisor over a fleet of `privacy-shardd` workers. See the module
/// docs for the topology, backpressure and failure model.
pub struct DistributedMonitor {
    config: SupervisorConfig,
    model_psm: String,
    fingerprint: u64,
    /// shard → profiles registered there, in registration order (replayed
    /// to every new incarnation; registration is idempotent worker-side).
    registry: Vec<Vec<UserProfile>>,
    workers: Vec<WorkerSlot>,
    next_batch: u64,
    next_emit: u64,
    assembly: BTreeMap<u64, PendingBatch>,
    emitted: Vec<Alert>,
    stats: DistribStats,
}

impl fmt::Debug for DistributedMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistributedMonitor")
            .field("workers", &self.workers.len())
            .field("next_batch", &self.next_batch)
            .field("next_emit", &self.next_emit)
            .finish_non_exhaustive()
    }
}

impl DistributedMonitor {
    /// Renders the system to `.psm`, spawns the fleet, and waits for every
    /// worker to report ready with a matching index fingerprint.
    ///
    /// `fingerprint` is the design-time [`LtsIndex`](privacy_lts::LtsIndex)
    /// fingerprint the supervisor's own pipeline computed; every worker
    /// must reproduce it from the shipped model.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Config`] for an unrunnable configuration,
    /// including a checkpoint directory that already holds a worker
    /// checkpoint, and the relevant typed error when a worker cannot be
    /// brought up.
    pub fn launch(
        name: &str,
        system: &PrivacySystem,
        fingerprint: u64,
        config: SupervisorConfig,
    ) -> Result<Self, DistribError> {
        if config.workers == 0 || config.workers > SHARD_COUNT {
            return Err(DistribError::Config {
                detail: format!(
                    "worker count must be in 1..={SHARD_COUNT}, got {}",
                    config.workers
                ),
            });
        }
        if config.window == 0 {
            return Err(DistribError::Config { detail: "window must be at least 1".to_owned() });
        }
        if config.max_frame_events == 0 {
            return Err(DistribError::Config {
                detail: "max_frame_events must be at least 1".to_owned(),
            });
        }
        if let Some(leftover) = worker_checkpoint_in(&config.checkpoint_dir) {
            return Err(DistribError::Config {
                detail: format!(
                    "checkpoint directory `{}` holds `{}` from an earlier run, which this fleet \
                     cannot resume; remove it or choose an empty directory",
                    config.checkpoint_dir.display(),
                    leftover.display()
                ),
            });
        }
        let model_psm = render_system(name, system);
        let workers = config.workers;
        let slots = (0..workers)
            .map(|w| WorkerSlot {
                proc: None,
                spawn_count: 0,
                consecutive_restarts: 0,
                acks_since_spawn: 0,
                inflight: VecDeque::new(),
                merged_through: 0,
                retained: VecDeque::new(),
                coverage: 0,
                prev_coverage: 0,
                ckpt_ordinal: 0,
                ckpts_pending: 0,
                store: CheckpointStore::new(config.checkpoint_dir.join(format!("worker-{w}.ckpt"))),
            })
            .collect();
        let mut monitor = DistributedMonitor {
            config,
            model_psm,
            fingerprint,
            registry: vec![Vec::new(); SHARD_COUNT],
            workers: slots,
            next_batch: 1,
            next_emit: 1,
            assembly: BTreeMap::new(),
            emitted: Vec::new(),
            stats: DistribStats::default(),
        };
        for w in 0..workers {
            monitor.restart_loop(w, None)?;
        }
        Ok(monitor)
    }

    /// The number of worker slots.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The run statistics so far.
    #[must_use]
    pub fn stats(&self) -> &DistribStats {
        &self.stats
    }

    /// Registers a user with the owner of their shard. Idempotent: a
    /// profile with an already-registered id is ignored, mirroring the
    /// worker-side re-registration semantics.
    ///
    /// # Errors
    ///
    /// Propagates restart failures if the owner is dead and cannot be
    /// revived.
    pub fn register_user(&mut self, profile: &UserProfile) -> Result<(), DistribError> {
        let shard = shard_of_user(profile.id()) as usize;
        if self.registry[shard].iter().any(|p| p.id() == profile.id()) {
            return Ok(());
        }
        self.registry[shard].push(profile.clone());
        let w = owner_of(shard, self.workers.len());
        let message = Message::Register { profile: profile.clone() };
        if let Err(cause) = self.send_raw(w, &message) {
            // The revived worker re-registers from the registry, which
            // already holds this profile.
            self.handle_death(w, cause)?;
        }
        Ok(())
    }

    /// Submits one super-batch: splits it across shard owners, applies
    /// backpressure, and returns every alert of super-batches completed so
    /// far, merged in deterministic batch/position order.
    ///
    /// # Errors
    ///
    /// Propagates typed supervisor failures; transient worker deaths are
    /// handled internally by restart and replay.
    pub fn submit_batch(&mut self, events: &[Event]) -> Result<Vec<Alert>, DistribError> {
        let id = self.next_batch;
        self.next_batch += 1;
        self.stats.batches += 1;
        self.stats.events += events.len() as u64;
        let mut parts: BTreeMap<usize, Vec<(u32, Event)>> = BTreeMap::new();
        for (position, event) in events.iter().enumerate() {
            let w = owner_of(shard_of_user(event.user()) as usize, self.workers.len());
            parts.entry(w).or_default().push((position as u32, event.clone()));
        }
        self.assembly.insert(id, PendingBatch { expected: parts.len(), got: BTreeMap::new() });
        for (w, part) in parts {
            while self.workers[w].inflight.len() >= self.config.window {
                self.await_one_ack(w)?;
            }
            // Retain before sending: if the send fails, the restart path
            // replays the batch from the retained suffix.
            self.workers[w].retained.push_back((id, part.clone()));
            let count = part.len() as u32;
            match self.send_part(w, id, part) {
                Ok(()) => self.workers[w].inflight.push_back((id, count)),
                Err(cause) => self.handle_death(w, cause)?,
            }
        }
        for w in 0..self.workers.len() {
            self.pump(w)?;
        }
        self.drain_ready();
        if self.config.checkpoint_every > 0 {
            self.checkpoint_async(id)?;
        }
        Ok(std::mem::take(&mut self.emitted))
    }

    /// Blocks until every in-flight sub-batch is acked and returns the
    /// remaining merged alerts.
    ///
    /// # Errors
    ///
    /// Propagates typed supervisor failures.
    pub fn flush(&mut self) -> Result<Vec<Alert>, DistribError> {
        for w in 0..self.workers.len() {
            self.flush_worker(w)?;
        }
        Ok(std::mem::take(&mut self.emitted))
    }

    /// Checkpoints every worker now, **synchronously** (flushing their
    /// lanes first): on return every worker has a completed checkpoint.
    /// For callers that need durability to be certain before proceeding;
    /// the periodic cadence goes through the private `checkpoint_async`
    /// instead.
    ///
    /// The checkpoint is still **broadcast**: every worker gets the request
    /// before any reply is awaited, so the workers' snapshot encodes and
    /// fsyncs overlap instead of serializing. A worker that dies
    /// mid-checkpoint falls back to the sequential per-worker path, which
    /// restarts it and retries.
    ///
    /// # Errors
    ///
    /// Propagates typed supervisor failures.
    pub fn checkpoint_now(&mut self) -> Result<(), DistribError> {
        for w in 0..self.workers.len() {
            self.flush_worker(w)?;
        }
        let mut awaiting = Vec::new();
        for w in 0..self.workers.len() {
            match self.send_raw(w, &Message::Checkpoint) {
                Ok(()) => awaiting.push(w),
                Err(cause) => {
                    self.handle_death(w, cause)?;
                    self.checkpoint_worker(w)?;
                }
            }
        }
        for w in awaiting {
            match self.recv(w, self.config.control_timeout) {
                Received::Msg(Message::CheckpointDone { through_batch }) => {
                    self.complete_checkpoint(w, through_batch)?;
                }
                Received::Msg(other) => {
                    return Err(DistribError::Protocol {
                        worker: w,
                        detail: format!("expected CheckpointDone, got {other:?}"),
                    })
                }
                Received::Dead(cause) => {
                    self.handle_death(w, cause)?;
                    self.checkpoint_worker(w)?;
                }
                Received::TimedOut => {
                    self.handle_death(w, "checkpoint timed out".to_owned())?;
                    self.checkpoint_worker(w)?;
                }
            }
        }
        Ok(())
    }

    /// Flushes the fleet, asks every worker to exit, reaps the processes,
    /// and returns the remaining merged alerts plus the run statistics.
    ///
    /// # Errors
    ///
    /// Propagates typed supervisor failures from the final flush.
    pub fn shutdown(&mut self) -> Result<(Vec<Alert>, DistribStats), DistribError> {
        let alerts = self.flush()?;
        for w in 0..self.workers.len() {
            let _ = self.send_raw(w, &Message::Shutdown);
        }
        for slot in &mut self.workers {
            if let Some(mut proc) = slot.proc.take() {
                // Disconnecting the queue makes the writer drain (delivering
                // the Shutdown frame) and exit, closing stdin — EOF is the
                // belt to Shutdown's suspenders.
                drop(proc.writer_tx.take());
                if let Some(writer) = proc.writer.take() {
                    let _ = writer.join();
                }
                let _ = proc.child.wait();
            }
        }
        Ok((alerts, std::mem::take(&mut self.stats)))
    }

    // ------------------------------------------------------------------
    // Plumbing: send, receive, death handling.

    /// Enqueues a pre-encoded control frame on the lane's writer thread.
    /// Blocks while the bounded queue is full; fails when the writer has
    /// exited (which means the pipe broke — the reader thread surfaces the
    /// actual death).
    fn send_raw(&mut self, w: usize, message: &Message) -> Result<(), String> {
        self.send_cmd(w, WriteCmd::Frame(message.encode()))
    }

    /// Enqueues one sub-batch part for coalescing into the lane's next
    /// [`Message::IngestBatch`] frame.
    fn send_part(&mut self, w: usize, batch: u64, events: Vec<(u32, Event)>) -> Result<(), String> {
        let acked_through = self.workers[w].merged_through;
        self.send_cmd(w, WriteCmd::Part { batch, events, acked_through })
    }

    fn send_cmd(&mut self, w: usize, command: WriteCmd) -> Result<(), String> {
        let Some(proc) = self.workers[w].proc.as_mut() else {
            return Err("no live process".to_owned());
        };
        let Some(tx) = proc.writer_tx.as_ref() else {
            return Err("no live writer thread".to_owned());
        };
        tx.send(command).map_err(|_| "pipe write failed: writer thread exited".to_owned())
    }

    fn recv(&mut self, w: usize, timeout: Duration) -> Received {
        let Some(proc) = self.workers[w].proc.as_ref() else {
            return Received::Dead("no live process".to_owned());
        };
        match proc.rx.recv_timeout(timeout) {
            Ok(frame) => Self::frame_to_received(frame),
            Err(RecvTimeoutError::Disconnected) => Received::Dead("pipe closed".to_owned()),
            Err(RecvTimeoutError::Timeout) => Received::TimedOut,
        }
    }

    fn frame_to_received(frame: Vec<u8>) -> Received {
        match Message::decode(&frame) {
            Ok(Message::Fatal { code, message }) => {
                Received::Dead(format!("worker reported fatal error (code {code}): {message}"))
            }
            Ok(message) => Received::Msg(message),
            Err(error) => Received::Dead(format!("undecodable frame from worker: {error}")),
        }
    }

    /// Kills (idempotently) and reaps the slot's process, returning its
    /// exit code if it had one. The kill also breaks the pipe under a
    /// writer blocked mid-write, so the join cannot hang.
    fn reap(&mut self, w: usize) -> Option<i32> {
        let mut proc = self.workers[w].proc.take()?;
        drop(proc.writer_tx.take());
        let _ = proc.child.kill();
        if let Some(writer) = proc.writer.take() {
            let _ = writer.join();
        }
        match proc.child.wait() {
            Ok(status) => status.code(),
            Err(_) => None,
        }
    }

    /// Classifies a death by exit code, then restarts (or gives up).
    fn handle_death(&mut self, w: usize, cause: String) -> Result<(), DistribError> {
        if let Some(code) = self.reap(w) {
            if exit::is_terminal(code) {
                return Err(DistribError::WorkerTerminal { worker: w, code, detail: cause });
            }
        }
        self.restart_loop(w, Some(cause))
    }

    /// Brings a slot up (initially or after a death), with backoff between
    /// attempts. `cause: None` means initial launch — no backoff before the
    /// first attempt and no recovery record on success.
    fn restart_loop(&mut self, w: usize, cause: Option<String>) -> Result<(), DistribError> {
        let detected = Instant::now();
        let is_recovery = cause.is_some();
        let mut last = cause.clone().unwrap_or_else(|| "launch".to_owned());
        loop {
            let attempt = self.workers[w].consecutive_restarts;
            if attempt >= self.config.restart.max_restarts {
                return Err(DistribError::RestartsExhausted { worker: w, attempts: attempt, last });
            }
            if is_recovery || attempt > 0 {
                let delay = self.config.restart.delay_for(attempt, w, self.workers[w].spawn_count);
                thread::sleep(delay);
            }
            self.workers[w].consecutive_restarts = attempt + 1;
            match self.bring_up(w) {
                Ok((resumed_from, fell_back)) => {
                    if is_recovery {
                        self.stats.recoveries.push(Recovery {
                            worker: w,
                            incarnation: self.workers[w].spawn_count - 1,
                            cause: cause.clone().unwrap_or_default(),
                            latency: detected.elapsed(),
                            resumed_from_batch: resumed_from,
                            fell_back,
                        });
                    }
                    return Ok(());
                }
                Err(BringUp::Terminal(error)) => return Err(error),
                Err(BringUp::Retry(detail)) => {
                    self.reap(w);
                    last = detail;
                }
            }
        }
    }

    /// One attempt to (re)spawn a slot: load the newest valid checkpoint,
    /// spawn, init with the resume snapshot, wait for ready, re-register
    /// owned profiles, replay the unacked suffix. Returns the coverage
    /// resumed from and whether the load fell back a generation.
    fn bring_up(&mut self, w: usize) -> Result<(u64, bool), BringUp> {
        self.reap(w);
        // One read and decode per generation; the worker decodes the
        // snapshot. Workers write bases only: no delta record applies.
        let (loaded, warnings) = self.workers[w].store.load(
            |bytes| {
                let (position, snapshot) =
                    decode_frame::<WorkerPosition>(bytes).map_err(|error| error.to_string())?;
                Ok((position, snapshot.to_vec()))
            },
            |_, _| Err("a worker checkpoint has no delta records".to_owned()),
        );
        self.stats.checkpoint_warnings.extend(warnings.iter().map(ToString::to_string));
        let (resume, coverage, fell_back) = match loaded {
            Some(Loaded { state: (position, snapshot), generation, .. }) => {
                if position.worker_index != w as u32 {
                    return Err(BringUp::Terminal(DistribError::CheckpointUnrecoverable {
                        worker: w,
                        detail: format!(
                            "checkpoint at `{}` belongs to worker {}",
                            self.workers[w].store.path().display(),
                            position.worker_index
                        ),
                    }));
                }
                (Some(snapshot), position.through_batch, generation == Generation::Previous)
            }
            None => (None, 0, false),
        };
        // The retained suffix only reaches back past the previous
        // checkpoint generation; an older (or missing) resume point would
        // silently lose the gap.
        if coverage < self.workers[w].prev_coverage {
            return Err(BringUp::Terminal(DistribError::CheckpointUnrecoverable {
                worker: w,
                detail: format!(
                    "best checkpoint covers through batch {coverage} but replay data only \
                     reaches back to batch {} — both checkpoint generations lost",
                    self.workers[w].prev_coverage
                ),
            }));
        }

        let incarnation = self.workers[w].spawn_count;
        let mut command = Command::new(&self.config.worker_program);
        command
            .args(self.config.fault_plan.worker_args(w, incarnation))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child =
            command.spawn().map_err(|error| BringUp::Retry(format!("spawn failed: {error}")))?;
        self.workers[w].spawn_count += 1;
        self.workers[w].acks_since_spawn = 0;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = channel();
        thread::spawn(move || {
            let mut reader = std::io::BufReader::new(stdout);
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if tx.send(frame).is_err() {
                    return;
                }
            }
            // EOF or read error: dropping the sender surfaces it as a
            // disconnected channel on the supervisor side.
        });
        let (writer_tx, writer_rx) = sync_channel(WRITER_QUEUE);
        let (max_frame_events, linger) = (self.config.max_frame_events, self.config.linger);
        let writer = thread::spawn(move || {
            writer_loop(&writer_rx, stdin, max_frame_events, linger);
        });
        self.workers[w].proc =
            Some(WorkerProc { child, writer_tx: Some(writer_tx), writer: Some(writer), rx });
        self.workers[w].coverage = coverage;
        self.workers[w].inflight.clear();
        self.workers[w].ckpts_pending = 0;

        let init = Message::Init {
            worker_index: w as u32,
            model_psm: self.model_psm.clone(),
            fingerprint: self.fingerprint,
            checkpoint_path: Some(self.workers[w].store.path().display().to_string()),
            resume,
            resume_through_batch: coverage,
        };
        self.send_raw(w, &init).map_err(BringUp::Retry)?;
        match self.recv(w, STARTUP_TIMEOUT) {
            Received::Msg(Message::Ready { fingerprint, .. }) => {
                if fingerprint != self.fingerprint {
                    return Err(BringUp::Terminal(DistribError::Protocol {
                        worker: w,
                        detail: format!(
                            "worker reported fingerprint {fingerprint:#018x}, supervisor has \
                             {:#018x}",
                            self.fingerprint
                        ),
                    }));
                }
            }
            Received::Msg(other) => {
                return Err(BringUp::Terminal(DistribError::Protocol {
                    worker: w,
                    detail: format!("expected Ready, got {other:?}"),
                }))
            }
            Received::Dead(cause) => {
                if let Some(code) = self.reap(w) {
                    if exit::is_terminal(code) {
                        return Err(BringUp::Terminal(DistribError::WorkerTerminal {
                            worker: w,
                            code,
                            detail: cause,
                        }));
                    }
                }
                return Err(BringUp::Retry(format!("died before ready: {cause}")));
            }
            Received::TimedOut => return Err(BringUp::Retry("startup timed out".to_owned())),
        }

        // Re-register every profile of the owned shards (idempotent
        // worker-side; users already in the snapshot are skipped). A user's
        // registration always precedes their first event in the original
        // stream, so registering before replay preserves causal order.
        let workers = self.workers.len();
        for shard in (0..SHARD_COUNT).filter(|&shard| owner_of(shard, workers) == w) {
            for profile in self.registry[shard].clone() {
                self.send_raw(w, &Message::Register { profile }).map_err(BringUp::Retry)?;
            }
        }
        // Replay the unacked suffix: every retained sub-batch newer than
        // the resumed coverage, in order. Acks stream back asynchronously
        // and are matched through the rebuilt inflight queue.
        let replay: Vec<(u64, Vec<(u32, Event)>)> =
            self.workers[w].retained.iter().filter(|(id, _)| *id > coverage).cloned().collect();
        for (id, part) in replay {
            let count = part.len() as u32;
            self.send_part(w, id, part).map_err(BringUp::Retry)?;
            self.workers[w].inflight.push_back((id, count));
        }
        Ok((coverage, fell_back))
    }

    // ------------------------------------------------------------------
    // Acks, assembly, emission.

    /// Applies one cumulative [`Message::AckThrough`]: pops the inflight
    /// prefix up to `through`, recording each popped batch's alerts from the
    /// repeated buffer the worker sent.
    ///
    /// A *swallowed* ack needs no recovery here: the batches it covered
    /// simply stay in flight, and the worker's next reply — which repeats
    /// every unconfirmed alert — confirms them. Only silence past the
    /// (grace-scaled) ack deadline kills the lane.
    fn on_ack_through(
        &mut self,
        w: usize,
        through: u64,
        alerts: Vec<(u64, u32, Alert)>,
    ) -> Result<(), DistribError> {
        match self.workers[w].inflight.back().copied() {
            Some((newest, _)) if through > newest => {
                return Err(DistribError::Protocol {
                    worker: w,
                    detail: format!(
                        "acked through batch {through} but the newest in flight is {newest}"
                    ),
                });
            }
            None if through > self.workers[w].merged_through => {
                return Err(DistribError::Protocol {
                    worker: w,
                    detail: format!("acked through batch {through} with nothing in flight"),
                });
            }
            _ => {}
        }
        let mut by_batch: BTreeMap<u64, Vec<(u32, Alert)>> = BTreeMap::new();
        for (batch, position, alert) in alerts {
            by_batch.entry(batch).or_default().push((position, alert));
        }
        while let Some(&(oldest, _)) = self.workers[w].inflight.front() {
            if oldest > through {
                break;
            }
            self.workers[w].inflight.pop_front();
            // Progress, but only *sustained* progress forgives past
            // restarts: resetting the budget on the first ack would let a
            // worker that delivers one batch per incarnation crash-loop
            // forever.
            self.workers[w].acks_since_spawn = self.workers[w].acks_since_spawn.saturating_add(1);
            if oldest >= self.next_emit {
                let Some(pending) = self.assembly.get_mut(&oldest) else {
                    return Err(DistribError::Protocol {
                        worker: w,
                        detail: format!("acked unknown batch {oldest}"),
                    });
                };
                pending.got.insert(w, by_batch.remove(&oldest).unwrap_or_default());
            }
            // else: a replayed ack for an already-emitted batch — dropped,
            // the alerts were delivered before the worker died. Alerts left
            // in `by_batch` belong to batches confirmed on an earlier reply
            // (the worker repeats them until it sees our acked_through) and
            // are equally ignorable.
        }
        if self.workers[w].acks_since_spawn >= self.config.restart.reset_after_acks {
            self.workers[w].consecutive_restarts = 0;
        }
        self.workers[w].merged_through = self.workers[w].merged_through.max(through);
        self.drain_ready();
        Ok(())
    }

    fn drain_ready(&mut self) {
        while let Some(pending) = self.assembly.get(&self.next_emit) {
            if pending.got.len() < pending.expected {
                break;
            }
            let pending = self.assembly.remove(&self.next_emit).expect("present");
            let mut merged: Vec<(u32, Alert)> = pending.got.into_values().flatten().collect();
            // Positions are unique per event and all alerts of one event
            // come from one worker in raise order; the stable sort restores
            // exactly the in-process emission order.
            merged.sort_by_key(|&(position, _)| position);
            self.stats.alerts += merged.len() as u64;
            self.emitted.extend(merged.into_iter().map(|(_, alert)| alert));
            self.next_emit += 1;
        }
    }

    /// Drains without blocking: everything a worker has already acked.
    fn pump(&mut self, w: usize) -> Result<(), DistribError> {
        loop {
            let Some(proc) = self.workers[w].proc.as_ref() else { return Ok(()) };
            match proc.rx.try_recv() {
                Ok(frame) => match Self::frame_to_received(frame) {
                    Received::Msg(Message::AckThrough { through, alerts }) => {
                        self.on_ack_through(w, through, alerts)?;
                    }
                    Received::Msg(Message::CheckpointDone { through_batch })
                        if self.workers[w].ckpts_pending > 0 =>
                    {
                        self.workers[w].ckpts_pending -= 1;
                        self.complete_checkpoint(w, through_batch)?;
                    }
                    Received::Msg(other) => {
                        return Err(DistribError::Protocol {
                            worker: w,
                            detail: format!("unsolicited message: {other:?}"),
                        })
                    }
                    Received::Dead(cause) => self.handle_death(w, cause)?,
                    Received::TimedOut => unreachable!("try_recv cannot time out"),
                },
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => {
                    self.handle_death(w, "pipe closed".to_owned())?;
                }
            }
        }
    }

    /// The ack deadline for worker `w` right now: the base timeout plus the
    /// per-event grace for everything legitimately in flight, so a heavy
    /// model chewing through a large batch is not mistaken for a stall.
    fn effective_ack_timeout(&self, w: usize) -> Duration {
        let events: u64 = self.workers[w].inflight.iter().map(|&(_, count)| u64::from(count)).sum();
        let grace = self
            .config
            .ack_grace_per_event
            .saturating_mul(u32::try_from(events).unwrap_or(u32::MAX));
        self.config.ack_timeout.saturating_add(grace)
    }

    /// Blocks until the in-flight queue of `w` shrinks (reviving the worker
    /// as needed). One cumulative ack may confirm several batches.
    fn await_one_ack(&mut self, w: usize) -> Result<(), DistribError> {
        // Anything still coalescing must reach the wire, or the acks this
        // wait needs might never be produced within a long linger.
        if let Err(cause) = self.send_cmd(w, WriteCmd::Flush) {
            self.handle_death(w, cause)?;
        }
        loop {
            let depth = self.workers[w].inflight.len();
            if depth == 0 {
                return Ok(());
            }
            let deadline = self.effective_ack_timeout(w);
            match self.recv(w, deadline) {
                Received::Msg(Message::AckThrough { through, alerts }) => {
                    self.on_ack_through(w, through, alerts)?;
                    if self.workers[w].inflight.len() < depth {
                        return Ok(());
                    }
                }
                Received::Msg(Message::CheckpointDone { through_batch })
                    if self.workers[w].ckpts_pending > 0 =>
                {
                    self.workers[w].ckpts_pending -= 1;
                    self.complete_checkpoint(w, through_batch)?;
                }
                Received::Msg(other) => {
                    return Err(DistribError::Protocol {
                        worker: w,
                        detail: format!("expected AckThrough, got {other:?}"),
                    })
                }
                Received::Dead(cause) => self.handle_death(w, cause)?,
                Received::TimedOut => {
                    let cause = format!("no ack within {deadline:?} (stalled or wedged)");
                    self.handle_death(w, cause)?;
                }
            }
        }
    }

    /// Drains the lane completely: every in-flight sub-batch acked *and*
    /// every outstanding asynchronous checkpoint completed, so a control
    /// exchange (a synchronous checkpoint, shutdown) sees only its own
    /// reply next on the pipe.
    fn flush_worker(&mut self, w: usize) -> Result<(), DistribError> {
        loop {
            while !self.workers[w].inflight.is_empty() {
                self.await_one_ack(w)?;
            }
            if self.workers[w].ckpts_pending == 0 {
                return Ok(());
            }
            match self.recv(w, self.config.control_timeout) {
                Received::Msg(Message::CheckpointDone { through_batch }) => {
                    self.workers[w].ckpts_pending -= 1;
                    self.complete_checkpoint(w, through_batch)?;
                }
                Received::Msg(Message::AckThrough { through, alerts }) => {
                    self.on_ack_through(w, through, alerts)?;
                }
                Received::Msg(other) => {
                    return Err(DistribError::Protocol {
                        worker: w,
                        detail: format!("expected CheckpointDone, got {other:?}"),
                    })
                }
                // A death resets `ckpts_pending` (via bring_up) and replays
                // the retained suffix, refilling `inflight` — the outer loop
                // re-drains both.
                Received::Dead(cause) => self.handle_death(w, cause)?,
                Received::TimedOut => self.handle_death(w, "checkpoint timed out".to_owned())?,
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing.

    /// The periodic checkpoint path: send [`Message::Checkpoint`] and **do
    /// not wait** — neither for the lane's in-flight acks nor for the
    /// reply, which is collected opportunistically by [`pump`](Self::pump)
    /// or the next ack wait. No pre-drain is needed for the coverage
    /// invariant: the Checkpoint frame is FIFO-ordered behind every part
    /// already on the lane, and the worker's `AckThrough` for those parts
    /// is written before its `CheckpointDone`, so the supervisor — which
    /// processes the reply pipe in order — has always merged what the file
    /// covers by the time it sees the `Done`. (The one way that breaks is a
    /// *swallowed* ack; [`complete_checkpoint`](Self::complete_checkpoint)
    /// detects exactly that case and demotes the outrun checkpoint.) While
    /// one worker encodes and fsyncs its snapshot, the supervisor keeps
    /// routing and the other workers keep evaluating: on a durable duty
    /// cycle this overlap is where the fleet beats an in-process monitor
    /// that must pay every fsync inline.
    fn checkpoint_async(&mut self, batch: u64) -> Result<(), DistribError> {
        let every = self.config.checkpoint_every;
        let fleet = self.workers.len() as u64;
        for w in 0..self.workers.len() {
            // Stagger each worker's cadence by `w/W` of the interval: every
            // worker still checkpoints once per `checkpoint_every` batches
            // (the same recovery-point objective a broadcast gives), but the
            // fsyncs spread across the interval instead of all contending
            // for the disk at the same instant.
            let phase = (w as u64 * every) / fleet % every;
            if batch % every != phase {
                continue;
            }
            // A checkpoint the fault plan corrupts is taken synchronously:
            // the worker cannot land a later generation, or die before its
            // notice, so the flip lands on the generation the plan names.
            let slot = &self.workers[w];
            let ordinal = slot.ckpt_ordinal + u64::from(slot.ckpts_pending) + 1;
            if self.config.fault_plan.corrupts_checkpoint(w, ordinal) {
                self.checkpoint_worker(w)?;
                continue;
            }
            if let Err(cause) = self.send_raw(w, &Message::Checkpoint) {
                self.handle_death(w, cause)?;
                // The replacement resumed from its last good checkpoint;
                // take a fresh one synchronously so the cadence holds.
                self.checkpoint_worker(w)?;
                continue;
            }
            self.workers[w].ckpts_pending += 1;
        }
        Ok(())
    }

    fn checkpoint_worker(&mut self, w: usize) -> Result<(), DistribError> {
        loop {
            self.flush_worker(w)?;
            if let Err(cause) = self.send_raw(w, &Message::Checkpoint) {
                self.handle_death(w, cause)?;
                continue;
            }
            match self.recv(w, self.config.control_timeout) {
                Received::Msg(Message::CheckpointDone { through_batch }) => {
                    self.complete_checkpoint(w, through_batch)?;
                    return Ok(());
                }
                Received::Msg(other) => {
                    return Err(DistribError::Protocol {
                        worker: w,
                        detail: format!("expected CheckpointDone, got {other:?}"),
                    })
                }
                Received::Dead(cause) => self.handle_death(w, cause)?,
                Received::TimedOut => self.handle_death(w, "checkpoint timed out".to_owned())?,
            }
        }
    }

    /// Bookkeeping after a worker reported [`Message::CheckpointDone`]:
    /// outrun detection, fault injection, read-back validation, coverage
    /// advance, and pruning of the retained suffix.
    ///
    /// # Errors
    ///
    /// Propagates restart failures from the outrun-recovery path.
    fn complete_checkpoint(&mut self, w: usize, through_batch: u64) -> Result<(), DistribError> {
        // The durability invariant: a checkpoint's coverage must never
        // outrun the merged stream, or a later resume would skip replaying
        // batches whose alerts were never delivered. The worker writes its
        // `AckThrough` for every covered part before the `CheckpointDone`
        // on the same pipe, and this supervisor processes that pipe in
        // order — so coverage can only outrun the merge when an ack was
        // *swallowed*. Recover exactly as an ack timeout would, but
        // immediately: demote the outrun file (the previous generation is
        // consistent with the retained suffix) and restart the lane, which
        // replays — and therefore re-acks — everything unmerged.
        if through_batch > self.workers[w].merged_through {
            self.stats.checkpoint_warnings.push(format!(
                "worker {w}: checkpoint covering batch {through_batch} outran the merged stream \
                 (acked through {}); demoting it and replaying the unacked suffix",
                self.workers[w].merged_through
            ));
            let _ = std::fs::remove_file(self.workers[w].store.path());
            self.handle_death(
                w,
                format!(
                    "no ack for batches {}..={through_batch} although a checkpoint covers them \
                     (ack frame lost)",
                    self.workers[w].merged_through + 1
                ),
            )?;
            return Ok(());
        }
        self.stats.checkpoints += 1;
        self.workers[w].ckpt_ordinal += 1;
        let ordinal = self.workers[w].ckpt_ordinal;
        if self.config.fault_plan.corrupts_checkpoint(w, ordinal) {
            self.corrupt_checkpoint_file(w);
        }
        // Read back what actually landed on disk before trusting it. A
        // checkpoint that cannot be decoded must not advance coverage or
        // prune the retained suffix: pruning against an unreadable file is
        // how *both* generations end up undecodable with the replay data
        // already gone.
        let readable = std::fs::read(self.workers[w].store.path())
            .ok()
            .is_some_and(|bytes| decode_frame::<WorkerPosition>(&bytes).is_ok());
        if !readable {
            self.stats.checkpoint_warnings.push(format!(
                "worker {w}: checkpoint {ordinal} failed read-back validation at `{}`; keeping \
                 previous coverage and full replay suffix",
                self.workers[w].store.path().display()
            ));
            return Ok(());
        }
        let slot = &mut self.workers[w];
        slot.prev_coverage = slot.coverage;
        slot.coverage = through_batch;
        let keep_after = slot.prev_coverage;
        slot.retained.retain(|(id, _)| *id > keep_after);
        Ok(())
    }

    /// The supervisor half of [`Fault::CorruptCheckpoint`](crate::fault::Fault):
    /// flip a byte in the middle of the freshly written checkpoint file.
    fn corrupt_checkpoint_file(&mut self, w: usize) {
        let path = self.workers[w].store.path().to_path_buf();
        if let Ok(mut bytes) = std::fs::read(&path) {
            if !bytes.is_empty() {
                let middle = bytes.len() / 2;
                bytes[middle] ^= 0xFF;
                if std::fs::write(&path, bytes).is_ok() {
                    self.stats.corruptions_injected += 1;
                }
            }
        }
    }
}

impl Drop for DistributedMonitor {
    fn drop(&mut self) {
        for slot in &mut self.workers {
            if let Some(mut proc) = slot.proc.take() {
                drop(proc.writer_tx.take());
                let _ = proc.child.kill();
                if let Some(writer) = proc.writer.take() {
                    let _ = writer.join();
                }
                let _ = proc.child.wait();
            }
        }
    }
}
