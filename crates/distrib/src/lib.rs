//! # privacy-distrib
//!
//! Fault-tolerant **distributed** runtime monitoring: the layer that turns
//! the single-process [`IndexedMonitor`](privacy_runtime::IndexedMonitor)
//! into a supervised fleet of shard-owning worker *processes* whose merged
//! alert stream is provably identical to an uninterrupted in-process run.
//!
//! The paper pitches the operation-time monitor for *distributed data
//! services*; this crate makes that credible under the failures distributed
//! services actually have — worker crashes, slow consumers, torn checkpoint
//! writes:
//!
//! * [`wire`] — the supervisor ⇄ worker message protocol: every message is
//!   one framed [`privacy_interchange::binary`] artefact (magic, kind,
//!   version, length, checksum) carried over the worker's stdin/stdout
//!   pipes, so a torn or corrupted pipe read is a typed error, never a
//!   misparse. Models travel as `.psm` text; events, profiles and alerts as
//!   binary payloads. The data plane is coalesced — many sub-batches per
//!   [`Message::IngestBatch`] frame, answered by cumulative
//!   [`Message::AckThrough`] replies — and a frame of any protocol version
//!   but the current one is a typed rejection.
//! * [`worker`] — the `privacy-shardd` process: owns a contiguous range of
//!   the monitor's [`SHARD_COUNT`](privacy_runtime::SHARD_COUNT) stable
//!   `UserId`-hash shards, fixed at launch, rebuilds the design-time index
//!   from the shipped model (verifying the index fingerprint), ingests event
//!   sub-batches in stream order and acks them cumulatively with their
//!   alerts, and checkpoints atomically on request.
//! * [`supervisor`] — [`DistributedMonitor`]: spawns and supervises the
//!   workers, routes events by shard owner through **bounded in-flight
//!   windows with backpressure**, merges per-worker alert streams back into
//!   the deterministic batch-position order the in-process sharding
//!   guarantees, detects death (pipe EOF / ack timeout) and restarts with
//!   exponential backoff + a jitter cap, resuming the replacement from its
//!   last good checkpoint and replaying only the unacknowledged suffix.
//!   Only checkpoints written during the run are ever resumed: a launch
//!   refuses a checkpoint directory an earlier run left checkpoints in.
//! * [`checkpoint`] — [`CheckpointStore`]: atomic write-to-temp-then-rename
//!   checkpoint files with a `.prev` generation, and a loader that falls
//!   back past a torn or corrupted generation with typed warnings; and
//!   [`CheckpointWriter`], the one background thread that writes
//!   [`CaptureJob`]s, one frame for the worker and the pipeline alike.
//! * [`fault`] — [`FaultPlan`]: the failure-injection harness. Kill-at-event,
//!   stall, drop-ack, sleep-per-event (armed in the worker via `--fault`
//!   arguments) and corrupt-checkpoint (applied by the supervisor to the
//!   on-disk file) drive the differential property tests asserting the
//!   merged alert stream is byte-identical to the uninterrupted
//!   single-process run under every injected fault schedule.
//! * [`exit`] — the process exit-code taxonomy shared by `privacy-shardd`,
//!   `privacy-monitor` and `privacy-supervisor`, so the restart policy can
//!   distinguish retryable exits (crash, I/O, injected fault) from terminal
//!   ones (usage, protocol, model mismatch).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod exit;
pub mod fault;
pub mod supervisor;
pub mod wire;
pub mod worker;

pub use checkpoint::{
    CaptureJob, CheckpointJob, CheckpointStore, CheckpointWarning, CheckpointWriteError,
    CheckpointWriter, DeltaChain, FramePosition, Generation, Loaded, SinkCapture,
};
pub use fault::{Fault, FaultPlan, WorkerFaults};
pub use supervisor::{
    DistribError, DistribStats, DistributedMonitor, Recovery, RestartPolicy, SupervisorConfig,
};
pub use wire::Message;
