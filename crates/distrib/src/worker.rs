//! The `privacy-shardd` worker: a shard-owning monitor process.
//!
//! One worker owns a subset of the monitor's `UserId`-hash shards. Its whole
//! life is a loop over framed [`Message`]s on stdin:
//!
//! 1. [`Init`](Message::Init) — parse the shipped `.psm` model, regenerate
//!    the LTS and its index, verify the **index fingerprint** against the
//!    supervisor's (a mismatch is a terminal, typed death: restarting cannot
//!    help), and resume from the carried snapshot if there is one, keeping
//!    only the owned shards.
//! 2. [`IngestBatch`](Message::IngestBatch) — the coalesced data plane:
//!    many super-batch parts in one frame, answered with a single cumulative
//!    [`AckThrough`](Message::AckThrough) that carries *every* alert the
//!    supervisor has not yet confirmed (the frame's piggybacked
//!    `acked_through` prunes that retained buffer). Because the reply repeats
//!    unconfirmed alerts, a single swallowed ack self-heals on the next
//!    frame instead of forcing a restart. Events for users the worker does
//!    not track are ignored, exactly as the in-process `IndexedMonitor`
//!    ignores unregistered users — this also makes replayed pre-handoff
//!    batches harmless after a shard has moved away.
//! 3. [`Checkpoint`](Message::Checkpoint) — capture the monitor snapshot
//!    at the exact point in stream order the supervisor requested (a cheap
//!    capture that shares the monitor's cached shard bodies) and submit it,
//!    with the bookkeeping (covered super-batch, absorbed-import count), to
//!    the shared [`CheckpointWriter`]. Its thread encodes the snapshot and
//!    the checkpoint file, writes it atomically through the
//!    [`CheckpointStore`], and sends
//!    [`CheckpointDone`](Message::CheckpointDone) once the fsync lands. The
//!    ingest loop keeps evaluating the next coalesced frames while the
//!    encoder and the disk work; at most one checkpoint waits behind the
//!    one being written, so a slow disk blocks the loop instead of piling
//!    captures up. A failed write sends [`Fatal`](Message::Fatal) at once
//!    and ends the worker with the I/O exit code.
//! 4. [`ExportShards`](Message::ExportShards) /
//!    [`ImportShards`](Message::ImportShards) — the two halves of a live
//!    shard handoff.
//!
//! The injected faults ([`WorkerFaults`], armed via `--fault` arguments) are
//! deliberately crude: `process::exit` mid-batch, a sleep before an ack, a
//! swallowed ack, a sleep after every event. Crude is the point — they model
//! the failure, not a polite simulation of it.

use crate::checkpoint::{CheckpointJob, CheckpointStore, CheckpointWriteError, CheckpointWriter};
use crate::exit;
use crate::fault::WorkerFaults;
use crate::wire::{encode_checkpoint, Message};
use privacy_interchange::{parse_document, read_frame, write_frame, FrameIoError};
use privacy_lts::LtsIndex;
use privacy_runtime::{Alert, IndexedMonitor, MonitorSnapshot};
use std::fmt;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

/// A typed worker failure, mapped onto the [`crate::exit`] taxonomy.
#[derive(Debug)]
pub enum WorkerFailure {
    /// A pipe or checkpoint-file I/O operation failed.
    Io(String),
    /// The supervisor broke the wire protocol (or the pipe carried garbage).
    Protocol(String),
    /// The model or snapshot could not establish monitor state: parse
    /// failure, LTS generation failure, fingerprint mismatch, rejected
    /// snapshot.
    State(String),
}

impl WorkerFailure {
    /// The process exit code this failure maps to.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            WorkerFailure::Io(_) => exit::IO_FATAL,
            WorkerFailure::Protocol(_) => exit::PROTOCOL_FATAL,
            WorkerFailure::State(_) => exit::SNAPSHOT_FATAL,
        }
    }
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerFailure::Io(detail) => write!(f, "i/o failure: {detail}"),
            WorkerFailure::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            WorkerFailure::State(detail) => write!(f, "cannot establish monitor state: {detail}"),
        }
    }
}

impl std::error::Error for WorkerFailure {}

/// One worker checkpoint: the bookkeeping plus the monitor's capture,
/// taken at the requested stream point and encoded by the writer thread.
struct WorkerCheckpoint {
    worker_index: u32,
    through_batch: u64,
    imports: u64,
    snapshot: MonitorSnapshot,
}

impl CheckpointJob for WorkerCheckpoint {
    /// The [`Message::CheckpointDone`] to send once the file is durable.
    type Done = Message;

    fn encode(self, file: &mut Vec<u8>) -> Message {
        encode_checkpoint(
            file,
            self.worker_index,
            self.through_batch,
            self.imports,
            &self.snapshot,
        );
        Message::CheckpointDone { through_batch: self.through_batch, imports: self.imports }
    }
}

struct WorkerState {
    monitor: IndexedMonitor,
    worker_index: u32,
    through_batch: u64,
    imports_absorbed: u64,
    events_seen: u64,
    ingests_seen: u64,
    /// Alerts raised by batches the supervisor has not yet confirmed via a
    /// piggybacked `acked_through`. Every [`Message::AckThrough`] repeats
    /// this whole buffer, so a lost reply is repaired by the next one.
    /// Bounded by the supervisor's send window.
    pending_alerts: Vec<(u64, u32, Alert)>,
    faults: WorkerFaults,
}

fn next_message(input: &mut impl Read) -> Result<Option<Message>, WorkerFailure> {
    match read_frame(input) {
        Ok(None) => Ok(None),
        Ok(Some(frame)) => Message::decode(&frame)
            .map(Some)
            .map_err(|error| WorkerFailure::Protocol(format!("undecodable message: {error}"))),
        Err(FrameIoError::Io(error)) => {
            Err(WorkerFailure::Io(format!("reading command pipe: {error}")))
        }
        Err(FrameIoError::Codec(error)) => {
            Err(WorkerFailure::Protocol(format!("unreadable frame: {error}")))
        }
        // `FrameIoError` is non-exhaustive; treat future variants as I/O.
        Err(other) => Err(WorkerFailure::Io(format!("reading command pipe: {other}"))),
    }
}

/// Writes one reply frame through the shared output. The mutex is held only
/// for the frame write, so the ingest loop and the checkpoint writer
/// interleave whole frames, never bytes. `write_frame` flushes, so a reply
/// never sits in a stdout buffer while the worker blocks on its next command
/// (which would deadlock the supervisor waiting for exactly that reply).
fn send<O: Write>(output: &Mutex<&mut O>, message: &Message) -> Result<(), WorkerFailure> {
    let mut out = output.lock().expect("reply pipe mutex poisoned");
    write_frame(&mut **out, &message.encode())
        .map_err(|error| WorkerFailure::Io(format!("writing reply pipe: {error}")))
}

/// The checkpoint writer's on-durable hook: [`Message::CheckpointDone`]
/// only once the file is durable — the supervisor's coverage never advances
/// past bytes that are not — or, for a failed write, a best-effort
/// [`Message::Fatal`] at once. The ingest loop then surfaces the same error
/// as the worker's exit. A reply that cannot be sent is dropped: the
/// supervisor is gone, and the ingest loop will see EOF.
fn checkpoint_reply<O: Write>(
    output: &Mutex<&mut O>,
    done: Result<Message, &CheckpointWriteError>,
) {
    let reply = done.unwrap_or_else(|error| {
        let failure = checkpoint_failure(error);
        Message::Fatal { code: failure.exit_code() as u32, message: failure.to_string() }
    });
    let _ = send(output, &reply);
}

fn checkpoint_failure(error: &CheckpointWriteError) -> WorkerFailure {
    WorkerFailure::Io(error.to_string())
}

/// Runs the worker protocol over the given pipes until the supervisor sends
/// [`Shutdown`](Message::Shutdown) or closes its end.
///
/// On a typed failure a last [`Fatal`](Message::Fatal) message is written
/// best-effort before the error is returned, so the supervisor can log the
/// cause instead of just seeing the pipe close.
///
/// # Errors
///
/// Returns the [`WorkerFailure`] the caller should map to a process exit
/// code via [`WorkerFailure::exit_code`].
pub fn run_worker(
    input: &mut impl Read,
    output: &mut (impl Write + Send),
    faults: WorkerFaults,
) -> Result<(), WorkerFailure> {
    match serve(input, output, faults) {
        Ok(()) => Ok(()),
        Err(failure) => {
            let fatal =
                Message::Fatal { code: failure.exit_code() as u32, message: failure.to_string() };
            let _ = write_frame(output, &fatal.encode());
            Err(failure)
        }
    }
}

fn serve(
    input: &mut impl Read,
    output: &mut (impl Write + Send),
    faults: WorkerFaults,
) -> Result<(), WorkerFailure> {
    let Some(first) = next_message(input)? else {
        return Ok(()); // supervisor went away before init: nothing to do
    };
    let Message::Init {
        worker_index,
        owned_shards,
        model_psm,
        fingerprint,
        checkpoint_path,
        resume,
        resume_through_batch,
        resume_imports,
    } = first
    else {
        return Err(WorkerFailure::Protocol("first message must be Init".to_owned()));
    };

    let document = parse_document(&model_psm)
        .map_err(|error| WorkerFailure::State(format!("model does not parse: {error}")))?;
    let lts = document
        .system
        .generate_lts()
        .map_err(|error| WorkerFailure::State(format!("LTS generation failed: {error}")))?;
    let index = LtsIndex::build(&lts);
    if index.fingerprint() != fingerprint {
        return Err(WorkerFailure::State(format!(
            "index fingerprint mismatch: supervisor has {:#018x}, this model yields {:#018x}",
            fingerprint,
            index.fingerprint()
        )));
    }
    let index = Arc::new(index);
    let catalog = document.system.catalog().clone();
    let policy = document.system.policy().clone();

    let (mut monitor, resumed_users) = match resume {
        Some(bytes) => {
            let mut snapshot = MonitorSnapshot::from_bytes(&bytes)
                .map_err(|error| WorkerFailure::State(format!("resume snapshot: {error}")))?;
            snapshot.retain_shards(&owned_shards);
            let users = snapshot.user_count() as u64;
            let monitor = IndexedMonitor::resume_from(catalog, policy, index, &snapshot)
                .map_err(|error| WorkerFailure::State(format!("resume rejected: {error}")))?;
            (monitor, users)
        }
        None => (IndexedMonitor::new(catalog, policy, index), 0),
    };
    // Any pending alerts in the snapshot were acked before the checkpoint
    // was taken; draining them keeps future snapshots and acks disjoint.
    let _ = monitor.drain_alerts();

    let mut state = WorkerState {
        monitor,
        worker_index,
        through_batch: resume_through_batch,
        imports_absorbed: resume_imports,
        events_seen: 0,
        ingests_seen: 0,
        pending_alerts: Vec::new(),
        faults,
    };
    let store = checkpoint_path.map(CheckpointStore::new);
    let output = Mutex::new(output);

    std::thread::scope(|scope| {
        send(&output, &Message::Ready { fingerprint, resumed_users })?;
        let output = &output;
        let writer = store.map(|store| {
            CheckpointWriter::spawn(scope, store, move |done| checkpoint_reply(output, done))
        });
        let result = serve_loop(input, output, writer.as_ref(), &mut state);
        // Everything submitted is durable (or has failed) once this returns.
        let closed = writer.map_or(Ok(()), CheckpointWriter::close);
        result?;
        closed.map_err(|error| checkpoint_failure(&error))
    })
}

fn serve_loop<O: Write + Send>(
    input: &mut impl Read,
    output: &Mutex<&mut O>,
    writer: Option<&CheckpointWriter<'_, WorkerCheckpoint>>,
    state: &mut WorkerState,
) -> Result<(), WorkerFailure> {
    while let Some(message) = next_message(input)? {
        match message {
            Message::Register { profile } => {
                // Idempotent: a re-registration (restart replay, or a user
                // already restored from the snapshot) must not reset state.
                if !state.monitor.is_registered(profile.id()) {
                    state.monitor.register_user(&profile);
                }
            }
            Message::IngestBatch { acked_through, parts } => {
                handle_ingest_batch(state, output, acked_through, parts)?;
            }
            Message::Checkpoint => handle_checkpoint(state, output, writer)?,
            Message::ExportShards { shards } => {
                let exported = state.monitor.snapshot().extract_shards(&shards);
                for &shard in &shards {
                    state.monitor.remove_shard_users(shard);
                }
                send(output, &Message::ShardExport { snapshot: exported.to_bytes() })?;
            }
            Message::ImportShards { snapshot } => {
                let snapshot = MonitorSnapshot::from_bytes(&snapshot)
                    .map_err(|error| WorkerFailure::State(format!("import snapshot: {error}")))?;
                let users = state
                    .monitor
                    .absorb(&snapshot)
                    .map_err(|error| WorkerFailure::State(format!("import rejected: {error}")))?;
                let _ = state.monitor.drain_alerts();
                state.imports_absorbed += 1;
                send(output, &Message::Imported { users: users as u64 })?;
            }
            Message::Shutdown => return Ok(()),
            other => {
                return Err(WorkerFailure::Protocol(format!(
                    "unexpected message after init: {other:?}"
                )))
            }
        }
    }
    Ok(())
}

/// Processes the events of one super-batch part, with the injected faults
/// fired at **event granularity** — a kill or per-event sleep lands on the
/// same event however the parts were coalesced into frames. Returns `true`
/// when the frame's ack must be swallowed by an armed `drop-ack`.
fn ingest_part(
    state: &mut WorkerState,
    batch: u64,
    events: &[(u32, privacy_runtime::Event)],
    alerts: &mut Vec<(u32, Alert)>,
) -> bool {
    for (position, event) in events {
        for alert in state.monitor.observe(event) {
            alerts.push((*position, alert));
        }
        state.events_seen += 1;
        if let Some(millis) = state.faults.sleep_per_event {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        if let Some(threshold) = state.faults.kill_after_events {
            if state.events_seen >= threshold {
                // An injected crash: no ack, no cleanup, mid-batch.
                std::process::exit(exit::INJECTED_FAULT);
            }
        }
    }
    // observe() also accumulates the alerts internally; drain them so the
    // ack stream and future snapshots never carry an alert twice.
    let _ = state.monitor.drain_alerts();
    state.through_batch = batch;
    state.ingests_seen += 1;
    if let Some((threshold, millis)) = state.faults.stall_before_ack {
        if state.events_seen >= threshold {
            std::thread::sleep(std::time::Duration::from_millis(millis));
            state.faults.stall_before_ack = None;
        }
    }
    state.faults.drop_ack == Some(state.ingests_seen)
}

fn handle_ingest_batch<O: Write>(
    state: &mut WorkerState,
    output: &Mutex<&mut O>,
    acked_through: u64,
    parts: Vec<(u64, Vec<(u32, privacy_runtime::Event)>)>,
) -> Result<(), WorkerFailure> {
    // The supervisor has confirmed everything through `acked_through`; those
    // alerts will never need re-sending.
    state.pending_alerts.retain(|(batch, _, _)| *batch > acked_through);
    let mut dropped = false;
    for (batch, events) in &parts {
        let mut alerts: Vec<(u32, Alert)> = Vec::new();
        // A drop-ack ordinal landing on *any* coalesced part swallows the
        // frame's single reply — the whole frame goes unacknowledged, which
        // is exactly what a lost reply frame looks like on the wire.
        dropped |= ingest_part(state, *batch, events, &mut alerts);
        state
            .pending_alerts
            .extend(alerts.into_iter().map(|(position, alert)| (*batch, position, alert)));
    }
    if dropped {
        return Ok(());
    }
    send(
        output,
        &Message::AckThrough { through: state.through_batch, alerts: state.pending_alerts.clone() },
    )
}

fn handle_checkpoint<O: Write>(
    state: &mut WorkerState,
    output: &Mutex<&mut O>,
    writer: Option<&CheckpointWriter<'_, WorkerCheckpoint>>,
) -> Result<(), WorkerFailure> {
    let Some(writer) = writer else {
        // No store configured: durability is a no-op, reply immediately.
        return send(
            output,
            &Message::CheckpointDone {
                through_batch: state.through_batch,
                imports: state.imports_absorbed,
            },
        );
    };
    // The capture is taken here, at the exact point in stream order the
    // supervisor asked for; encoding, the write and the fsync happen on the
    // writer thread, which sends the `CheckpointDone`.
    writer
        .submit(WorkerCheckpoint {
            worker_index: state.worker_index,
            through_batch: state.through_batch,
            imports: state.imports_absorbed,
            snapshot: state.monitor.snapshot(),
        })
        .map_err(|error| checkpoint_failure(&error))
}

/// The `privacy-shardd` entry point: parses `--fault` switches, runs the
/// worker over stdin/stdout, and returns the process exit code.
#[must_use]
pub fn shardd_main(args: impl Iterator<Item = String>) -> i32 {
    let mut faults = WorkerFaults::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fault" => {
                let Some(spec) = args.next() else {
                    eprintln!("privacy-shardd: --fault needs a SPEC argument");
                    return exit::USAGE;
                };
                if let Err(error) = faults.parse_arg(&spec) {
                    eprintln!("privacy-shardd: {error}");
                    return exit::USAGE;
                }
            }
            "--help" | "-h" => {
                println!(
                    "privacy-shardd: shard-owning monitor worker; speaks framed messages on \
                     stdin/stdout.\nSpawned by the privacy-distrib supervisor — not meant to be \
                     run by hand.\n\nOptions:\n  --fault SPEC   arm an injected fault \
                     (kill-after-events=N, stall-before-ack=N:MS,\n                 drop-ack=B, \
                     sleep-per-event=MS); test harness only\n  --help         this \
                     message\n\nExit codes: 0 ok, 2 usage, 11 snapshot/model mismatch, 12 i/o \
                     failure,\n13 protocol violation, 101 injected fault."
                );
                return exit::OK;
            }
            other => {
                eprintln!("privacy-shardd: unknown argument `{other}` (try --help)");
                return exit::USAGE;
            }
        }
    }
    let stdin = std::io::stdin();
    let mut input = std::io::BufReader::new(stdin.lock());
    // `Stdout` (unlike `StdoutLock`) is `Send`, which the checkpoint writer
    // needs; per-frame locking already happens at the worker's reply mutex.
    let mut output = std::io::stdout();
    match run_worker(&mut input, &mut output, faults) {
        Ok(()) => exit::OK,
        Err(failure) => {
            eprintln!("privacy-shardd: {failure}");
            failure.exit_code()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privacy_lts::ActionKind;
    use privacy_model::{Sensitivity, UserProfile};

    // A tiny synthetic model shared by the in-process worker tests (worker
    // processes in integration tests run under the dev profile, so model
    // size matters).
    fn tiny_system() -> (String, privacy_core::PrivacySystem) {
        use privacy_synth::{random_model, ModelGeneratorConfig};
        let config = ModelGeneratorConfig {
            actors: 3,
            fields: 4,
            datastores: 1,
            services: 2,
            flows_per_service: 3,
            grant_probability: 0.7,
            seed: 5,
            ..ModelGeneratorConfig::default()
        };
        let (catalog, dataflows, policy) = random_model(&config).expect("synth model");
        ("Tiny".to_owned(), privacy_core::PrivacySystem::new(catalog, dataflows, policy))
    }

    fn run_script(messages: Vec<Message>) -> Result<Vec<Message>, WorkerFailure> {
        let mut input = Vec::new();
        for message in &messages {
            privacy_interchange::write_frame(&mut input, &message.encode()).unwrap();
        }
        let mut output = Vec::new();
        run_worker(&mut &input[..], &mut output, WorkerFaults::default())?;
        let mut replies = Vec::new();
        let mut reader = &output[..];
        while let Some(frame) = read_frame(&mut reader).unwrap() {
            replies.push(Message::decode(&frame).unwrap());
        }
        Ok(replies)
    }

    fn init_message(name: &str, system: &privacy_core::PrivacySystem) -> Message {
        let lts = system.generate_lts().unwrap();
        let fingerprint = LtsIndex::build(&lts).fingerprint();
        Message::Init {
            worker_index: 0,
            owned_shards: (0..privacy_runtime::SHARD_COUNT as u32).collect(),
            model_psm: privacy_interchange::render_system(name, system),
            fingerprint,
            checkpoint_path: None,
            resume: None,
            resume_through_batch: 0,
            resume_imports: 0,
        }
    }

    // The Init path re-parses the rendered model and recomputes the index
    // fingerprint, so a passing run also proves the `.psm` round trip
    // preserves the fingerprint — the assumption model shipping rests on.
    #[test]
    fn worker_initialises_ingests_and_acks() {
        let (name, system) = tiny_system();
        let service = system.catalog().services().next().unwrap().id().clone();
        let actor = system.catalog().identifying_actors().next().unwrap().id().clone();
        let field = system.catalog().fields().next().unwrap().id().clone();
        let profile = UserProfile::new("ada")
            .consents_to(service.clone())
            .with_sensitivity(field.clone(), Sensitivity::new(0.9).unwrap());
        let event = privacy_runtime::Event::new(
            0,
            "ada",
            service,
            actor,
            ActionKind::Read,
            [field],
            None,
            true,
        );
        let replies = run_script(vec![
            init_message(&name, &system),
            Message::Register { profile },
            Message::IngestBatch { acked_through: 0, parts: vec![(1, vec![(0, event)])] },
            Message::Shutdown,
        ])
        .expect("worker runs cleanly");
        assert!(matches!(replies[0], Message::Ready { resumed_users: 0, .. }));
        let Message::AckThrough { through: 1, .. } = &replies[1] else {
            panic!("expected an ack through batch 1, got {:?}", replies[1]);
        };
    }

    // Finds, by exhaustive probe against a scratch monitor, a
    // (service, actor, field) combination whose first `Read` raises an alert
    // for a fresh maximum-sensitivity user — the coalesced-path tests need
    // events that *definitely* alert, and a repeat exposure never re-alerts,
    // so each batch below uses the recipe with a distinct user.
    fn alerting_recipe(
        system: &privacy_core::PrivacySystem,
    ) -> (privacy_model::ServiceId, privacy_model::ActorId, privacy_model::FieldId) {
        let lts = system.generate_lts().unwrap();
        let index = Arc::new(LtsIndex::build(&lts));
        for service in system.catalog().services() {
            for actor in system.catalog().identifying_actors() {
                for field in system.catalog().fields() {
                    let mut monitor = IndexedMonitor::new(
                        system.catalog().clone(),
                        system.policy().clone(),
                        index.clone(),
                    );
                    let (profile, event) = recipe_user(
                        "probe",
                        0,
                        &(service.id().clone(), actor.id().clone(), field.id().clone()),
                    );
                    monitor.register_user(&profile);
                    if !monitor.observe(&event).is_empty() {
                        return (service.id().clone(), actor.id().clone(), field.id().clone());
                    }
                }
            }
        }
        panic!("tiny system has no alert-raising read at all");
    }

    fn recipe_user(
        name: &str,
        sequence: u64,
        (service, actor, field): &(
            privacy_model::ServiceId,
            privacy_model::ActorId,
            privacy_model::FieldId,
        ),
    ) -> (UserProfile, privacy_runtime::Event) {
        let profile =
            UserProfile::new(name).with_sensitivity(field.clone(), Sensitivity::new(1.0).unwrap());
        let event = privacy_runtime::Event::new(
            sequence,
            name,
            service.clone(),
            actor.clone(),
            ActionKind::Read,
            [field.clone()],
            None,
            true,
        );
        (profile, event)
    }

    #[test]
    fn coalesced_frames_ack_cumulatively_and_retain_unconfirmed_alerts() {
        let (name, system) = tiny_system();
        let recipe = alerting_recipe(&system);
        let (ada, ada_read) = recipe_user("ada", 0, &recipe);
        let (bob, bob_read) = recipe_user("bob", 1, &recipe);
        let (eve, eve_read) = recipe_user("eve", 2, &recipe);
        let replies = run_script(vec![
            init_message(&name, &system),
            Message::Register { profile: ada },
            Message::Register { profile: bob },
            Message::Register { profile: eve },
            // Nothing confirmed yet: the reply must carry both parts' alerts…
            Message::IngestBatch {
                acked_through: 0,
                parts: vec![(1, vec![(0, ada_read)]), (2, vec![(1, bob_read)])],
            },
            // …until a piggybacked acked_through prunes them.
            Message::IngestBatch { acked_through: 2, parts: vec![(3, vec![(0, eve_read)])] },
            Message::Shutdown,
        ])
        .expect("worker runs cleanly");
        let Message::AckThrough { through: 2, alerts: first } = &replies[1] else {
            panic!("expected AckThrough through 2, got {:?}", replies[1]);
        };
        assert!(first.iter().any(|(batch, _, _)| *batch == 1));
        assert!(first.iter().any(|(batch, _, _)| *batch == 2));
        let Message::AckThrough { through: 3, alerts: second } = &replies[2] else {
            panic!("expected AckThrough through 3, got {:?}", replies[2]);
        };
        assert!(!second.is_empty(), "batch 3's alert must be present");
        assert!(
            second.iter().all(|(batch, _, _)| *batch == 3),
            "confirmed batches must be pruned from the retained buffer: {second:?}"
        );
    }

    #[test]
    fn dropped_ack_alerts_reappear_in_the_next_ack_through() {
        let (name, system) = tiny_system();
        let recipe = alerting_recipe(&system);
        let (ada, ada_read) = recipe_user("ada", 0, &recipe);
        let (bob, bob_read) = recipe_user("bob", 1, &recipe);
        let mut input = Vec::new();
        for message in [
            init_message(&name, &system),
            Message::Register { profile: ada },
            Message::Register { profile: bob },
            Message::IngestBatch { acked_through: 0, parts: vec![(1, vec![(0, ada_read)])] },
            Message::IngestBatch { acked_through: 0, parts: vec![(2, vec![(0, bob_read)])] },
            Message::Shutdown,
        ] {
            privacy_interchange::write_frame(&mut input, &message.encode()).unwrap();
        }
        let mut output = Vec::new();
        let mut faults = WorkerFaults::default();
        faults.parse_arg("drop-ack=1").unwrap();
        run_worker(&mut &input[..], &mut output, faults).expect("worker runs cleanly");
        let mut replies = Vec::new();
        let mut reader = &output[..];
        while let Some(frame) = read_frame(&mut reader).unwrap() {
            replies.push(Message::decode(&frame).unwrap());
        }
        // Frame 1's ack was swallowed; frame 2's cumulative reply must carry
        // batch 1's alerts anyway, because the supervisor never confirmed it.
        assert_eq!(replies.len(), 2, "Ready plus exactly one AckThrough: {replies:?}");
        let Message::AckThrough { through: 2, alerts } = &replies[1] else {
            panic!("expected AckThrough through 2, got {:?}", replies[1]);
        };
        assert!(alerts.iter().any(|(batch, _, _)| *batch == 1));
        assert!(alerts.iter().any(|(batch, _, _)| *batch == 2));
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_state_failure() {
        let (name, system) = tiny_system();
        let Message::Init { model_psm, .. } = init_message(&name, &system) else { unreachable!() };
        let bad_init = Message::Init {
            worker_index: 0,
            owned_shards: vec![0],
            model_psm,
            fingerprint: 0xBAAD_F00D,
            checkpoint_path: None,
            resume: None,
            resume_through_batch: 0,
            resume_imports: 0,
        };
        let failure = run_script(vec![bad_init]).expect_err("mismatch must fail");
        assert!(matches!(failure, WorkerFailure::State(_)));
        assert_eq!(failure.exit_code(), exit::SNAPSHOT_FATAL);
        assert!(failure.to_string().contains("fingerprint mismatch"));
    }

    #[test]
    fn non_init_first_message_is_a_protocol_failure() {
        let failure = run_script(vec![Message::Checkpoint]).expect_err("must fail");
        assert!(matches!(failure, WorkerFailure::Protocol(_)));
        assert_eq!(failure.exit_code(), exit::PROTOCOL_FATAL);
    }

    #[test]
    fn eof_before_init_and_after_messages_is_clean() {
        assert!(run_script(vec![]).is_ok());
        let (name, system) = tiny_system();
        // No Shutdown: the input just ends. Clean exit.
        assert!(run_script(vec![init_message(&name, &system)]).is_ok());
    }

    #[test]
    fn fatal_message_precedes_error_exit() {
        let mut input = Vec::new();
        privacy_interchange::write_frame(&mut input, &Message::Checkpoint.encode()).unwrap();
        let mut output = Vec::new();
        let failure =
            run_worker(&mut &input[..], &mut output, WorkerFaults::default()).unwrap_err();
        let mut reader = &output[..];
        let frame = read_frame(&mut reader).unwrap().expect("a fatal frame");
        let Message::Fatal { code, message } = Message::decode(&frame).unwrap() else {
            panic!("expected Fatal");
        };
        assert_eq!(code, failure.exit_code() as u32);
        assert!(message.contains("protocol"));
    }

    #[test]
    fn checkpoint_write_failure_sends_fatal_and_exits_io_fatal() {
        let (name, system) = tiny_system();
        let dir = std::env::temp_dir().join(format!("shardd-ckpt-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // The checkpoint's parent directory is a regular file.
        let blocker = dir.join("not-a-directory");
        std::fs::write(&blocker, b"").unwrap();
        let checkpoint = blocker.join("worker-0.ckpt");
        let Message::Init { model_psm, fingerprint, .. } = init_message(&name, &system) else {
            unreachable!()
        };
        let init = Message::Init {
            worker_index: 0,
            owned_shards: (0..privacy_runtime::SHARD_COUNT as u32).collect(),
            model_psm,
            fingerprint,
            checkpoint_path: Some(checkpoint.to_str().unwrap().to_owned()),
            resume: None,
            resume_through_batch: 0,
            resume_imports: 0,
        };
        let mut input = Vec::new();
        for message in [init, Message::Checkpoint, Message::Shutdown] {
            privacy_interchange::write_frame(&mut input, &message.encode()).unwrap();
        }
        let mut output = Vec::new();
        let failure =
            run_worker(&mut &input[..], &mut output, WorkerFaults::default()).unwrap_err();
        assert!(matches!(failure, WorkerFailure::Io(_)), "{failure}");
        assert_eq!(failure.exit_code(), exit::IO_FATAL);
        assert!(failure.to_string().contains("worker-0.ckpt"), "{failure}");
        let mut reader = &output[..];
        let mut replies = Vec::new();
        while let Some(frame) = read_frame(&mut reader).unwrap() {
            replies.push(Message::decode(&frame).unwrap());
        }
        assert!(matches!(replies[0], Message::Ready { .. }), "{replies:?}");
        assert!(
            replies[1..].iter().all(|reply| matches!(reply,
                Message::Fatal { code, .. } if *code == exit::IO_FATAL as u32)),
            "no CheckpointDone, only Fatal: {replies:?}"
        );
        assert!(replies.len() > 1, "the failure must be reported: {replies:?}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
