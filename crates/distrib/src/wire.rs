//! The supervisor ⇄ worker **wire protocol** and the checkpoint file format.
//!
//! Every message is one sealed [`privacy_interchange::binary`] frame of kind
//! `PDMG` carried over the worker's stdin/stdout pipes with
//! [`write_frame`](privacy_interchange::write_frame) /
//! [`read_frame`](privacy_interchange::read_frame). The envelope gives the
//! protocol what a pipe does not: integrity (trailing checksum), typed
//! version negotiation, and exact message boundaries — a killed worker can
//! only ever produce a *truncated frame*, never a silently misparsed one.
//!
//! Design choices worth naming:
//!
//! * **Models travel as `.psm` text.** The supervisor renders the system
//!   with [`render_system`](privacy_interchange::render_system) and the
//!   worker re-parses and re-generates the LTS and its index, then verifies
//!   the **index fingerprint** against the supervisor's. The model is the
//!   contract; shipping the source text reuses the round-trip-tested
//!   interchange format instead of inventing a second model codec.
//! * **Snapshots travel as opaque blobs.** A [`MonitorSnapshot`] already
//!   has its own sealed frame; resume payloads, shard exports and checkpoint
//!   files nest those bytes whole (the outer checksum covers them again).
//! * **Events carry explicit batch positions.** The supervisor splits each
//!   super-batch across owners; the position (`u32` index within the
//!   super-batch) rides with every event so the merged alert stream can be
//!   re-sorted into exactly the order the in-process
//!   [`IndexedMonitor`](privacy_runtime::IndexedMonitor) would emit.
//!
//! # The data plane
//!
//! Protocol version 2 is the only version spoken; the supervisor and
//! `privacy-shardd` ship in one build.
//!
//! * [`IngestBatch`](Message::IngestBatch) carries **many** sub-batches in
//!   one frame — one length, one checksum, one pipe write. It piggybacks
//!   the supervisor's acknowledged high-water mark so the worker can prune
//!   its retained alert buffer without any extra control frame.
//! * [`AckThrough`](Message::AckThrough) acknowledges **cumulatively**: one
//!   ack covers every sub-batch up to `through`, carrying the retained
//!   alerts of all batches the supervisor has not yet confirmed. A single
//!   lost ack therefore self-heals on the next one instead of forcing a
//!   restart.
//!
//! A frame of any other version is rejected with
//! [`CodecError::UnsupportedVersion`], so a version-skewed peer can never
//! be silently misparsed.

use privacy_interchange::binary::{CodecError, Decoder, Encoder};
use privacy_lts::ActionKind;
use privacy_model::{
    Consent, DatastoreId, FieldId, RiskLevel, Sensitivity, SensitivityProfile, ServiceId, UserId,
    UserProfile,
};
use privacy_runtime::{Alert, Event, MonitorSnapshot};

/// Artefact kind of every supervisor ⇄ worker message frame.
pub const MESSAGE_KIND: [u8; 4] = *b"PDMG";
/// Current message protocol version (coalesced frames, cumulative acks).
pub const MESSAGE_VERSION: u32 = 2;
/// Artefact kind of the worker checkpoint file.
pub const CHECKPOINT_KIND: [u8; 4] = *b"PDCP";
/// Current checkpoint file version. Version 3 carries sparse version-3
/// monitor snapshots (the bookkeeping layout is unchanged); version 2
/// (word-folded checksum, dense snapshots) is still decoded via
/// [`CHECKPOINT_VERSION_V2`], so a worker restarting across the v3
/// deployment resumes from its existing checkpoint and writes v3 from then
/// on. A version-1 file left on disk by an older build is rejected as
/// unsupported, which the loader reports as a skipped generation rather
/// than resuming from it.
pub const CHECKPOINT_VERSION: u32 = 3;
/// The previous checkpoint file version, still accepted on decode.
pub const CHECKPOINT_VERSION_V2: u32 = 2;

/// One protocol message, in either direction.
///
/// Supervisor → worker: [`Init`](Message::Init), [`Register`](Message::Register),
/// [`IngestBatch`](Message::IngestBatch), [`Checkpoint`](Message::Checkpoint),
/// [`ExportShards`](Message::ExportShards), [`ImportShards`](Message::ImportShards),
/// [`Shutdown`](Message::Shutdown).
///
/// Worker → supervisor: [`Ready`](Message::Ready), [`AckThrough`](Message::AckThrough),
/// [`CheckpointDone`](Message::CheckpointDone), [`ShardExport`](Message::ShardExport),
/// [`Imported`](Message::Imported), [`Fatal`](Message::Fatal).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// First message after spawn: everything the worker needs to stand up.
    Init {
        /// The worker's slot index in the supervisor's fleet.
        worker_index: u32,
        /// The monitor shards this worker owns.
        owned_shards: Vec<u32>,
        /// The privacy model as `.psm` source text.
        model_psm: String,
        /// The supervisor's design-time index fingerprint; the worker must
        /// reproduce it from the model or die with a typed mismatch.
        fingerprint: u64,
        /// Where the worker writes its checkpoints (`None` disables them).
        checkpoint_path: Option<String>,
        /// Snapshot bytes to resume from (a sealed `MonitorSnapshot` frame),
        /// or `None` for a fresh start.
        resume: Option<Vec<u8>>,
        /// The super-batch id the resume snapshot covers through (0 when
        /// starting fresh); the worker reports it back in
        /// [`CheckpointDone`](Message::CheckpointDone) bookkeeping.
        resume_through_batch: u64,
        /// How many shard-handoff imports the resume snapshot already
        /// contains (0 when starting fresh). The supervisor uses the import
        /// count persisted in each checkpoint to resend exactly the imports
        /// a resumed snapshot is missing — no more (which would regress the
        /// imported users to their handoff-time state) and no fewer (which
        /// would lose the handoff entirely).
        resume_imports: u64,
    },
    /// Registers (or re-registers, idempotently) one user profile.
    Register {
        /// The profile to track.
        profile: UserProfile,
    },
    /// Sub-batches of super-batches coalesced into one frame: one length,
    /// one checksum, one pipe write for many batches. The worker
    /// processes the parts in order and replies with a single cumulative
    /// [`AckThrough`](Message::AckThrough).
    IngestBatch {
        /// The supervisor's acknowledged high-water mark for this worker:
        /// every batch id `<= acked_through` has been received and merged,
        /// so the worker may prune retained alerts up to it.
        acked_through: u64,
        /// `(super-batch id, events)` in stream order; ids are 1-based and
        /// strictly increasing, and each event carries its position within
        /// its super-batch.
        parts: Vec<(u64, Vec<(u32, Event)>)>,
    },
    /// Asks the worker to checkpoint its state atomically.
    Checkpoint,
    /// Asks the worker to export the given shards (handoff source side).
    /// The worker stops tracking the exported users.
    ExportShards {
        /// Shards to extract and drop.
        shards: Vec<u32>,
    },
    /// Delivers exported shard state to its new owner (handoff target side).
    ImportShards {
        /// A sealed `MonitorSnapshot` frame to absorb.
        snapshot: Vec<u8>,
    },
    /// Asks the worker to exit cleanly.
    Shutdown,
    /// Worker response to [`Init`](Message::Init): it stood up.
    Ready {
        /// The index fingerprint the worker computed from the model.
        fingerprint: u64,
        /// How many users the resume snapshot restored.
        resumed_users: u64,
    },
    /// Cumulative acknowledgement: every sub-batch with id
    /// `<= through` has been processed. Carries the worker's whole retained
    /// alert buffer — every alert the supervisor has not yet confirmed via
    /// [`IngestBatch::acked_through`](Message::IngestBatch) — so a lost ack
    /// self-heals: the next `AckThrough` re-carries the dropped alerts and
    /// the supervisor deduplicates by batch id.
    AckThrough {
        /// The highest sub-batch id processed so far.
        through: u64,
        /// Retained alerts as `(super-batch id, position, alert)`, in raise
        /// order within each batch.
        alerts: Vec<(u64, u32, Alert)>,
    },
    /// Worker response to [`Checkpoint`](Message::Checkpoint).
    CheckpointDone {
        /// The super-batch id the checkpoint covers through.
        through_batch: u64,
        /// How many shard-handoff imports the checkpoint contains.
        imports: u64,
    },
    /// Worker response to [`ExportShards`](Message::ExportShards).
    ShardExport {
        /// The extracted state as a sealed `MonitorSnapshot` frame.
        snapshot: Vec<u8>,
    },
    /// Worker response to [`ImportShards`](Message::ImportShards).
    Imported {
        /// How many users were absorbed.
        users: u64,
    },
    /// The worker is about to exit with a fatal error; a last diagnostic
    /// before the pipe closes.
    Fatal {
        /// The process exit code the worker will die with (see [`crate::exit`]).
        code: u32,
        /// Human-readable cause.
        message: String,
    },
}

const TAG_INIT: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_CHECKPOINT: u8 = 4;
const TAG_EXPORT_SHARDS: u8 = 5;
const TAG_IMPORT_SHARDS: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_INGEST_BATCH: u8 = 8;
const TAG_READY: u8 = 16;
const TAG_CHECKPOINT_DONE: u8 = 18;
const TAG_SHARD_EXPORT: u8 = 19;
const TAG_IMPORTED: u8 = 20;
const TAG_FATAL: u8 = 21;
const TAG_ACK_THROUGH: u8 = 22;

fn put_u32_list(encoder: &mut Encoder, values: &[u32]) {
    encoder.u32(values.len() as u32);
    for &value in values {
        encoder.u32(value);
    }
}

fn get_u32_list(decoder: &mut Decoder<'_>) -> Result<Vec<u32>, CodecError> {
    let len = decoder.u32()? as usize;
    let mut values = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        values.push(decoder.u32()?);
    }
    Ok(values)
}

fn put_opt_bytes(encoder: &mut Encoder, value: Option<&[u8]>) {
    match value {
        Some(bytes) => {
            encoder.bool(true);
            encoder.bytes(bytes);
        }
        None => encoder.bool(false),
    }
}

fn get_opt_bytes(decoder: &mut Decoder<'_>) -> Result<Option<Vec<u8>>, CodecError> {
    Ok(if decoder.bool()? { Some(decoder.bytes()?) } else { None })
}

fn put_event(encoder: &mut Encoder, event: &Event) {
    encoder.u64(event.sequence());
    encoder.str(event.user().as_str());
    encoder.str(event.service().as_str());
    encoder.str(event.actor().as_str());
    encoder.u8(event.action().table_index() as u8);
    encoder.bool(event.permitted());
    match event.datastore() {
        Some(store) => {
            encoder.bool(true);
            encoder.str(store.as_str());
        }
        None => encoder.bool(false),
    }
    encoder.u32(event.fields().len() as u32);
    for field in event.fields() {
        encoder.str(field.as_str());
    }
}

fn get_event(decoder: &mut Decoder<'_>) -> Result<Event, CodecError> {
    let sequence = decoder.u64()?;
    let user = decoder.string()?;
    let service = decoder.string()?;
    let actor = decoder.string()?;
    let action_index = decoder.u8()? as usize;
    let action =
        ActionKind::ALL.get(action_index).copied().ok_or_else(|| CodecError::Malformed {
            what: "event action",
            detail: format!("action index {action_index} is out of range"),
        })?;
    let permitted = decoder.bool()?;
    let datastore = if decoder.bool()? { Some(DatastoreId::new(decoder.string()?)) } else { None };
    let field_count = decoder.u32()? as usize;
    let mut fields = Vec::with_capacity(field_count.min(4096));
    for _ in 0..field_count {
        fields.push(FieldId::new(decoder.string()?));
    }
    Ok(Event::new(sequence, user, service, actor, action, fields, datastore, permitted))
}

fn put_profile(encoder: &mut Encoder, profile: &UserProfile) {
    encoder.str(profile.id().as_str());
    let services: Vec<&ServiceId> = profile.consent().services().collect();
    encoder.u32(services.len() as u32);
    for service in services {
        encoder.str(service.as_str());
    }
    let sensitivities = profile.sensitivities();
    encoder.f64(sensitivities.default_sensitivity().value());
    let entries: Vec<(&FieldId, Sensitivity)> = sensitivities.iter().collect();
    encoder.u32(entries.len() as u32);
    for (field, sensitivity) in entries {
        encoder.str(field.as_str());
        encoder.f64(sensitivity.value());
    }
}

fn get_sensitivity(decoder: &mut Decoder<'_>) -> Result<Sensitivity, CodecError> {
    let value = decoder.f64()?;
    Sensitivity::new(value)
        .map_err(|error| CodecError::Malformed { what: "sensitivity", detail: error.to_string() })
}

fn get_profile(decoder: &mut Decoder<'_>) -> Result<UserProfile, CodecError> {
    let id = decoder.string()?;
    let service_count = decoder.u32()? as usize;
    let mut services = Vec::with_capacity(service_count.min(4096));
    for _ in 0..service_count {
        services.push(ServiceId::new(decoder.string()?));
    }
    let mut sensitivities = SensitivityProfile::with_default(get_sensitivity(decoder)?);
    let entry_count = decoder.u32()? as usize;
    for _ in 0..entry_count {
        let field = FieldId::new(decoder.string()?);
        sensitivities.set(field, get_sensitivity(decoder)?);
    }
    Ok(UserProfile::new(id).with_consent(Consent::to(services)).with_sensitivities(sensitivities))
}

fn put_alert(encoder: &mut Encoder, alert: &Alert) {
    encoder.u64(alert.sequence());
    encoder.str(alert.user().as_str());
    encoder.u8(alert.level().index() as u8);
    encoder.str(alert.message());
}

fn get_alert(decoder: &mut Decoder<'_>) -> Result<Alert, CodecError> {
    let sequence = decoder.u64()?;
    let user = UserId::new(decoder.string()?);
    let level_index = decoder.u8()? as usize;
    let level = RiskLevel::from_index(level_index).ok_or_else(|| CodecError::Malformed {
        what: "alert risk level",
        detail: format!("risk-level index {level_index} is out of range"),
    })?;
    let message = decoder.string()?;
    Ok(Alert::from_parts(sequence, user, level, message))
}

impl Message {
    /// Seals the message into one wire frame at the current protocol
    /// version, ready for [`write_frame`](privacy_interchange::write_frame).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.encode_at(MESSAGE_VERSION)
    }

    /// Seals the message into a frame stamped with an explicit protocol
    /// `version` — the frame a version-skewed peer would send, which
    /// [`Message::decode`] rejects with a typed error. Tests use it.
    #[must_use]
    pub fn encode_at(&self, version: u32) -> Vec<u8> {
        let mut encoder = Encoder::new(MESSAGE_KIND, version);
        match self {
            Message::Init {
                worker_index,
                owned_shards,
                model_psm,
                fingerprint,
                checkpoint_path,
                resume,
                resume_through_batch,
                resume_imports,
            } => {
                encoder.u8(TAG_INIT);
                encoder.u32(*worker_index);
                put_u32_list(&mut encoder, owned_shards);
                encoder.str(model_psm);
                encoder.u64(*fingerprint);
                match checkpoint_path {
                    Some(path) => {
                        encoder.bool(true);
                        encoder.str(path);
                    }
                    None => encoder.bool(false),
                }
                put_opt_bytes(&mut encoder, resume.as_deref());
                encoder.u64(*resume_through_batch);
                encoder.u64(*resume_imports);
            }
            Message::Register { profile } => {
                encoder.u8(TAG_REGISTER);
                put_profile(&mut encoder, profile);
            }
            Message::IngestBatch { acked_through, parts } => {
                encoder.u8(TAG_INGEST_BATCH);
                encoder.u64(*acked_through);
                encoder.u32(parts.len() as u32);
                for (batch, events) in parts {
                    encoder.u64(*batch);
                    encoder.u32(events.len() as u32);
                    for (position, event) in events {
                        encoder.u32(*position);
                        put_event(&mut encoder, event);
                    }
                }
            }
            Message::Checkpoint => encoder.u8(TAG_CHECKPOINT),
            Message::ExportShards { shards } => {
                encoder.u8(TAG_EXPORT_SHARDS);
                put_u32_list(&mut encoder, shards);
            }
            Message::ImportShards { snapshot } => {
                encoder.u8(TAG_IMPORT_SHARDS);
                encoder.bytes(snapshot);
            }
            Message::Shutdown => encoder.u8(TAG_SHUTDOWN),
            Message::Ready { fingerprint, resumed_users } => {
                encoder.u8(TAG_READY);
                encoder.u64(*fingerprint);
                encoder.u64(*resumed_users);
            }
            Message::AckThrough { through, alerts } => {
                encoder.u8(TAG_ACK_THROUGH);
                encoder.u64(*through);
                encoder.u32(alerts.len() as u32);
                for (batch, position, alert) in alerts {
                    encoder.u64(*batch);
                    encoder.u32(*position);
                    put_alert(&mut encoder, alert);
                }
            }
            Message::CheckpointDone { through_batch, imports } => {
                encoder.u8(TAG_CHECKPOINT_DONE);
                encoder.u64(*through_batch);
                encoder.u64(*imports);
            }
            Message::ShardExport { snapshot } => {
                encoder.u8(TAG_SHARD_EXPORT);
                encoder.bytes(snapshot);
            }
            Message::Imported { users } => {
                encoder.u8(TAG_IMPORTED);
                encoder.u64(*users);
            }
            Message::Fatal { code, message } => {
                encoder.u8(TAG_FATAL);
                encoder.u32(*code);
                encoder.str(message);
            }
        }
        encoder.finish()
    }

    /// Opens and decodes one wire frame at the current protocol version.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CodecError`] for a frame of the wrong kind or
    /// version, corruption anywhere, an unknown message tag, or any field
    /// that decodes to an impossible value.
    pub fn decode(frame: &[u8]) -> Result<Message, CodecError> {
        let mut decoder = Decoder::new(frame, MESSAGE_KIND, MESSAGE_VERSION)?;
        let message = match decoder.u8()? {
            TAG_INIT => {
                let worker_index = decoder.u32()?;
                let owned_shards = get_u32_list(&mut decoder)?;
                let model_psm = decoder.string()?;
                let fingerprint = decoder.u64()?;
                let checkpoint_path = if decoder.bool()? { Some(decoder.string()?) } else { None };
                let resume = get_opt_bytes(&mut decoder)?;
                let resume_through_batch = decoder.u64()?;
                let resume_imports = decoder.u64()?;
                Message::Init {
                    worker_index,
                    owned_shards,
                    model_psm,
                    fingerprint,
                    checkpoint_path,
                    resume,
                    resume_through_batch,
                    resume_imports,
                }
            }
            TAG_REGISTER => Message::Register { profile: get_profile(&mut decoder)? },
            TAG_INGEST_BATCH => {
                let acked_through = decoder.u64()?;
                let part_count = decoder.u32()? as usize;
                let mut parts = Vec::with_capacity(part_count.min(4096));
                for _ in 0..part_count {
                    let batch = decoder.u64()?;
                    let count = decoder.u32()? as usize;
                    let mut events = Vec::with_capacity(count.min(65_536));
                    for _ in 0..count {
                        let position = decoder.u32()?;
                        events.push((position, get_event(&mut decoder)?));
                    }
                    parts.push((batch, events));
                }
                Message::IngestBatch { acked_through, parts }
            }
            TAG_CHECKPOINT => Message::Checkpoint,
            TAG_EXPORT_SHARDS => Message::ExportShards { shards: get_u32_list(&mut decoder)? },
            TAG_IMPORT_SHARDS => Message::ImportShards { snapshot: decoder.bytes()? },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_READY => {
                Message::Ready { fingerprint: decoder.u64()?, resumed_users: decoder.u64()? }
            }
            TAG_ACK_THROUGH => {
                let through = decoder.u64()?;
                let count = decoder.u32()? as usize;
                let mut alerts = Vec::with_capacity(count.min(65_536));
                for _ in 0..count {
                    let batch = decoder.u64()?;
                    let position = decoder.u32()?;
                    alerts.push((batch, position, get_alert(&mut decoder)?));
                }
                Message::AckThrough { through, alerts }
            }
            TAG_CHECKPOINT_DONE => {
                Message::CheckpointDone { through_batch: decoder.u64()?, imports: decoder.u64()? }
            }
            TAG_SHARD_EXPORT => Message::ShardExport { snapshot: decoder.bytes()? },
            TAG_IMPORTED => Message::Imported { users: decoder.u64()? },
            TAG_FATAL => Message::Fatal { code: decoder.u32()?, message: decoder.string()? },
            other => {
                return Err(CodecError::Malformed {
                    what: "message tag",
                    detail: format!("unknown message tag {other}"),
                })
            }
        };
        decoder.finish()?;
        Ok(message)
    }
}

/// Seals a worker checkpoint file into `out`, replacing its contents and
/// reusing its allocation: worker index, the super-batch the state covers
/// through, the number of shard-handoff imports it contains, and the
/// monitor snapshot as a nested frame. The snapshot is encoded in place,
/// byte-identical to appending its encoded bytes as a blob, so it never
/// takes a buffer of its own.
pub fn encode_checkpoint(
    out: &mut Vec<u8>,
    worker_index: u32,
    through_batch: u64,
    imports: u64,
    snapshot: &MonitorSnapshot,
) {
    let mut encoder = Encoder::reusing(std::mem::take(out), CHECKPOINT_KIND, CHECKPOINT_VERSION);
    encoder.u32(worker_index);
    encoder.u64(through_batch);
    encoder.u64(imports);
    snapshot.encode_nested(&mut encoder);
    *out = encoder.finish();
}

/// A worker checkpoint file at an explicit file version, around an
/// already-encoded snapshot — the compatibility seam: tests use it to
/// produce checkpoint files of any version (at [`CHECKPOINT_VERSION`], the
/// bytes of [`encode_checkpoint`]) and prove current readers still accept
/// the old ones. The bookkeeping layout is identical
/// across v2/v3; only the version stamp (and the snapshot format the nested
/// blob is expected to carry) differs.
#[must_use]
pub fn encode_checkpoint_at(
    version: u32,
    worker_index: u32,
    through_batch: u64,
    imports: u64,
    snapshot: &[u8],
) -> Vec<u8> {
    let mut encoder = Encoder::new(CHECKPOINT_KIND, version);
    // Three counters, the snapshot and its length.
    encoder.reserve(4 + 8 + 8 + 4 + snapshot.len());
    encoder.u32(worker_index);
    encoder.u64(through_batch);
    encoder.u64(imports);
    encoder.bytes(snapshot);
    encoder.finish()
}

/// Opens a worker checkpoint file sealed by [`encode_checkpoint`] — current
/// ([`CHECKPOINT_VERSION`]) or previous ([`CHECKPOINT_VERSION_V2`]) version;
/// the nested snapshot blob is passed through opaquely, and
/// `MonitorSnapshot::from_bytes` applies its own dual-version handling.
///
/// The outer checksum covers the nested snapshot bytes too, so corruption
/// *anywhere* in the file — header, bookkeeping, or snapshot — surfaces here
/// as a typed error before any state is trusted.
///
/// # Errors
///
/// Returns the typed [`CodecError`] describing the first problem with the
/// envelope or the bookkeeping fields.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointFile, CodecError> {
    let mut decoder = match Decoder::new(bytes, CHECKPOINT_KIND, CHECKPOINT_VERSION) {
        Ok(decoder) => decoder,
        Err(CodecError::UnsupportedVersion { found, .. }) if found == CHECKPOINT_VERSION_V2 => {
            Decoder::new(bytes, CHECKPOINT_KIND, CHECKPOINT_VERSION_V2)?
        }
        Err(error) => return Err(error),
    };
    let worker_index = decoder.u32()?;
    let through_batch = decoder.u64()?;
    let imports = decoder.u64()?;
    let snapshot = decoder.bytes()?;
    decoder.finish()?;
    Ok(CheckpointFile { worker_index, through_batch, imports, snapshot })
}

/// The decoded contents of a worker checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFile {
    /// The worker slot that wrote the checkpoint.
    pub worker_index: u32,
    /// The super-batch id the state covers through.
    pub through_batch: u64,
    /// The number of shard-handoff imports the state contains.
    pub imports: u64,
    /// The nested, sealed `MonitorSnapshot` frame.
    pub snapshot: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use privacy_model::Sensitivity;

    fn sample_event(seq: u64, pos: u32) -> (u32, Event) {
        let event = Event::new(
            seq,
            format!("user-{seq}"),
            "MedicalService",
            "Doctor",
            ActionKind::ALL[(seq as usize) % ActionKind::ALL.len()],
            [FieldId::new("Diagnosis"), FieldId::new("Name")],
            if seq.is_multiple_of(2) { Some(DatastoreId::new("EHR")) } else { None },
            !seq.is_multiple_of(3),
        );
        (pos, event)
    }

    fn sample_profile() -> UserProfile {
        let mut sensitivities = SensitivityProfile::with_default(Sensitivity::new(0.25).unwrap());
        sensitivities.set(FieldId::new("Diagnosis"), Sensitivity::new(0.9).unwrap());
        sensitivities.set(FieldId::new("Name"), Sensitivity::new(0.1).unwrap());
        UserProfile::new("alice")
            .with_consent(Consent::to([ServiceId::new("MedicalService"), ServiceId::new("Lab")]))
            .with_sensitivities(sensitivities)
    }

    fn sample_alert(seq: u64) -> (u32, Alert) {
        (
            seq as u32,
            Alert::from_parts(
                seq,
                UserId::new("alice"),
                RiskLevel::from_index(2).unwrap(),
                format!("risk at #{seq}"),
            ),
        )
    }

    #[test]
    fn every_message_round_trips() {
        let messages = vec![
            Message::Init {
                worker_index: 3,
                owned_shards: vec![0, 5, 31],
                model_psm: "system \"Demo\"\n".to_owned(),
                fingerprint: 0xDEAD_BEEF_1234_5678,
                checkpoint_path: Some("/tmp/ckpt/worker-3.ckpt".to_owned()),
                resume: Some(vec![1, 2, 3, 4]),
                resume_through_batch: 17,
                resume_imports: 2,
            },
            Message::Init {
                worker_index: 0,
                owned_shards: vec![],
                model_psm: String::new(),
                fingerprint: 0,
                checkpoint_path: None,
                resume: None,
                resume_through_batch: 0,
                resume_imports: 0,
            },
            Message::Register { profile: sample_profile() },
            Message::IngestBatch {
                acked_through: 7,
                parts: vec![
                    (8, (0..3).map(|i| sample_event(200 + i, i as u32)).collect()),
                    (9, Vec::new()),
                    (10, (0..2).map(|i| sample_event(300 + i, 5 + i as u32)).collect()),
                ],
            },
            Message::IngestBatch { acked_through: 0, parts: Vec::new() },
            Message::Checkpoint,
            Message::ExportShards { shards: vec![7, 8] },
            Message::ImportShards { snapshot: vec![9; 64] },
            Message::Shutdown,
            Message::Ready { fingerprint: 42, resumed_users: 7 },
            Message::AckThrough {
                through: 10,
                alerts: (0..3)
                    .map(|i| {
                        let (position, alert) = sample_alert(i);
                        (8 + i, position, alert)
                    })
                    .collect(),
            },
            Message::AckThrough { through: 0, alerts: Vec::new() },
            Message::CheckpointDone { through_batch: 9, imports: 1 },
            Message::ShardExport { snapshot: vec![1; 10] },
            Message::Imported { users: 4 },
            Message::Fatal { code: 11, message: "fingerprint mismatch".to_owned() },
        ];
        for message in messages {
            let frame = message.encode();
            let decoded = Message::decode(&frame).expect("frame decodes");
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn version_1_frames_are_typed_unsupported() {
        for message in [
            Message::IngestBatch { acked_through: 1, parts: vec![(2, vec![sample_event(9, 0)])] },
            Message::AckThrough { through: 2, alerts: Vec::new() },
            Message::Checkpoint,
        ] {
            let skewed = message.encode_at(1);
            let error = Message::decode(&skewed).expect_err("a v1 frame must refuse");
            assert!(
                matches!(&error, CodecError::UnsupportedVersion { found: 1, .. }),
                "expected a typed version rejection, got {error:?}"
            );
        }
    }

    #[test]
    fn unknown_future_versions_are_typed_unsupported() {
        let frame = Message::Checkpoint.encode_at(MESSAGE_VERSION + 1);
        assert!(matches!(
            Message::decode(&frame),
            Err(CodecError::UnsupportedVersion { found, .. }) if found == MESSAGE_VERSION + 1
        ));
    }

    #[test]
    fn profile_codec_preserves_consent_and_sensitivities() {
        let profile = sample_profile();
        let frame = Message::Register { profile: profile.clone() }.encode();
        let Message::Register { profile: decoded } = Message::decode(&frame).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(decoded.id(), profile.id());
        assert_eq!(
            decoded.consent().services().collect::<Vec<_>>(),
            profile.consent().services().collect::<Vec<_>>()
        );
        assert_eq!(
            decoded.sensitivities().default_sensitivity(),
            profile.sensitivities().default_sensitivity()
        );
        assert_eq!(
            decoded.sensitivities().iter().collect::<Vec<_>>(),
            profile.sensitivities().iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn unknown_tags_and_bad_indices_are_typed() {
        let mut encoder = Encoder::new(MESSAGE_KIND, MESSAGE_VERSION);
        encoder.u8(250);
        assert!(matches!(
            Message::decode(&encoder.finish()),
            Err(CodecError::Malformed { what: "message tag", .. })
        ));

        let frame =
            Message::IngestBatch { acked_through: 0, parts: vec![(1, vec![sample_event(1, 0)])] }
                .encode();
        // Corrupting payload bytes trips the checksum first, which is the
        // point of the envelope; a *well-formed* frame with a bad index can
        // only come from an encoder bug, which get_alert still types:
        let mut encoder = Encoder::new(MESSAGE_KIND, MESSAGE_VERSION);
        encoder.u8(super::TAG_ACK_THROUGH);
        encoder.u64(1);
        encoder.u32(1);
        encoder.u64(1);
        encoder.u32(0);
        encoder.u64(5);
        encoder.str("alice");
        encoder.u8(99); // impossible risk level
        encoder.str("boom");
        assert!(matches!(
            Message::decode(&encoder.finish()),
            Err(CodecError::Malformed { what: "alert risk level", .. })
        ));
        assert!(Message::decode(&frame).is_ok());
    }

    #[test]
    fn snapshot_checkpoints_encode_in_place_byte_identically() {
        let system = privacy_core::casestudy::healthcare().unwrap();
        let index = privacy_lts::LtsIndex::build(&system.generate_lts().unwrap());
        let mut monitor = privacy_runtime::IndexedMonitor::new(
            system.catalog().clone(),
            system.policy().clone(),
            std::sync::Arc::new(index),
        );
        monitor.register_user(&privacy_core::casestudy::case_a_user());
        let snapshot = monitor.snapshot();
        let mut reused = vec![0xEE; 16];
        encode_checkpoint(&mut reused, 4, 99, 3, &snapshot);
        assert_eq!(
            reused,
            encode_checkpoint_at(CHECKPOINT_VERSION, 4, 99, 3, &snapshot.to_bytes())
        );
    }

    #[test]
    fn checkpoint_file_round_trips_and_detects_corruption() {
        let snapshot = vec![7u8; 100];
        let bytes = encode_checkpoint_at(CHECKPOINT_VERSION, 4, 99, 3, &snapshot);
        let file = decode_checkpoint(&bytes).unwrap();
        assert_eq!((file.worker_index, file.through_batch, file.imports), (4, 99, 3));
        assert_eq!(file.snapshot, snapshot);

        for position in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[position] ^= 0x40;
            assert!(
                decode_checkpoint(&corrupt).is_err(),
                "flipping byte {position} went undetected"
            );
        }
    }

    #[test]
    fn checkpoint_v2_files_still_decode_after_the_v3_bump() {
        // A checkpoint left on disk by a pre-sparse-snapshot build: the
        // bookkeeping layout is identical, only the version stamp differs,
        // and the loader must accept it so a worker restarting across the
        // deployment resumes instead of discarding its state.
        let snapshot = vec![9u8; 64];
        let old = encode_checkpoint_at(CHECKPOINT_VERSION_V2, 2, 17, 5, &snapshot);
        let file = decode_checkpoint(&old).unwrap();
        assert_eq!((file.worker_index, file.through_batch, file.imports), (2, 17, 5));
        assert_eq!(file.snapshot, snapshot);
        // The compatibility window is exactly {v2, v3}: v1 and future
        // versions are typed rejections, not best-effort parses.
        for version in [1, CHECKPOINT_VERSION + 1] {
            let alien = encode_checkpoint_at(version, 2, 17, 5, &snapshot);
            assert!(matches!(
                decode_checkpoint(&alien),
                Err(CodecError::UnsupportedVersion { found, .. }) if found == version
            ));
        }
    }

    #[test]
    fn messages_reject_wrong_kind_frames() {
        let foreign = Encoder::new(*b"PMSN", 1).finish();
        assert!(matches!(Message::decode(&foreign), Err(CodecError::BadMagic { .. })));
    }
}
