//! The supervisor ⇄ worker **wire protocol**. The worker's checkpoint file
//! is not part of it: it is the shared frame of [`crate::checkpoint`].
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
//! * **Snapshots travel as opaque blobs.** A
//!   [`MonitorSnapshot`](privacy_runtime::MonitorSnapshot) already has its
//!   own sealed frame; a resume payload nests those bytes whole (the outer
//!   checksum covers them again).
//! * **Events carry explicit batch positions.** The supervisor splits each
//!   super-batch across owners; the position (`u32` index within the
//!   super-batch) rides with every event so the merged alert stream can be
//!   re-sorted into exactly the order the in-process
//!   [`IndexedMonitor`](privacy_runtime::IndexedMonitor) would emit.
//!
//! # The data plane
//!
//! Protocol version 3 is the only version spoken; the supervisor and
//! `privacy-shardd` ship in one build. Version 3 dropped version 2's
//! shard-handoff messages: shards are assigned once, at launch.
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
use privacy_runtime::{Alert, Event};

/// Artefact kind of every supervisor ⇄ worker message frame.
pub const MESSAGE_KIND: [u8; 4] = *b"PDMG";
/// Current message protocol version (coalesced frames, cumulative acks, a
/// fixed shard map).
pub const MESSAGE_VERSION: u32 = 3;
/// One protocol message, in either direction.
///
/// Supervisor → worker: [`Init`](Message::Init), [`Register`](Message::Register),
/// [`IngestBatch`](Message::IngestBatch), [`Checkpoint`](Message::Checkpoint),
/// [`Shutdown`](Message::Shutdown).
///
/// Worker → supervisor: [`Ready`](Message::Ready), [`AckThrough`](Message::AckThrough),
/// [`CheckpointDone`](Message::CheckpointDone), [`Fatal`](Message::Fatal).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// First message after spawn: everything the worker needs to stand up.
    Init {
        /// The worker's slot index in the supervisor's fleet.
        worker_index: u32,
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
const TAG_SHUTDOWN: u8 = 7;
const TAG_INGEST_BATCH: u8 = 8;
const TAG_READY: u8 = 16;
const TAG_CHECKPOINT_DONE: u8 = 18;
const TAG_FATAL: u8 = 21;
const TAG_ACK_THROUGH: u8 = 22;

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
                model_psm,
                fingerprint,
                checkpoint_path,
                resume,
                resume_through_batch,
            } => {
                encoder.u8(TAG_INIT);
                encoder.u32(*worker_index);
                encoder.str(model_psm);
                encoder.u64(*fingerprint);
                encoder.bool(checkpoint_path.is_some());
                if let Some(path) = checkpoint_path {
                    encoder.str(path);
                }
                encoder.bool(resume.is_some());
                if let Some(resume) = resume {
                    encoder.bytes(resume);
                }
                encoder.u64(*resume_through_batch);
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
            Message::CheckpointDone { through_batch } => {
                encoder.u8(TAG_CHECKPOINT_DONE);
                encoder.u64(*through_batch);
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
                let model_psm = decoder.string()?;
                let fingerprint = decoder.u64()?;
                let checkpoint_path = if decoder.bool()? { Some(decoder.string()?) } else { None };
                let resume = if decoder.bool()? { Some(decoder.bytes()?) } else { None };
                let resume_through_batch = decoder.u64()?;
                Message::Init {
                    worker_index,
                    model_psm,
                    fingerprint,
                    checkpoint_path,
                    resume,
                    resume_through_batch,
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
            TAG_CHECKPOINT_DONE => Message::CheckpointDone { through_batch: decoder.u64()? },
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
                model_psm: "system \"Demo\"\n".to_owned(),
                fingerprint: 0xDEAD_BEEF_1234_5678,
                checkpoint_path: Some("/tmp/ckpt/worker-3.ckpt".to_owned()),
                resume: Some(vec![1, 2, 3, 4]),
                resume_through_batch: 17,
            },
            Message::Init {
                worker_index: 0,
                model_psm: String::new(),
                fingerprint: 0,
                checkpoint_path: None,
                resume: None,
                resume_through_batch: 0,
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
            Message::CheckpointDone { through_batch: 9 },
            Message::Fatal { code: 11, message: "fingerprint mismatch".to_owned() },
        ];
        for message in messages {
            let frame = message.encode();
            let decoded = Message::decode(&frame).expect("frame decodes");
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn version_1_and_2_frames_are_typed_unsupported() {
        for message in [
            Message::IngestBatch { acked_through: 1, parts: vec![(2, vec![sample_event(9, 0)])] },
            Message::AckThrough { through: 2, alerts: Vec::new() },
            Message::Checkpoint,
        ] {
            for version in [1, 2] {
                let skewed = message.encode_at(version);
                let error = Message::decode(&skewed).expect_err("an old frame must refuse");
                assert!(
                    matches!(&error, CodecError::UnsupportedVersion { found, .. } if *found == version),
                    "expected a typed version rejection, got {error:?}"
                );
            }
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
    fn messages_reject_wrong_kind_frames() {
        let foreign = Encoder::new(*b"PMSN", 1).finish();
        assert!(matches!(Message::decode(&foreign), Err(CodecError::BadMagic { .. })));
    }
}
