//! Versioned, integrity-checked snapshots of the indexed monitor's state.
//!
//! A production monitor restarts: processes crash, hosts drain, deployments
//! roll. [`MonitorSnapshot`] captures everything an
//! [`IndexedMonitor`](crate::indexed::IndexedMonitor) accumulates at runtime
//! — the per-user packed [`PrivacyState`](privacy_lts::PrivacyState) word
//! rows (with the per-user allowed-actor bitsets and field sensitivities
//! resolved at registration) and the not-yet-drained alerts — while leaving
//! out everything the operator supplies at construction time: the catalog,
//! the access policy and the shared [`LtsIndex`](privacy_lts::LtsIndex) are
//! passed back in at resume time, and monitor *configuration* (alert
//! threshold, risk matrix, likelihood model, thread count) must be
//! re-applied with the builder methods after the resume, exactly as after
//! [`IndexedMonitor::new`](crate::IndexedMonitor::new).
//!
//! Soundness across the restart hinges on two checks:
//!
//! * the snapshot records the **index fingerprint**
//!   ([`LtsIndex::fingerprint`](privacy_lts::LtsIndex::fingerprint)) it was
//!   taken against, and `resume_from` refuses a mismatched index with a
//!   typed [`SnapshotError::IndexMismatch`] — word rows are dense bit
//!   vectors whose meaning *is* the index's variable layout, so resuming
//!   against a regenerated model silently reinterpreting every bit would be
//!   exactly the "state carried across analysis rounds" soundness break the
//!   static-assessment literature warns about;
//! * the byte form goes through the `privacy-interchange` framed
//!   [`binary`] codec: explicit kind tag and
//!   format version, declared length and trailing checksum, so truncated,
//!   bit-flipped or wrong-version inputs all surface as typed
//!   [`CodecError`]s — never a panic, never a silent partial resume.
//!
//! Snapshots are grouped **per shard** (the same stable `UserId`-hash shards
//! ingestion uses), and a resume adopts each shard's body whole, so a
//! snapshot taken at one thread count rehydrates at any other: shard
//! assignment depends only on the user id, never on the ingestion
//! parallelism.
//!
//! Since format version 3 each user row is stored **sparsely**: the state
//! words, allowed-actor bitset and sensitivity vector are each encoded under
//! whichever row encoding is smallest for that row (dense words, index+word
//! pairs, or bit-run lists — see [`binary::put_u64_row`]). At
//! population scale most users have touched at most a handful of fields, so
//! their rows collapse from hundreds of dense bytes to a couple of dozen.
//! Each shard stays in its encoded byte form inside [`MonitorSnapshot`]: one
//! contiguous body per shard in the exact wire layout.
//! [`MonitorSnapshot::to_bytes`] copies bodies without a decode/encode
//! round trip, which is what keeps a decoded snapshot's bytes
//! byte-identical to the original. Capture itself re-encodes only the rows
//! that changed since the monitor's previous capture (see
//! [`IndexedMonitor::snapshot`](crate::IndexedMonitor::snapshot)).
//! Version-2 (dense) frames still decode.
//!
//! A capture also carries the entries it changed since its monitor's
//! previous capture, as a [`SnapshotDelta`]: the same payload layout in a
//! frame of its own kind ([`DELTA_KIND`]) holding only those entries and
//! the pending alerts. [`MonitorSnapshot::apply`] splices a delta into the
//! previous capture, so a checkpoint can persist one full snapshot and then
//! only what each later capture changed.

use crate::indexed::{adoptable_offsets, shard_of, splice, FreshEntry};
use crate::monitor::Alert;
use privacy_interchange::binary::{
    self, CodecError, Decoder, Encoder, F64_ROW_DENSE, U64_ROW_INDEXED, U64_ROW_RUNS,
};
use privacy_model::{RiskLevel, UserId};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// The artefact kind tag of a monitor snapshot frame ("Privacy Monitor
/// SNapshot").
pub const SNAPSHOT_KIND: [u8; 4] = *b"PMSN";

/// The snapshot format version this build writes. Bumped whenever the
/// payload layout changes; frames newer than this are rejected with
/// [`CodecError::UnsupportedVersion`]. Version 3 introduced the sparse
/// per-user row encodings and varint framing of counts and identifiers;
/// version 2 (dense rows, see [`SNAPSHOT_VERSION_V2`]) is still decoded.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The previous, dense-row snapshot format. [`MonitorSnapshot::from_bytes`]
/// still decodes it — a monitor restarting across the v3 deployment resumes
/// from its existing v2 checkpoint and writes v3 from then on.
pub const SNAPSHOT_VERSION_V2: u32 = 2;

/// The artefact kind tag of a snapshot delta frame ("Privacy Monitor
/// Snapshot Delta").
pub const DELTA_KIND: [u8; 4] = *b"PMSD";

/// The snapshot delta format version this build writes and reads.
pub const DELTA_VERSION: u32 = 1;

/// The largest per-row dimension (state words, allowed words, or field
/// count) a snapshot header may declare. Sparse rows encode huge rows in a
/// few bytes, so without this cap a corrupted or hostile header could drive
/// a multi-gigabyte materialisation; 2²² words is a 32 MB row, far past any
/// real model.
const MAX_DIM: u32 = 1 << 22;

/// One persisted row, borrowed from its shard body: the user id and the
/// row's *encoded* sparse byte form — three back-to-back row encodings
/// (state words, allowed bitset, sensitivities) — so resume and capture
/// move bytes instead of re-encoding state. Bodies are validated when they
/// enter a snapshot (at capture by construction, at
/// [`MonitorSnapshot::from_bytes`] by decode), so decoding a stored row
/// cannot fail.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowView<'a> {
    pub(crate) user: &'a str,
    /// The sparse-encoded row bytes: `u64` row of packed privacy-state bits
    /// in the index's [`VarSpace`](privacy_lts::VarSpace) layout, `u64` row
    /// of the allowed-actor bitset, `f64` row of per-field sensitivities.
    pub(crate) encoded: &'a [u8],
}

/// The dimensions every row of a snapshot must decode against: state words,
/// allowed words, field count.
type RowDims = (u32, u32, u32);

/// A row decoded back to dense form: state words, allowed words,
/// sensitivities.
type DecodedRow = (Vec<u64>, Vec<u64>, Vec<f64>);

impl RowView<'_> {
    /// Decodes the row back into dense state against the snapshot's declared
    /// dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] naming the user and the
    /// row-level problem — possible only for rows that skipped validation,
    /// which no public path constructs.
    pub(crate) fn decode(&self, dims: RowDims) -> Result<DecodedRow, SnapshotError> {
        let mut words = Vec::new();
        let mut allowed = Vec::new();
        let mut sensitivities = Vec::new();
        self.decode_into(dims, &mut words, &mut allowed, &mut sensitivities)?;
        Ok((words, allowed, sensitivities))
    }

    /// [`RowView::decode`] into caller-owned buffers, returning the three
    /// encoding tags — the allocation-free validation walk `from_bytes` runs
    /// over every row, and the source of the encoding histogram.
    pub(crate) fn decode_into(
        &self,
        (state_words, allowed_words, field_count): RowDims,
        words: &mut Vec<u64>,
        allowed: &mut Vec<u64>,
        sensitivities: &mut Vec<f64>,
    ) -> Result<(u8, u8, u8), SnapshotError> {
        let row_error = |detail: String| SnapshotError::Malformed {
            detail: format!("user `{}` row: {detail}", self.user),
        };
        let mut offset = 0;
        let words_tag = binary::get_u64_row(self.encoded, &mut offset, state_words as usize, words)
            .map_err(|error| row_error(error.to_string()))?;
        let allowed_tag =
            binary::get_u64_row(self.encoded, &mut offset, allowed_words as usize, allowed)
                .map_err(|error| row_error(error.to_string()))?;
        let sens_tag =
            binary::get_f64_row(self.encoded, &mut offset, field_count as usize, sensitivities)
                .map_err(|error| row_error(error.to_string()))?;
        if offset != self.encoded.len() {
            return Err(row_error(format!(
                "{} undeclared bytes after the sensitivity row",
                self.encoded.len() - offset
            )));
        }
        for &value in sensitivities.iter() {
            if value.is_nan() || !(0.0..=1.0).contains(&value) {
                return Err(SnapshotError::Malformed {
                    detail: format!(
                        "sensitivity {value} of user `{}` is outside [0, 1]",
                        self.user
                    ),
                });
            }
        }
        Ok((words_tag, allowed_tag, sens_tag))
    }
}

/// Reads the varint length prefix at `*offset` and the bytes it covers.
fn take_prefixed<'a>(bytes: &'a [u8], offset: &mut usize) -> Result<&'a [u8], CodecError> {
    let len = binary::get_varu(bytes, offset)?;
    let available = bytes.len() - *offset;
    match usize::try_from(len) {
        Ok(len) if len <= available => {
            let slice = &bytes[*offset..*offset + len];
            *offset += len;
            Ok(slice)
        }
        _ => Err(CodecError::Truncated {
            needed: usize::try_from(len).unwrap_or(usize::MAX),
            available,
        }),
    }
}

/// Reads the shard-body entry at `*offset` — `str_var(user)`,
/// `varu(len)`, row — advancing past it. The row bytes are not decoded.
pub(crate) fn read_entry<'a>(
    body: &'a [u8],
    offset: &mut usize,
) -> Result<RowView<'a>, CodecError> {
    let user = std::str::from_utf8(take_prefixed(body, offset)?)
        .map_err(|error| CodecError::Malformed { what: "string", detail: error.to_string() })?;
    let encoded = take_prefixed(body, offset)?;
    Ok(RowView { user, encoded })
}

/// The user-id bytes of the entry starting at `offset` of a validated
/// shard body — the key capture binary-searches its cached body by.
pub(crate) fn entry_user(body: &[u8], mut offset: usize) -> &[u8] {
    take_prefixed(body, &mut offset).expect("shard bodies hold validated entries")
}

/// Encodes one user's row into `row`, replacing its contents: the state
/// words, the allowed-actor bitset and the sensitivities, each under its
/// smallest encoding. Reusing `row` across users makes no allocation once
/// it has grown.
pub(crate) fn encode_row(row: &mut Vec<u8>, words: &[u64], allowed: &[u64], sensitivities: &[f64]) {
    row.clear();
    binary::put_u64_row(row, words);
    binary::put_u64_row(row, allowed);
    binary::put_f64_row(row, sensitivities);
}

/// Appends one shard-body entry: the user id and their encoded row.
pub(crate) fn put_entry(body: &mut Vec<u8>, user: &str, row: &[u8]) {
    binary::put_varu(body, user.len() as u64);
    body.extend_from_slice(user.as_bytes());
    binary::put_varu(body, row.len() as u64);
    body.extend_from_slice(row);
}

/// The persisted users of one monitor shard, sorted by user id, held as
/// one contiguous body in the exact v3 wire layout — per user
/// `str_var(user)`, `varu(len)`, row — so serializing a shard is a copy and
/// a resume shares the body instead of decoding it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    pub(crate) shard: u32,
    pub(crate) users: usize,
    pub(crate) body: Arc<Vec<u8>>,
}

impl ShardSnapshot {
    /// The shard index this group was exported from (stable `UserId` hash;
    /// advisory — resuming re-derives every user's shard from their id).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Number of users persisted in this shard.
    pub fn user_count(&self) -> usize {
        self.users
    }

    /// The shard's rows, in stored (user id) order, borrowed from the body.
    pub(crate) fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        self.entries().map(|(row, _)| row)
    }

    /// Each row with the bytes of its whole entry.
    fn entries(&self) -> impl Iterator<Item = (RowView<'_>, &[u8])> {
        let body = self.body.as_slice();
        let mut offset = 0;
        std::iter::from_fn(move || {
            (offset < body.len()).then(|| {
                let start = offset;
                let row =
                    read_entry(body, &mut offset).expect("shard bodies hold validated entries");
                (row, &body[start..offset])
            })
        })
    }
}

/// A versioned snapshot of an [`IndexedMonitor`](crate::IndexedMonitor)'s
/// accumulated state. See the module docs for the format and validation
/// story.
///
/// # Examples
///
/// ```
/// use privacy_core::casestudy;
/// use privacy_lts::LtsIndex;
/// use privacy_runtime::IndexedMonitor;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let system = casestudy::healthcare()?;
/// let index = Arc::new(LtsIndex::build(&system.generate_lts()?));
/// let mut monitor =
///     IndexedMonitor::new(system.catalog().clone(), system.policy().clone(), Arc::clone(&index));
/// monitor.register_user(&casestudy::case_a_user());
///
/// let bytes = monitor.snapshot().to_bytes();
/// let resumed = IndexedMonitor::resume_from(
///     system.catalog().clone(),
///     system.policy().clone(),
///     index,
///     &privacy_runtime::MonitorSnapshot::from_bytes(&bytes)?,
/// )?;
/// assert_eq!(resumed.user_count(), 1);
/// # Ok(())
/// # }
/// ```
///
/// Two snapshots are equal when they hold the same state: the capture
/// ordinal and delta a capture carries are not compared.
#[derive(Debug, Clone)]
pub struct MonitorSnapshot {
    /// Fingerprint of the [`LtsIndex`](privacy_lts::LtsIndex) the state was
    /// accumulated against.
    pub(crate) fingerprint: u64,
    /// Expected `u64` words per privacy-state row.
    pub(crate) state_words: u32,
    /// Expected `u64` words per allowed-actor bitset.
    pub(crate) allowed_words: u32,
    /// Expected sensitivities per user (the space's field count).
    pub(crate) field_count: u32,
    /// Occupied shards, ascending by shard index.
    pub(crate) shards: Vec<ShardSnapshot>,
    /// Alerts raised but not yet drained at snapshot time, in stream order.
    pub(crate) pending_alerts: Vec<Alert>,
    /// Which capture of its monitor this is, from 1; 0 for a snapshot that
    /// was decoded or composed rather than captured.
    pub(crate) ordinal: u64,
    /// What this capture changed since its monitor's previous one; `None`
    /// for a monitor's first capture and for snapshots not captured.
    pub(crate) delta: Option<SnapshotDelta>,
}

impl PartialEq for MonitorSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
            && self.dims() == other.dims()
            && self.shards == other.shards
            && self.pending_alerts == other.pending_alerts
    }
}

impl MonitorSnapshot {
    /// A snapshot of decoded or composed state: no capture ordinal, no
    /// delta.
    fn decoded(
        fingerprint: u64,
        (state_words, allowed_words, field_count): RowDims,
        shards: Vec<ShardSnapshot>,
        pending_alerts: Vec<Alert>,
    ) -> MonitorSnapshot {
        MonitorSnapshot {
            fingerprint,
            state_words,
            allowed_words,
            field_count,
            shards,
            pending_alerts,
            ordinal: 0,
            delta: None,
        }
    }

    fn dims(&self) -> RowDims {
        (self.state_words, self.allowed_words, self.field_count)
    }

    /// Which capture of its monitor this snapshot is, counting from 1, so
    /// a capture whose ordinal is one more than another's directly follows
    /// it. 0 for a snapshot that was decoded or composed.
    pub fn ordinal(&self) -> u64 {
        self.ordinal
    }

    /// The entries this capture changed since its monitor's previous
    /// capture, and its pending alerts: applied to that capture with
    /// [`MonitorSnapshot::apply`], it gives this one. `None` for a
    /// monitor's first capture (there is nothing to apply it to) and for a
    /// snapshot that was decoded or composed.
    pub fn delta(&self) -> Option<&SnapshotDelta> {
        self.delta.as_ref()
    }

    /// Applies `delta` — the changes of the capture that followed this
    /// snapshot — so this snapshot becomes that capture: each changed entry
    /// is spliced into its shard body in place of the user's old entry (or
    /// as a new one), by the splice capture itself uses, and the pending
    /// alerts are replaced. Applying the deltas of captures 2..=k to
    /// capture 1, in order, gives capture k byte for byte.
    ///
    /// All or nothing: on error the snapshot is unchanged. The result is a
    /// composed snapshot, with no ordinal and no delta of its own.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the delta was taken against
    /// another index fingerprint or other row dimensions, or when a shard
    /// it changes is not in the layout a monitor captures (every user
    /// hashing to the shard, in ascending id order).
    pub fn apply(&mut self, delta: &SnapshotDelta) -> Result<(), SnapshotError> {
        if delta.fingerprint != self.fingerprint || delta.dims != self.dims() {
            return Err(SnapshotError::Malformed {
                detail: format!(
                    "a delta of index {:#018x} with dimensions {:?} cannot apply to a snapshot \
                     of index {:#018x} with dimensions {:?}",
                    delta.fingerprint,
                    delta.dims,
                    self.fingerprint,
                    self.dims()
                ),
            });
        }
        let mut spliced = Vec::with_capacity(delta.shards.len());
        for part in &delta.shards {
            let held = self.shards.iter().find(|shard| shard.shard == part.shard);
            let (previous, offsets) = match held {
                Some(base) => (
                    base.body.as_slice(),
                    adoptable_offsets(&base.body, base.shard as usize).ok_or_else(|| {
                        SnapshotError::Malformed {
                            detail: format!(
                                "shard {} is not in capture layout, so a delta cannot apply",
                                base.shard
                            ),
                        }
                    })?,
                ),
                None => (&[][..], Vec::new()),
            };
            let fresh: Vec<FreshEntry<'_>> =
                part.entries().map(|(row, entry)| (row.user, entry)).collect();
            let (body, offsets) = splice(previous, &offsets, &fresh);
            let users = offsets.len();
            spliced.push(ShardSnapshot { shard: part.shard, users, body: Arc::new(body) });
        }
        for shard in spliced {
            match self.shards.iter().position(|held| held.shard == shard.shard) {
                Some(at) => self.shards[at] = shard,
                None => {
                    let at = self.shards.partition_point(|held| held.shard < shard.shard);
                    self.shards.insert(at, shard);
                }
            }
        }
        self.pending_alerts.clone_from(&delta.pending_alerts);
        self.ordinal = 0;
        self.delta = None;
        Ok(())
    }

    /// The fingerprint of the index the snapshot was taken against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The per-shard user groups (occupied shards only).
    pub fn shards(&self) -> &[ShardSnapshot] {
        &self.shards
    }

    /// Total number of persisted users.
    pub fn user_count(&self) -> usize {
        self.shards.iter().map(ShardSnapshot::user_count).sum()
    }

    /// The alerts that were raised but not yet drained at snapshot time.
    pub fn pending_alerts(&self) -> &[Alert] {
        &self.pending_alerts
    }

    /// Serializes the snapshot through the framed
    /// [`binary`] codec (kind
    /// [`SNAPSHOT_KIND`], version [`SNAPSHOT_VERSION`], trailing checksum).
    /// Each shard body is copied as stored — serialization never
    /// re-encodes a row, so a decoded snapshot serializes byte-identically
    /// to the bytes it was decoded from.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.encode_into(&mut bytes);
        bytes
    }

    /// [`MonitorSnapshot::to_bytes`] into `out`, replacing its contents and
    /// reusing its allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut encoder = Encoder::reusing(std::mem::take(out), SNAPSHOT_KIND, SNAPSHOT_VERSION);
        self.write_payload(&mut encoder);
        *out = encoder.finish();
    }

    /// Appends the snapshot to an enclosing frame (a checkpoint file) as a
    /// nested blob: the bytes of `outer.bytes(&self.to_bytes())`, encoded
    /// in place without a buffer of their own.
    pub fn encode_nested(&self, outer: &mut Encoder) {
        outer.nested(SNAPSHOT_KIND, SNAPSHOT_VERSION, |encoder| self.write_payload(encoder));
    }

    fn write_payload(&self, encoder: &mut Encoder) {
        write_payload(encoder, self.fingerprint, self.dims(), &self.shards, &self.pending_alerts);
    }

    /// [`MonitorSnapshot::to_bytes`] at an explicit format version — the
    /// compatibility seam: tests (and only tests) use it to produce
    /// old-version frames and prove current readers still accept them.
    ///
    /// # Panics
    ///
    /// Panics on a version this build cannot write ([`SNAPSHOT_VERSION`] and
    /// [`SNAPSHOT_VERSION_V2`] are supported) or — for v2, which must
    /// re-encode rows densely — on a row that fails to decode, which no
    /// public path constructs.
    #[must_use]
    pub fn to_bytes_at(&self, version: u32) -> Vec<u8> {
        if version == SNAPSHOT_VERSION {
            return self.to_bytes();
        }
        assert!(
            version == SNAPSHOT_VERSION_V2,
            "snapshot format version {version} cannot be written by this build"
        );
        let dims = self.dims();
        let mut encoder = Encoder::new(SNAPSHOT_KIND, SNAPSHOT_VERSION_V2);
        encoder.u64(self.fingerprint);
        encoder.u32(self.state_words);
        encoder.u32(self.allowed_words);
        encoder.u32(self.field_count);
        encoder.u32(self.shards.len() as u32);
        for shard in &self.shards {
            encoder.u32(shard.shard);
            encoder.u32(shard.users as u32);
            for row in shard.rows() {
                let (words, allowed, sensitivities) =
                    row.decode(dims).expect("validated row decodes");
                encoder.str(row.user);
                encoder.u64_slice(&words);
                encoder.u64_slice(&allowed);
                encoder.u32(sensitivities.len() as u32);
                for &sensitivity in &sensitivities {
                    encoder.f64(sensitivity);
                }
            }
        }
        encoder.u32(self.pending_alerts.len() as u32);
        for alert in &self.pending_alerts {
            encoder.u64(alert.sequence());
            encoder.str(alert.user().as_str());
            encoder.u8(alert.level().index() as u8);
            encoder.str(alert.message());
        }
        encoder.finish()
    }

    /// Deserializes a snapshot, validating the frame (magic, kind, version,
    /// length, checksum) and every field — including a structural decode of
    /// every sparse row against the declared dimensions, so a snapshot that
    /// constructs is a snapshot whose rows are known to decode.
    ///
    /// Both the current version-3 (sparse) and the previous version-2
    /// (dense) layouts are accepted; v2 rows are re-encoded sparsely on the
    /// way in, so everything downstream — resume, `to_bytes` — sees one
    /// in-memory form.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Codec`] for any envelope or primitive-level
    /// problem — truncation, corruption, a future format version — and
    /// [`SnapshotError::Malformed`] for values that decode but cannot be
    /// valid monitor state (a sensitivity outside `[0, 1]`, an unknown risk
    /// level, a user persisted twice, a row disagreeing with the declared
    /// dimensions). Never panics on arbitrary input.
    pub fn from_bytes(bytes: &[u8]) -> Result<MonitorSnapshot, SnapshotError> {
        let decoder = match Decoder::new(bytes, SNAPSHOT_KIND, SNAPSHOT_VERSION) {
            Ok(decoder) => decoder,
            Err(CodecError::UnsupportedVersion { found, .. }) if found == SNAPSHOT_VERSION_V2 => {
                return Self::from_bytes_v2(bytes);
            }
            Err(error) => return Err(error.into()),
        };
        let (fingerprint, dims, shards, pending_alerts) = read_payload(decoder, false)?;
        check_unique_users(&shards)?;
        Ok(MonitorSnapshot::decoded(fingerprint, dims, shards, pending_alerts))
    }

    /// Decodes the version-2 dense layout, re-encoding each row sparsely.
    fn from_bytes_v2(bytes: &[u8]) -> Result<MonitorSnapshot, SnapshotError> {
        let mut decoder = Decoder::new(bytes, SNAPSHOT_KIND, SNAPSHOT_VERSION_V2)?;
        let fingerprint = decoder.u64()?;
        let state_words = decoder.u32()?;
        let allowed_words = decoder.u32()?;
        let field_count = decoder.u32()?;
        check_dims(state_words, allowed_words, field_count)?;
        let shard_count = decoder.u32()? as usize;
        let mut shards = Vec::new();
        let mut row = Vec::new();
        for _ in 0..shard_count {
            let shard = decoder.u32()?;
            let users = decoder.u32()? as usize;
            let mut body = Vec::new();
            for _ in 0..users {
                let user = decoder.string()?;
                let words = decoder.u64_slice()?;
                let allowed = decoder.u64_slice()?;
                let sensitivity_count = decoder.u32()? as usize;
                let mut sensitivities = Vec::with_capacity(sensitivity_count.min(1 << 16));
                for _ in 0..sensitivity_count {
                    let value = decoder.f64()?;
                    if value.is_nan() || !(0.0..=1.0).contains(&value) {
                        return Err(SnapshotError::Malformed {
                            detail: format!(
                                "sensitivity {value} of user `{user}` is outside [0, 1]"
                            ),
                        });
                    }
                    sensitivities.push(value);
                }
                if words.len() != state_words as usize
                    || allowed.len() != allowed_words as usize
                    || sensitivities.len() != field_count as usize
                {
                    return Err(SnapshotError::Malformed {
                        detail: format!(
                            "user `{user}` rows ({} state words, {} allowed words, {} \
                             sensitivities) disagree with the declared dimensions \
                             ({state_words}, {allowed_words}, {field_count})",
                            words.len(),
                            allowed.len(),
                            sensitivities.len()
                        ),
                    });
                }
                encode_row(&mut row, &words, &allowed, &sensitivities);
                put_entry(&mut body, &user, &row);
            }
            shards.push(ShardSnapshot { shard, users, body: Arc::new(body) });
        }
        let alert_count = decoder.u32()? as usize;
        let mut pending_alerts = Vec::new();
        for _ in 0..alert_count {
            let sequence = decoder.u64()?;
            let user = UserId::new(decoder.string()?);
            let level_index = decoder.u8()?;
            let level =
                RiskLevel::from_index(level_index as usize).ok_or(SnapshotError::Malformed {
                    detail: format!("{level_index} is not a risk-level index"),
                })?;
            let message = decoder.string()?;
            pending_alerts.push(Alert::raise(sequence, user, level, message));
        }
        decoder.finish()?;
        check_unique_users(&shards)?;
        let dims = (state_words, allowed_words, field_count);
        Ok(MonitorSnapshot::decoded(fingerprint, dims, shards, pending_alerts))
    }

    /// Counts, per constituent row kind, which sparse encoding each stored
    /// row chose — the footprint-analysis view behind the benchmark and
    /// `PERFORMANCE.md` histogram tables.
    #[must_use]
    pub fn encoding_histogram(&self) -> SnapshotEncodingHistogram {
        let dims = self.dims();
        let mut histogram = SnapshotEncodingHistogram::default();
        let mut words = Vec::new();
        let mut allowed = Vec::new();
        let mut sensitivities = Vec::new();
        for shard in &self.shards {
            for row in shard.rows() {
                let (words_tag, allowed_tag, sens_tag) = row
                    .decode_into(dims, &mut words, &mut allowed, &mut sensitivities)
                    .expect("validated row decodes");
                histogram.count_word_row(words_tag);
                histogram.count_word_row(allowed_tag);
                match sens_tag {
                    F64_ROW_DENSE => histogram.sensitivities_dense += 1,
                    _ => histogram.sensitivities_based += 1,
                }
            }
        }
        histogram
    }
}

/// Rejects row dimensions past [`MAX_DIM`].
fn check_dims(state_words: u32, allowed_words: u32, field_count: u32) -> Result<(), SnapshotError> {
    for (what, dim) in [
        ("state words", state_words),
        ("allowed words", allowed_words),
        ("field count", field_count),
    ] {
        if dim > MAX_DIM {
            return Err(SnapshotError::Malformed {
                detail: format!("declared {what} dimension {dim} exceeds {MAX_DIM}"),
            });
        }
    }
    Ok(())
}

/// The payload a v3 snapshot and a delta share: the fingerprint, the
/// dimensions, each shard's index, entry count and entries, and the
/// pending alerts.
fn write_payload(
    encoder: &mut Encoder,
    fingerprint: u64,
    (state_words, allowed_words, field_count): RowDims,
    shards: &[ShardSnapshot],
    pending_alerts: &[Alert],
) {
    // Fixed header, then at most 20 varint bytes of shard framing per
    // shard; pending alerts are rare and may regrow the buffer.
    let bodies: usize = shards.iter().map(|shard| shard.body.len() + 20).sum();
    encoder.reserve(32 + bodies);
    encoder.u64(fingerprint);
    encoder.u32(state_words);
    encoder.u32(allowed_words);
    encoder.u32(field_count);
    encoder.varu(shards.len() as u64);
    for shard in shards {
        encoder.varu(u64::from(shard.shard));
        encoder.varu(shard.users as u64);
        encoder.raw(&shard.body);
    }
    encoder.varu(pending_alerts.len() as u64);
    for alert in pending_alerts {
        encoder.varu(alert.sequence());
        encoder.str_var(alert.user().as_str());
        encoder.u8(alert.level().index() as u8);
        encoder.str_var(alert.message());
    }
}

/// What [`read_payload`] decodes: the fingerprint, the dimensions, the
/// shards and the pending alerts.
type Payload = (u64, RowDims, Vec<ShardSnapshot>, Vec<Alert>);

/// Decodes the payload [`write_payload`] writes, decoding every row against
/// the declared dimensions. A delta's entries must also be spliceable: each
/// shard's users hash to it, in strictly ascending id order, and its shards
/// come in strictly ascending order.
fn read_payload(mut decoder: Decoder<'_>, delta: bool) -> Result<Payload, SnapshotError> {
    let fingerprint = decoder.u64()?;
    let state_words = decoder.u32()?;
    let allowed_words = decoder.u32()?;
    let field_count = decoder.u32()?;
    check_dims(state_words, allowed_words, field_count)?;
    let dims = (state_words, allowed_words, field_count);
    let shard_count = decoder.varu()? as usize;
    let mut shards: Vec<ShardSnapshot> = Vec::new();
    let mut words_scratch = Vec::new();
    let mut allowed_scratch = Vec::new();
    let mut sens_scratch = Vec::new();
    for _ in 0..shard_count {
        let shard = u32::try_from(decoder.varu()?).map_err(|_| SnapshotError::Malformed {
            detail: "shard index does not fit in 32 bits".into(),
        })?;
        if delta && shards.last().is_some_and(|last| last.shard >= shard) {
            return Err(SnapshotError::Malformed {
                detail: format!("delta shard {shard} is out of order"),
            });
        }
        let users = decoder.varu()? as usize;
        // Validate the shard's entries in place, then take them as one
        // body.
        let rest = decoder.remaining();
        let mut body_len = 0;
        let mut previous: Option<&str> = None;
        for _ in 0..users {
            let row = read_entry(rest, &mut body_len)?;
            if delta
                && (shard_of(row.user) != shard as usize
                    || previous.is_some_and(|previous| previous >= row.user))
            {
                return Err(SnapshotError::Malformed {
                    detail: format!(
                        "delta entry of user `{}` is out of order or not in shard {shard}",
                        row.user
                    ),
                });
            }
            previous = Some(row.user);
            row.decode_into(dims, &mut words_scratch, &mut allowed_scratch, &mut sens_scratch)?;
        }
        let body = Arc::new(decoder.raw(body_len)?.to_vec());
        shards.push(ShardSnapshot { shard, users, body });
    }
    let alert_count = decoder.varu()? as usize;
    let mut pending_alerts = Vec::new();
    for _ in 0..alert_count {
        let sequence = decoder.varu()?;
        let user = UserId::new(decoder.string_var()?);
        let level_index = decoder.u8()?;
        let level =
            RiskLevel::from_index(level_index as usize).ok_or(SnapshotError::Malformed {
                detail: format!("{level_index} is not a risk-level index"),
            })?;
        let message = decoder.string_var()?;
        pending_alerts.push(Alert::raise(sequence, user, level, message));
    }
    decoder.finish()?;
    Ok((fingerprint, dims, shards, pending_alerts))
}

/// The entries one capture changed since its monitor's previous capture,
/// with the pending alerts at the later capture — see
/// [`MonitorSnapshot::delta`] and [`MonitorSnapshot::apply`].
///
/// Its frame ([`DELTA_KIND`], version [`DELTA_VERSION`]) carries the v3
/// snapshot payload over the changed entries only: the index fingerprint
/// and row dimensions, per changed shard (ascending) its index, entry count
/// and entries in ascending id order, then every pending alert.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    pub(crate) fingerprint: u64,
    pub(crate) dims: RowDims,
    /// Changed shards, ascending; `users` counts the changed entries.
    pub(crate) shards: Vec<ShardSnapshot>,
    pub(crate) pending_alerts: Vec<Alert>,
}

impl SnapshotDelta {
    /// How many entries the delta carries.
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(ShardSnapshot::user_count).sum()
    }

    /// The alerts pending at the capture the delta leads to.
    pub fn pending_alerts(&self) -> &[Alert] {
        &self.pending_alerts
    }

    /// Serializes the delta as one framed, checksummed blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut encoder = Encoder::new(DELTA_KIND, DELTA_VERSION);
        self.write_payload(&mut encoder);
        encoder.finish()
    }

    /// Appends the delta to an enclosing frame as a nested blob: the bytes
    /// of `outer.bytes(&self.to_bytes())`, encoded in place.
    pub fn encode_nested(&self, outer: &mut Encoder) {
        outer.nested(DELTA_KIND, DELTA_VERSION, |encoder| self.write_payload(encoder));
    }

    fn write_payload(&self, encoder: &mut Encoder) {
        write_payload(encoder, self.fingerprint, self.dims, &self.shards, &self.pending_alerts);
    }

    /// Deserializes a delta, validating the frame and every entry, as
    /// [`MonitorSnapshot::from_bytes`] validates a snapshot's; each shard's
    /// entries must also hash to it, in strictly ascending id order, so a
    /// delta that decodes can be spliced.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Codec`] for a torn, corrupt or foreign frame;
    /// [`SnapshotError::Malformed`] for values no capture writes. Never
    /// panics on arbitrary input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SnapshotDelta, SnapshotError> {
        let decoder = Decoder::new(bytes, DELTA_KIND, DELTA_VERSION)?;
        let (fingerprint, dims, shards, pending_alerts) = read_payload(decoder, true)?;
        Ok(SnapshotDelta { fingerprint, dims, shards, pending_alerts })
    }
}

/// Rejects a decoded snapshot that persists some user more than once.
fn check_unique_users(shards: &[ShardSnapshot]) -> Result<(), SnapshotError> {
    let mut users: Vec<&str> =
        shards.iter().flat_map(|shard| shard.rows().map(|row| row.user)).collect();
    users.sort_unstable();
    if users.windows(2).any(|pair| pair[0] == pair[1]) {
        return Err(SnapshotError::Malformed {
            detail: "a user is persisted more than once".into(),
        });
    }
    Ok(())
}

/// How many stored rows chose each sparse encoding, across one snapshot.
/// Word rows (privacy state and allowed-actor bitsets) choose between
/// dense/indexed/runs; sensitivity rows between dense and base+exceptions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotEncodingHistogram {
    /// Word rows stored dense
    /// ([`U64_ROW_DENSE`](privacy_interchange::binary::U64_ROW_DENSE)).
    pub words_dense: usize,
    /// Word rows stored as index+word pairs ([`U64_ROW_INDEXED`]).
    pub words_indexed: usize,
    /// Word rows stored as bit-run lists ([`U64_ROW_RUNS`]).
    pub words_runs: usize,
    /// Sensitivity rows stored dense ([`F64_ROW_DENSE`]).
    pub sensitivities_dense: usize,
    /// Sensitivity rows stored as base+exceptions
    /// ([`F64_ROW_BASED`](privacy_interchange::binary::F64_ROW_BASED)).
    pub sensitivities_based: usize,
}

impl SnapshotEncodingHistogram {
    fn count_word_row(&mut self, tag: u8) {
        match tag {
            U64_ROW_INDEXED => self.words_indexed += 1,
            U64_ROW_RUNS => self.words_runs += 1,
            _ => self.words_dense += 1,
        }
    }
}

impl fmt::Display for MonitorSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "monitor snapshot: {} users over {} shards, {} pending alerts, index fingerprint \
             {:#018x}",
            self.user_count(),
            self.shards.len(),
            self.pending_alerts.len(),
            self.fingerprint
        )
    }
}

/// A typed failure while decoding or resuming a [`MonitorSnapshot`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The byte frame itself is unreadable: wrong magic/kind, an unsupported
    /// format version, truncation, a checksum mismatch or a malformed
    /// primitive.
    Codec(CodecError),
    /// The snapshot was taken against a different [`LtsIndex`]
    /// (different variable layout or interned vocabulary) — resuming would
    /// silently reinterpret every state bit.
    ///
    /// [`LtsIndex`]: privacy_lts::LtsIndex
    IndexMismatch {
        /// The fingerprint recorded in the snapshot.
        snapshot: u64,
        /// The fingerprint of the index offered at resume time.
        index: u64,
    },
    /// The frame decoded but carries values that cannot be valid monitor
    /// state.
    Malformed {
        /// What is impossible about the decoded state.
        detail: String,
    },
}

impl From<CodecError> for SnapshotError {
    fn from(error: CodecError) -> Self {
        SnapshotError::Codec(error)
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Codec(error) => write!(f, "unreadable snapshot frame: {error}"),
            SnapshotError::IndexMismatch { snapshot, index } => write!(
                f,
                "snapshot was taken against index {snapshot:#018x} but is being resumed against \
                 {index:#018x}; regenerate the snapshot or supply the original index"
            ),
            SnapshotError::Malformed { detail } => write!(f, "malformed snapshot: {detail}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SnapshotError::Codec(error) => Some(error),
            _ => None,
        }
    }
}
