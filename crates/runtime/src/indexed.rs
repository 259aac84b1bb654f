//! The index-backed streaming runtime monitor.
//!
//! [`IndexedMonitor`] is the high-throughput counterpart of the scan-path
//! [`RuntimeMonitor`](crate::monitor::RuntimeMonitor): instead of walking
//! every (actor, field) pair of the variable space per event with
//! string-keyed lookups, it is a thin probe over the shared
//! [`LtsIndex`] the design-time checkers already use —
//!
//! * every event is **resolved once** through the index's interners to dense
//!   actor/field indices, after which all per-user state updates are single
//!   bit operations at [`VarSpace::bit_at`](privacy_lts::VarSpace::bit_at)
//!   offsets (the same packed layout the LTS states use);
//! * the `(datastore, field) → readers` question the `create`/`anon`/
//!   `delete` rules ask of the access policy is resolved **once per model**
//!   into a dense table instead of once per event;
//! * per-user state is **sharded by `UserId` hash** over a fixed shard
//!   table, so [`IndexedMonitor::ingest_batch`] can fan a batch out over
//!   `crossbeam` scoped worker threads (only when
//!   [`IndexedMonitor::with_threads`] asks for them; by default it ingests
//!   on the calling thread) — every user's events stay on one
//!   shard in stream order, and alerts are re-merged by batch position, so
//!   the alert stream is identical for every thread count (and to the scan
//!   monitor; both equalities are pinned by differential property tests);
//! * a registered user who has seen no event is held **encoded**, as the
//!   v3 snapshot row the shard's capture cache keeps anyway, and decoded
//!   into a dense slot only at their first event or read — in a skewed
//!   population most users never see one, so registration, resident memory,
//!   the first capture and resume all cost about what the snapshot does.
//!
//! Alerts only fire for pairs that become **newly exposed** by an event;
//! since an event can only change the bits it resolves to, the monitor
//! inspects exactly those candidate pairs instead of sweeping the whole
//! space — that, plus the absence of a per-event state clone, is where the
//! throughput over the scan monitor comes from (see the `runtime_scaling`
//! bench and `docs/PERFORMANCE.md`).

use crate::event::Event;
use crate::monitor::Alert;
use crate::snapshot::{
    self, read_entry, MonitorSnapshot, RowView, ShardSnapshot, SnapshotDelta, SnapshotError,
};
use privacy_access::{AccessPolicy, Permission};
use privacy_lts::space::VarKind;
use privacy_lts::{ActionKind, FxHashMap, FxHashSet, FxHasher, LtsIndex, PrivacyState};
use privacy_model::{
    Catalog, Consent, DatastoreId, Interner, RiskLevel, Sensitivity, UserId, UserProfile,
};
use privacy_risk::{LikelihoodModel, RiskMatrix};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of user-state shards. Fixed (rather than derived from the thread
/// count) so users never migrate between shards when the ingestion
/// parallelism changes between batches; worker threads each own a contiguous
/// chunk of shards, and the distributed supervisor assigns contiguous shard
/// ranges to worker *processes*.
pub const SHARD_COUNT: usize = 32;

const SHARDS: usize = SHARD_COUNT;

/// The shard a user's state lives on: a stable hash of the user id alone,
/// independent of thread counts, process boundaries and registration order.
/// This is the unit of distribution — an event is routed wherever
/// `shard_of_user(event.user())` lives.
pub fn shard_of_user(user: &UserId) -> u32 {
    shard_of(user.as_str()) as u32
}

/// [`shard_of_user`] over the id's text (a `UserId` hashes as its string),
/// so a snapshot row routes without building a `UserId` first.
pub(crate) fn shard_of(user: &str) -> usize {
    let mut hasher = FxHasher::default();
    user.hash(&mut hasher);
    (hasher.finish() as usize) % SHARDS
}

/// Where the three rows of a [`UserSlot`] sit in its one allocation, in
/// `u64` words: the packed privacy state, then the allowed-actor bitset,
/// then one word per field sensitivity.
#[derive(Debug, Clone, Copy)]
struct SlotLayout {
    state_words: usize,
    allowed_words: usize,
    field_count: usize,
}

impl SlotLayout {
    fn of(index: &LtsIndex) -> Self {
        let space = index.space();
        SlotLayout {
            state_words: space.variable_count().div_ceil(64),
            allowed_words: space.actor_count().div_ceil(64),
            field_count: space.field_count(),
        }
    }

    fn len(self) -> usize {
        self.state_words + self.allowed_words + self.field_count
    }

    /// The row dimensions a snapshot of this layout declares: state words,
    /// allowed words, field count.
    fn dims(self) -> (u32, u32, u32) {
        (self.state_words as u32, self.allowed_words as u32, self.field_count as u32)
    }
}

/// One decoded user's monitor state: the packed privacy-state words plus
/// the per-user alert inputs, all resolved to dense indices and held in one
/// allocation laid out by [`SlotLayout`] — one pointer to chase per event.
/// Only users that have seen an event (or are about to) hold one; everyone
/// else stays an encoded row in their shard's [`RowCache`].
#[derive(Debug, Clone)]
struct UserSlot {
    /// Packed privacy-state bits in [`VarSpace`](privacy_lts::VarSpace)
    /// layout; a bitset over space actor indices of the user's allowed
    /// actors; per space field index, the bits of the user's raw
    /// sensitivity `σ(d)`.
    data: Box<[u64]>,
    /// The [`RowCache::generation`] in which this row was last marked
    /// changed; [`UNMARKED`] for a slot never marked.
    changed_in: u64,
}

/// The `changed_in` of a slot that no capture generation has marked.
const UNMARKED: u64 = u64::MAX;

impl UserSlot {
    /// A slot with an all-clear state; `allowed` and `sensitivities` fill
    /// the rest of the layout.
    fn new(layout: SlotLayout, allowed: &[u64], sensitivities: impl Iterator<Item = f64>) -> Self {
        let mut data = Vec::with_capacity(layout.len());
        data.resize(layout.state_words, 0);
        data.extend_from_slice(allowed);
        data.extend(sensitivities.map(f64::to_bits));
        debug_assert_eq!(data.len(), layout.len());
        UserSlot { data: data.into_boxed_slice(), changed_in: UNMARKED }
    }

    /// The slot a stored row decodes to, through `scratch`, so the slot's
    /// own allocation is the only one. Stored rows were validated when
    /// they were encoded or decoded from bytes, so decoding cannot fail.
    fn decode(layout: SlotLayout, row: RowView<'_>, scratch: &mut DecodeScratch) -> Self {
        let DecodeScratch { words, allowed, sensitivities } = scratch;
        row.decode_into(layout.dims(), words, allowed, sensitivities)
            .expect("stored rows are validated");
        let mut data = Vec::with_capacity(layout.len());
        data.extend_from_slice(words);
        data.extend_from_slice(allowed);
        data.extend(sensitivities.iter().map(|value| value.to_bits()));
        UserSlot { data: data.into_boxed_slice(), changed_in: UNMARKED }
    }

    /// State bits come first in `data`, so a state bit index addresses it
    /// directly.
    #[inline]
    fn get_bit(&self, bit: usize) -> bool {
        (self.data[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Sets a state bit, returning whether it flipped.
    #[inline]
    fn set_bit(&mut self, bit: usize) -> bool {
        let word = &mut self.data[bit / 64];
        let before = *word;
        *word |= 1u64 << (bit % 64);
        *word != before
    }

    /// Clears a state bit, returning whether it flipped.
    #[inline]
    fn clear_bit(&mut self, bit: usize) -> bool {
        let word = &mut self.data[bit / 64];
        let before = *word;
        *word &= !(1u64 << (bit % 64));
        *word != before
    }

    fn words(&self, layout: SlotLayout) -> &[u64] {
        &self.data[..layout.state_words]
    }

    fn allowed(&self, layout: SlotLayout) -> &[u64] {
        &self.data[layout.state_words..layout.state_words + layout.allowed_words]
    }

    fn sensitivities(&self, layout: SlotLayout) -> impl Iterator<Item = f64> + '_ {
        self.data[layout.state_words + layout.allowed_words..]
            .iter()
            .map(|&bits| f64::from_bits(bits))
    }

    #[inline]
    fn actor_allowed(&self, layout: SlotLayout, actor: usize) -> bool {
        (self.data[layout.state_words + actor / 64] >> (actor % 64)) & 1 == 1
    }

    #[inline]
    fn sensitivity(&self, layout: SlotLayout, field: usize) -> Sensitivity {
        // Stored from a valid `Sensitivity` (or a snapshot row validated to
        // [0, 1]), so clamping never changes the value.
        Sensitivity::clamped(f64::from_bits(
            self.data[layout.state_words + layout.allowed_words + field],
        ))
    }
}

/// A shard's decoded users.
type Slots = FxHashMap<UserId, UserSlot>;

/// The buffers a row decodes through on its way into a slot.
#[derive(Debug, Clone, Default)]
struct DecodeScratch {
    words: Vec<u64>,
    allowed: Vec<u64>,
    sensitivities: Vec<f64>,
}

/// Where the row of a user who holds no slot is stored: the start of their
/// pending entry, or of their body entry.
#[derive(Debug, Clone, Copy)]
enum Stored {
    Pending(u32),
    Body(u32),
}

/// Pending entries past this many are folded into the body before a
/// lookup that may find one of them; up to it, such a lookup scans them. A
/// bulk registration thus costs one sort-and-copy per shard, and
/// registrations interleaved with lookups of their own users at most one
/// body copy per this many ([`RowCache::pending_users`] keeps lookups of
/// other users from folding).
const PENDING_SCAN: usize = 16;

/// A shard's encoded rows — the v3 entry of every registered user, except
/// that a user held in a slot may have moved on from it — and which slots
/// have changed since. A capture re-encodes only those slots, splices them
/// and the pending entries into the body, and copies the rest.
///
/// A user's current row is, in order of precedence: their slot, their
/// last pending entry, their body entry.
#[derive(Debug, Clone, Default)]
struct RowCache {
    /// Entries sorted by user id in the v3 shard-body layout: the previous
    /// capture's body, or a snapshot's body adopted on resume. A capture
    /// shares it; every rebuild replaces it rather than modifying it.
    body: Arc<Vec<u8>>,
    /// Where each entry of `body` starts, in body (user id) order: the
    /// index lookups and splices binary-search.
    offsets: Vec<u32>,
    /// Entries registered or restored since `body` was rebuilt, back to
    /// back in arrival order.
    pending: Vec<u8>,
    /// Where each entry of `pending` starts.
    pending_starts: Vec<u32>,
    /// The [`id_hash`] of every user with a pending entry, kept once a
    /// lookup has folded since the last rebuild — that is, once lookups
    /// interleave with registrations, as the is-registered check before
    /// each one does — so a lookup of anyone else neither scans nor folds.
    /// `None` until then, so a bulk registration builds no set.
    pending_users: Option<FxHashSet<u64>>,
    /// The slot users whose rows may differ from `body` — a state bit
    /// flipped, the slot was (re-)registered or decoded from a pending
    /// entry — each listed once. Every slot user without a body entry is
    /// listed.
    marked: Vec<UserId>,
    /// Bumped by every capture. A slot whose `changed_in` equals it is
    /// already in `marked`.
    generation: u64,
    /// The users whose pending entries were folded into `body` since the
    /// last capture, as entries with empty rows: the next capture's delta
    /// must carry them too. Kept only once the cache has been captured,
    /// since a first capture has no delta.
    folded: Vec<u8>,
    decoding: DecodeScratch,
}

/// One entry headed into a rebuilt body: the user id and the entry's
/// bytes.
pub(crate) type FreshEntry<'a> = (&'a str, &'a [u8]);

/// The entries a shard's capture changed since the previous capture, back
/// to back in id order, and how many there are.
type Changed = (Vec<u8>, usize);

impl RowCache {
    /// Records that `user`'s slot may differ from `body`.
    fn mark(&mut self, user: &UserId, slot: &mut UserSlot) {
        if slot.changed_in != self.generation {
            slot.changed_in = self.generation;
            self.marked.push(user.clone());
        }
    }

    /// Appends a pending entry for `user`, superseding any earlier row.
    fn push_entry(&mut self, user: &str, row: &[u8]) {
        self.pending_starts.push(body_offset(self.pending.len()));
        if let Some(users) = &mut self.pending_users {
            users.insert(id_hash(user));
        }
        snapshot::put_entry(&mut self.pending, user, row);
    }

    /// The position in `offsets` of `user`'s body entry, by binary search.
    fn body_position(&self, user: &str) -> Option<usize> {
        let user = user.as_bytes();
        let at = self.offsets.partition_point(|&offset| entry_user(&self.body, offset) < user);
        self.offsets
            .get(at)
            .is_some_and(|&offset| entry_user(&self.body, offset) == user)
            .then_some(at)
    }

    /// Where the row of a user who holds no slot is: their last pending
    /// entry, else their body entry.
    fn locate(&mut self, user: &str, slots: &Slots) -> Option<Stored> {
        let maybe_pending = match &self.pending_users {
            Some(users) => users.contains(&id_hash(user)),
            None => !self.pending_starts.is_empty(),
        };
        if maybe_pending {
            if self.pending_starts.len() > PENDING_SCAN {
                self.fold(slots);
                self.pending_users = Some(FxHashSet::default());
            } else if let Some(&start) = self
                .pending_starts
                .iter()
                .rev()
                .find(|&&start| entry_at(&self.pending, start).user == user)
            {
                return Some(Stored::Pending(start));
            }
        }
        self.body_position(user).map(|at| Stored::Body(self.offsets[at]))
    }

    /// The stored row at `at`, decoded into a slot.
    fn decode(&mut self, at: Stored, layout: SlotLayout) -> UserSlot {
        let row = match at {
            Stored::Pending(start) => entry_at(&self.pending, start),
            Stored::Body(offset) => entry_at(&self.body, offset),
        };
        UserSlot::decode(layout, row, &mut self.decoding)
    }

    /// The pending entries a rebuild takes, sorted by user: each user's
    /// last, and none for a user held in a slot (the slot supersedes it
    /// and is marked).
    fn pending_entries(&self, slots: &Slots) -> Vec<FreshEntry<'_>> {
        let mut entries: Vec<FreshEntry<'_>> = self
            .pending_starts
            .iter()
            .enumerate()
            .map(|(i, &start)| {
                let end =
                    self.pending_starts.get(i + 1).map_or(self.pending.len(), |&e| e as usize);
                (entry_at(&self.pending, start).user, &self.pending[start as usize..end])
            })
            .filter(|&(user, _)| !slots.contains_key(user))
            .collect();
        // Ties break by position in `pending`, which is arrival order, so
        // each user's last entry is kept.
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0).then(a.1.as_ptr().cmp(&b.1.as_ptr())));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                *kept = *later;
            }
            same
        });
        entries
    }

    /// Moves the pending entries into the body, where a binary search
    /// finds them. Entries whose users now hold slots are only dropped.
    fn fold(&mut self, slots: &Slots) {
        if self.pending_starts.is_empty() {
            return;
        }
        let fresh = self.pending_entries(slots);
        if fresh.is_empty() {
            self.clear_pending();
            return;
        }
        let mut folded = Vec::new();
        if self.generation > 0 {
            for &(user, _) in &fresh {
                snapshot::put_entry(&mut folded, user, &[]);
            }
        }
        let (body, offsets) = splice(&self.body, &self.offsets, &fresh);
        self.folded.extend_from_slice(&folded);
        self.install(Arc::new(body), offsets);
    }

    /// Replaces the body and drops the pending entries it now holds.
    fn install(&mut self, body: Arc<Vec<u8>>, offsets: Vec<u32>) {
        self.body = body;
        self.offsets = offsets;
        self.clear_pending();
    }

    fn clear_pending(&mut self) {
        // Freed rather than kept: a bulk registration's buffers are as
        // large as the rows they held.
        self.pending = Vec::new();
        self.pending_starts = Vec::new();
        self.pending_users = None;
    }

    /// The shard's snapshot body: the previous body with the marked slots
    /// re-encoded and the pending entries spliced in — byte-identical to
    /// encoding every row afresh, with no allocation per user and only the
    /// marked and pending rows visited. Unless this is the cache's first
    /// capture, also the entries that differ from the previous capture's
    /// body: the spliced ones and those folded in since.
    fn capture(
        &mut self,
        slots: &Slots,
        layout: SlotLayout,
        scratch: &mut RowScratch,
    ) -> (Arc<Vec<u8>>, Option<Changed>) {
        let dirty = !self.marked.is_empty() || !self.pending_starts.is_empty();
        let mut fresh = Vec::new();
        if dirty {
            let changed = self
                .marked
                .iter()
                .map(|user| (user, slots.get(user).expect("marked users hold slots")));
            let encoded = encode_rows(changed, layout, scratch);
            fresh = self.pending_entries(slots);
            fresh
                .extend(encoded.iter().map(|&(user, from, to)| (user, &scratch.entries[from..to])));
            fresh.sort_unstable_by(|a, b| a.0.cmp(b.0));
        }
        let changed = (self.generation > 0).then(|| self.changed_entries(&fresh));
        if dirty {
            let (body, offsets) = splice(&self.body, &self.offsets, &fresh);
            self.install(Arc::new(body), offsets);
            self.marked.clear();
        }
        self.folded.clear();
        self.generation += 1;
        (Arc::clone(&self.body), changed)
    }

    /// The entries of the body `fresh` is about to be spliced into, for
    /// every user in `fresh` or folded in since the last capture: a fresh
    /// entry where there is one, else the user's body entry, which the
    /// splice leaves as it is.
    fn changed_entries(&self, fresh: &[FreshEntry<'_>]) -> Changed {
        let mut entries = fresh.to_vec();
        let mut offset = 0;
        while offset < self.folded.len() {
            let user =
                read_entry(&self.folded, &mut offset).expect("folded users are entries").user;
            let at = self.body_position(user).expect("folded users have body entries");
            let end = self.offsets.get(at + 1).map_or(self.body.len(), |&end| end as usize);
            entries.push((user, &self.body[self.offsets[at] as usize..end]));
        }
        // Stable, so of a user's entries the fresh one, listed first, is
        // the one kept.
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.dedup_by(|later, kept| later.0 == kept.0);
        let mut bytes = Vec::with_capacity(entries.iter().map(|&(_, entry)| entry.len()).sum());
        for &(_, entry) in &entries {
            bytes.extend_from_slice(entry);
        }
        (bytes, entries.len())
    }
}

/// The hash [`RowCache::pending_users`] keeps of a user id.
fn id_hash(user: &str) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(user.as_bytes());
    hasher.finish()
}

/// The entry starting at `start` of a validated body or pending buffer.
fn entry_at(bytes: &[u8], start: u32) -> RowView<'_> {
    read_entry(bytes, &mut (start as usize)).expect("stored entries are validated")
}

/// The user-id bytes of the entry starting at `offset` of a validated body.
fn entry_user(body: &[u8], offset: u32) -> &[u8] {
    snapshot::entry_user(body, offset as usize)
}

/// One hash shard of the per-user state table.
#[derive(Debug, Default)]
struct Shard {
    slots: Slots,
    /// Behind a lock so reads through `&self` ([`IndexedMonitor::snapshot`],
    /// `state_of`, `is_registered`) can fold pending entries; the mutating paths reach it with `Mutex::get_mut`, which never
    /// locks.
    rows: Mutex<RowCache>,
}

impl Clone for Shard {
    fn clone(&self) -> Self {
        Shard { slots: self.slots.clone(), rows: Mutex::new(self.rows().clone()) }
    }
}

/// Reusable buffers for encoding rows during one capture.
#[derive(Debug, Clone, Default)]
struct RowScratch {
    sensitivities: Vec<f64>,
    row: Vec<u8>,
    /// The re-encoded entries of the shard being captured, back to back in
    /// the order their slots were visited.
    entries: Vec<u8>,
}

impl Shard {
    /// The row cache of a shard being mutated. Poisoning is recovered
    /// from here and in [`Shard::rows`]: a rebuild installs its new body
    /// only once it exists, so a panic mid-rebuild leaves the previous,
    /// consistent cache.
    fn rows_mut(&mut self) -> &mut RowCache {
        self.rows.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    fn rows(&self) -> MutexGuard<'_, RowCache> {
        self.rows.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the shard holds no user at all.
    fn is_empty(&mut self) -> bool {
        let rows = self.rows_mut();
        rows.offsets.is_empty() && rows.pending_starts.is_empty() && self.slots.is_empty()
    }

    /// Replaces the slot `user` holds, marking the row changed.
    fn replace_slot(&mut self, user: &UserId, mut slot: UserSlot) {
        let rows = self.rows.get_mut().unwrap_or_else(PoisonError::into_inner);
        let held = self.slots.get_mut(user).expect("the user holds a slot");
        // A row already marked this generation stays listed once.
        slot.changed_in = held.changed_in;
        rows.mark(user, &mut slot);
        *held = slot;
    }

    /// Decodes `user`'s row into a slot unless they hold one; `false` when
    /// they are not registered here.
    fn activate(&mut self, user: &UserId, layout: SlotLayout) -> bool {
        if self.slots.contains_key(user) {
            return true;
        }
        let rows = self.rows.get_mut().unwrap_or_else(PoisonError::into_inner);
        let Some(at) = rows.locate(user.as_str(), &self.slots) else {
            return false;
        };
        let mut slot = rows.decode(at, layout);
        // A slot decoded from a pending entry has no body entry to match.
        if matches!(at, Stored::Pending(_)) {
            rows.mark(user, &mut slot);
        }
        self.slots.insert(user.clone(), slot);
        true
    }

    /// Whether `user` is registered here.
    fn contains(&self, user: &UserId) -> bool {
        self.slots.contains_key(user) || self.rows().locate(user.as_str(), &self.slots).is_some()
    }

    /// A registered user's privacy-state words.
    fn state_words(&self, user: &UserId, layout: SlotLayout) -> Option<Vec<u64>> {
        if let Some(slot) = self.slots.get(user) {
            return Some(slot.words(layout).to_vec());
        }
        let mut rows = self.rows();
        let at = rows.locate(user.as_str(), &self.slots)?;
        Some(rows.decode(at, layout).words(layout).to_vec())
    }

    /// The number of registered users: the body's entries once the pending
    /// ones are folded in, plus the slot users that have none.
    fn user_count(&self) -> usize {
        let mut rows = self.rows();
        rows.fold(&self.slots);
        let unbodied =
            rows.marked.iter().filter(|user| rows.body_position(user.as_str()).is_none()).count();
        rows.offsets.len() + unbodied
    }

    /// The shard's snapshot body and changed entries (see
    /// [`RowCache::capture`]), its user count and the capture's ordinal.
    fn capture(&self, layout: SlotLayout, scratch: &mut RowScratch) -> ShardCapture {
        let mut rows = self.rows();
        let (body, changed) = rows.capture(&self.slots, layout, scratch);
        ShardCapture { body, users: rows.offsets.len(), changed, ordinal: rows.generation }
    }
}

/// What [`Shard::capture`] returns.
struct ShardCapture {
    body: Arc<Vec<u8>>,
    users: usize,
    changed: Option<Changed>,
    /// Which capture of the shard this is, from 1. Every capture visits
    /// every shard, so all of a monitor's shards agree on it.
    ordinal: u64,
}

/// Encodes the rows of `users` into `scratch.entries` in the order given
/// — visiting slots in table order, not id order — and returns each
/// entry's user and byte range.
fn encode_rows<'a>(
    users: impl Iterator<Item = (&'a UserId, &'a UserSlot)>,
    layout: SlotLayout,
    scratch: &mut RowScratch,
) -> Vec<(&'a str, usize, usize)> {
    let RowScratch { sensitivities, row, entries } = scratch;
    entries.clear();
    users
        .map(|(user, slot)| {
            let start = entries.len();
            sensitivities.clear();
            sensitivities.extend(slot.sensitivities(layout));
            snapshot::encode_row(row, slot.words(layout), slot.allowed(layout), sensitivities);
            snapshot::put_entry(entries, user.as_str(), row);
            (user.as_str(), start, entries.len())
        })
        .collect()
}

/// The entry offsets of a snapshot shard body the shard `shard` can adopt
/// as its own: every user hashes to `shard`, in strictly ascending id
/// order. `None` for any other body.
pub(crate) fn adoptable_offsets(body: &[u8], shard: usize) -> Option<Vec<u32>> {
    let mut offsets = Vec::new();
    let mut offset = 0;
    let mut previous: Option<&str> = None;
    while offset < body.len() {
        let start = offset;
        let row = read_entry(body, &mut offset).ok()?;
        if shard_of(row.user) != shard || previous.is_some_and(|previous| previous >= row.user) {
            return None;
        }
        previous = Some(row.user);
        offsets.push(body_offset(start));
    }
    Some(offsets)
}

/// Merges `fresh` entries (sorted by user, unique) into a previous shard
/// body (sorted by user, entry `i` starting at `offsets[i]`): a fresh entry
/// replaces the previous entry of the same user, and the previous entries
/// between two fresh ones are copied as one run. Each fresh user's position
/// is found by binary search over `offsets`, so the work beyond the bulk
/// copies is logarithmic per fresh entry plus one shifted offset per copied
/// entry. Returns the new body and its offset index.
pub(crate) fn splice(
    previous: &[u8],
    offsets: &[u32],
    fresh: &[FreshEntry<'_>],
) -> (Vec<u8>, Vec<u32>) {
    let fresh_len: usize = fresh.iter().map(|&(_, entry)| entry.len()).sum();
    let mut body = Vec::with_capacity(previous.len() + fresh_len);
    let mut index = Vec::with_capacity(offsets.len() + fresh.len());
    let user_at = |offset: u32| entry_user(previous, offset);
    // Copies previous entries `from..to` verbatim, shifting their offsets.
    let copy_run = |from: usize, to: usize, body: &mut Vec<u8>, index: &mut Vec<u32>| {
        if from == to {
            return;
        }
        let start = offsets[from];
        let end = offsets.get(to).map_or(previous.len(), |&end| end as usize);
        let base = body_offset(body.len());
        index.extend(offsets[from..to].iter().map(|&offset| offset - start + base));
        body.extend_from_slice(&previous[start as usize..end]);
    };
    // Previous entries before `next` are already in `body` or replaced.
    let mut next = 0;
    for &(user, entry) in fresh {
        let user = user.as_bytes();
        let at = next + offsets[next..].partition_point(|&offset| user_at(offset) < user);
        copy_run(next, at, &mut body, &mut index);
        index.push(body_offset(body.len()));
        body.extend_from_slice(entry);
        next = if offsets.get(at).is_some_and(|&offset| user_at(offset) == user) {
            at + 1
        } else {
            at
        };
    }
    copy_run(next, offsets.len(), &mut body, &mut index);
    (body, index)
}

/// A shard-body position as [`RowCache::offsets`] stores it.
fn body_offset(position: usize) -> u32 {
    u32::try_from(position).expect("a shard body stays under 4 GiB")
}

/// What registration reuses across users: each distinct consent's
/// allowed-actor bitset, resolved against the catalog once, and the
/// buffers a registered row is built in.
#[derive(Debug, Clone, Default)]
struct Registry {
    allowed: FxHashMap<Consent, Box<[u64]>>,
    zeros: Vec<u64>,
    sensitivities: Vec<f64>,
    row: Vec<u8>,
}

/// The buffers [`IndexedMonitor::ingest_batch`] and
/// [`IndexedMonitor::observe`] reuse from call to call, so a warm event
/// allocates only the alerts it raises.
#[derive(Debug, Clone, Default)]
struct IngestScratch {
    /// Per shard, the batch positions of its permitted events.
    buckets: Vec<Vec<u32>>,
    /// The calling thread's replay buffers.
    replay: ReplayScratch,
}

/// What one thread replaying events writes to.
#[derive(Debug, Clone, Default)]
struct ReplayScratch {
    /// The `(actor, field)` pairs of the event being applied.
    pairs: Vec<(u32, u32)>,
    /// Raised alerts keyed by `(batch position, arrival)`: the key is
    /// unique, so an unstable sort restores stream order, and alerts of
    /// one event keep their order.
    tagged: Vec<((u32, u32), Alert)>,
}

/// The read-only context a batch's worker threads share.
struct Ctx<'a> {
    index: &'a LtsIndex,
    policy: &'a AccessPolicy,
    stores: &'a Interner<DatastoreId>,
    readers: &'a [Vec<u32>],
    matrix: &'a RiskMatrix,
    likelihood: &'a LikelihoodModel,
    threshold: RiskLevel,
    actor_count: usize,
    field_count: usize,
    layout: SlotLayout,
}

/// The index-backed streaming runtime monitor. See the module docs; the
/// observable behaviour (which alerts, in which order, with which messages)
/// is identical to [`RuntimeMonitor`](crate::monitor::RuntimeMonitor).
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
///     IndexedMonitor::new(system.catalog().clone(), system.policy().clone(), index);
/// monitor.register_user(&casestudy::case_a_user());
/// assert_eq!(monitor.user_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IndexedMonitor {
    index: Arc<LtsIndex>,
    catalog: Catalog,
    policy: AccessPolicy,
    matrix: RiskMatrix,
    likelihood: LikelihoodModel,
    alert_threshold: RiskLevel,
    /// The per-batch fan-out; `None` ingests on the calling thread.
    threads: Option<usize>,
    /// Interned datastore ids of the catalog's stores.
    stores: Interner<DatastoreId>,
    /// `(store_idx * field_count + field_idx) → space actor indices` with
    /// read access — the policy question the `create`/`anon`/`delete` rules
    /// ask, resolved once instead of once per event.
    readers: Vec<Vec<u32>>,
    layout: SlotLayout,
    registry: Registry,
    shards: Vec<Shard>,
    scratch: IngestScratch,
    alerts: Vec<Alert>,
}

impl IndexedMonitor {
    /// Creates a monitor probing the given shared analysis index, with the
    /// standard risk matrix and likelihood model. The index should be built
    /// from the LTS generated for `catalog`'s model, so its variable space
    /// and interners describe the same actors and fields the events carry.
    pub fn new(catalog: Catalog, policy: AccessPolicy, index: Arc<LtsIndex>) -> Self {
        let space = index.space();
        let mut stores = Interner::new();
        let mut readers = Vec::new();
        for datastore in catalog.datastores() {
            stores.intern(datastore.id().clone());
            for field in space.fields() {
                readers.push(
                    policy
                        .actors_with(Permission::Read, datastore.id(), field)
                        .iter()
                        .filter_map(|actor| index.actor_index(actor))
                        .filter(|&a| (a as usize) < space.actor_count())
                        .collect(),
                );
            }
        }
        let layout = SlotLayout::of(&index);
        IndexedMonitor {
            index,
            catalog,
            policy,
            matrix: RiskMatrix::standard(),
            likelihood: LikelihoodModel::standard(),
            alert_threshold: RiskLevel::Medium,
            threads: None,
            stores,
            readers,
            layout,
            registry: Registry::default(),
            shards: vec![Shard::default(); SHARDS],
            scratch: IngestScratch::default(),
            alerts: Vec::new(),
        }
    }

    /// Builder-style: only raise alerts at or above this level (default
    /// Medium).
    pub fn with_alert_threshold(mut self, threshold: RiskLevel) -> Self {
        self.alert_threshold = threshold;
        self
    }

    /// Builder-style: overrides the risk matrix.
    pub fn with_matrix(mut self, matrix: RiskMatrix) -> Self {
        self.matrix = matrix;
        self
    }

    /// Builder-style: overrides the likelihood model.
    pub fn with_likelihood(mut self, likelihood: LikelihoodModel) -> Self {
        self.likelihood = likelihood;
        self
    }

    /// Builder-style: worker threads per [`IndexedMonitor::ingest_batch`]
    /// call (`None`, the default, ingests on the calling thread; see
    /// [`privacy_lts::batch::fan_out`]). The alert stream is identical for
    /// every count.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// The shared analysis index the monitor probes.
    pub fn index(&self) -> &LtsIndex {
        &self.index
    }

    /// Registers a user so their privacy state is tracked, or re-registers
    /// one, resetting their state. The profile's consent and sensitivities
    /// are resolved to dense per-space tables once, here, never per event;
    /// the allowed-actor bitset once per distinct consent.
    ///
    /// A user who has seen no event is held as their encoded snapshot row,
    /// a fraction of a decoded user's memory, and decoded at their first
    /// event. Registration appends the row to the shard's pending
    /// entries, which the next capture (or a lookup of one of them) sorts
    /// and splices into the shard's encoded body; a user already decoded
    /// is reset in their slot.
    pub fn register_user(&mut self, profile: &UserProfile) {
        let user = profile.id();
        let shard = &mut self.shards[shard_of(user.as_str())];
        let registry = self.registry.resolve(&self.catalog, &self.index, profile);
        let allowed = &registry.allowed[profile.consent()];
        if shard.slots.contains_key(user) {
            let slot = UserSlot::new(self.layout, allowed, registry.sensitivities.iter().copied());
            shard.replace_slot(user, slot);
            return;
        }
        registry.zeros.resize(self.layout.state_words, 0);
        snapshot::encode_row(&mut registry.row, &registry.zeros, allowed, &registry.sensitivities);
        shard.rows_mut().push_entry(user.as_str(), &registry.row);
    }

    /// The current privacy state of a registered user.
    pub fn state_of(&self, user: &UserId) -> Option<PrivacyState> {
        self.shards[shard_of(user.as_str())]
            .state_words(user, self.layout)
            .map(|words| PrivacyState::from_words(words, self.index.space().variable_count()))
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.shards.iter().map(Shard::user_count).sum()
    }

    /// The alerts raised so far (and not yet drained), in stream order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The undrained alerts concerning one user.
    pub fn alerts_for(&self, user: &UserId) -> Vec<&Alert> {
        self.alerts.iter().filter(|a| a.user() == user).collect()
    }

    /// Takes every accumulated alert out of the monitor, leaving it empty —
    /// the hand-off point for a downstream consumer between batches.
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts)
    }

    /// Captures the monitor's accumulated state — per-user privacy-state
    /// word rows (with the registration-time resolved allowed-actor bitsets
    /// and sensitivities) and the not-yet-drained alerts — as a versioned
    /// [`MonitorSnapshot`] keyed on the index's fingerprint. Users are
    /// grouped by shard and sorted by id within each shard, so the snapshot
    /// is identical whatever thread count produced the state.
    ///
    /// Capture is incremental: each shard keeps its users' encoded rows as
    /// one body sorted by id, with an index of where each entry starts, and
    /// ingestion lists the users whose state bits actually flip. A capture
    /// visits and re-encodes only those rows, sorts the rows registered
    /// since the last capture (encoded at registration), finds each one's
    /// place in the body by binary search, and copies the runs between them
    /// in bulk (an unchanged shard is shared, not even copied). No capture,
    /// the first included, encodes a user who has seen no event. The bytes
    /// equal encoding every row afresh.
    ///
    /// The snapshot shares its shard bodies with the monitor through `Arc`s
    /// that later captures replace rather than modify, so it never changes
    /// after it is taken: it can be encoded on another thread while the
    /// monitor keeps ingesting.
    ///
    /// Every capture but the monitor's first also carries its
    /// [`MonitorSnapshot::delta`]: the entries whose bytes differ from the
    /// previous capture's — those it re-encoded or spliced in, and those
    /// registered and folded into a body since — numbered by
    /// [`MonitorSnapshot::ordinal`], so a checkpoint writer can persist
    /// only what changed.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let mut scratch = RowScratch::default();
        let mut shards = Vec::new();
        let mut changes = Some(Vec::new());
        let mut ordinal = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            let capture = shard.capture(self.layout, &mut scratch);
            ordinal = capture.ordinal;
            let shard = i as u32;
            match (&mut changes, capture.changed) {
                (Some(changes), Some((body, users))) if users > 0 => {
                    changes.push(ShardSnapshot { shard, users, body: Arc::new(body) });
                }
                (_, None) => changes = None,
                _ => {}
            }
            if capture.users > 0 {
                shards.push(ShardSnapshot { shard, users: capture.users, body: capture.body });
            }
        }
        let fingerprint = self.index.fingerprint();
        let dims = self.layout.dims();
        let delta = changes.map(|shards| SnapshotDelta {
            fingerprint,
            dims,
            shards,
            pending_alerts: self.alerts.clone(),
        });
        let (state_words, allowed_words, field_count) = dims;
        MonitorSnapshot {
            fingerprint,
            state_words,
            allowed_words,
            field_count,
            shards,
            pending_alerts: self.alerts.clone(),
            ordinal,
            delta,
        }
    }

    /// Reconstructs a monitor from the model artefacts plus a snapshot: the
    /// restart path. The catalog, policy and index are the same design-time
    /// inputs [`IndexedMonitor::new`] takes (they are *not* persisted — the
    /// snapshot carries only runtime-accumulated state); every user's shard
    /// is re-derived from their id, so a snapshot exported at one thread
    /// count rehydrates at any other. Ingesting the stream suffix after a
    /// resume yields exactly the alerts and states an uninterrupted run
    /// would have produced (pinned by the recovery property tests).
    ///
    /// The snapshot's shard bodies become the monitor's encoded rows as
    /// they are, shared rather than copied: no row is decoded until its
    /// user sees an event or is read. A body whose rows are not its shard's
    /// own in id order is taken in row by row, each routed by its user's id.
    ///
    /// **Monitor configuration is not persisted either**: like the catalog
    /// and policy, the alert threshold, risk matrix, likelihood model and
    /// thread count are construction-time inputs, and the resumed monitor
    /// starts from their defaults. A monitor that ran with non-default
    /// configuration must have the same builders re-applied after the
    /// resume (they only affect how *future* events alert, never the
    /// restored state, so applying them post-resume is exact — pinned by
    /// `resuming_with_reapplied_configuration_matches_uninterrupted_run`):
    ///
    /// ```ignore
    /// let monitor = IndexedMonitor::resume_from(catalog, policy, index, &snapshot)?
    ///     .with_alert_threshold(RiskLevel::Low) // same config as the first life
    ///     .with_threads(Some(2));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::IndexMismatch`] when the snapshot was taken
    /// against an index with a different fingerprint (different variable
    /// layout or vocabulary — the word rows would be reinterpreted), and
    /// [`SnapshotError::Malformed`] when the snapshot's dimensions cannot
    /// describe this index's space.
    pub fn resume_from(
        catalog: Catalog,
        policy: AccessPolicy,
        index: Arc<LtsIndex>,
        snapshot: &MonitorSnapshot,
    ) -> Result<IndexedMonitor, SnapshotError> {
        check_snapshot_compat(&index, snapshot)?;
        let mut monitor = IndexedMonitor::new(catalog, policy, index);
        for part in &snapshot.shards {
            let index = part.shard as usize;
            if let Some(shard) = monitor.shards.get_mut(index) {
                if shard.is_empty() {
                    if let Some(offsets) = adoptable_offsets(&part.body, index) {
                        shard.rows_mut().install(Arc::clone(&part.body), offsets);
                        continue;
                    }
                }
            }
            // The snapshot persists each user once and a fresh monitor
            // holds no slot, so every row becomes a pending entry.
            for row in part.rows() {
                monitor.shards[shard_of(row.user)].rows_mut().push_entry(row.user, row.encoded);
            }
        }
        monitor.alerts = snapshot.pending_alerts.clone();
        Ok(monitor)
    }

    /// Whether a user is currently registered (tracked) by this monitor.
    pub fn is_registered(&self, user: &UserId) -> bool {
        self.shards[shard_of(user.as_str())].contains(user)
    }

    /// [`IndexedMonitor::is_registered`] for a caller about to hand in the
    /// user's events, such as a sink that registers the users it does not
    /// know first: a registered user still held encoded is decoded now, as
    /// their first event would decode them, so their row is looked up once
    /// rather than twice. On `live_stream`, where a pass first-touches
    /// about 32,000 users, the sink's check read 242 k events/s this way
    /// against 211 k through `is_registered` (medians of five runs on a
    /// 2-vCPU host).
    pub fn activate(&mut self, user: &UserId) -> bool {
        self.shards[shard_of(user.as_str())].activate(user, self.layout)
    }

    /// Consumes one event. Behaviourally equivalent to a one-event
    /// [`IndexedMonitor::ingest_batch`], but skips the batch machinery
    /// (bucket table, fan-out, merge sort) entirely: the streaming path
    /// resolves the user's shard and processes in place. Returns the alerts
    /// it raised, as [`IndexedMonitor::ingest_batch`] does.
    pub fn observe(&mut self, event: &Event) -> &[Alert] {
        let raised_from = self.alerts.len();
        if event.permitted() {
            let (ctx, shards, scratch) = self.split_context();
            let shard = &mut shards[shard_of(event.user().as_str())];
            scratch.replay.tagged.clear();
            process_event(&ctx, shard, 0, event, &mut scratch.replay);
            self.alerts.extend(self.scratch.replay.tagged.drain(..).map(|(_, alert)| alert));
        }
        &self.alerts[raised_from..]
    }

    /// Splits the monitor into the read-only worker context, the mutable
    /// shard table and the ingest buffers — disjoint fields, so the
    /// streaming and batch paths share one construction site.
    fn split_context(&mut self) -> (Ctx<'_>, &mut [Shard], &mut IngestScratch) {
        let space = self.index.space();
        (
            Ctx {
                index: &self.index,
                policy: &self.policy,
                stores: &self.stores,
                readers: &self.readers,
                matrix: &self.matrix,
                likelihood: &self.likelihood,
                threshold: self.alert_threshold,
                actor_count: space.actor_count(),
                field_count: space.field_count(),
                layout: self.layout,
            },
            &mut self.shards,
            &mut self.scratch,
        )
    }

    /// Consumes a batch of events, updating the affected users' privacy
    /// states, and returns the alerts the batch raised, in event order
    /// (mirroring `analyse_users_batch`'s shape: one immutable index, a
    /// deterministic fan-out that runs inline unless
    /// [`IndexedMonitor::with_threads`] asked for more threads).
    ///
    /// The raised alerts are the newest entries of the pending list
    /// ([`IndexedMonitor::alerts`]), lent rather than copied: a caller that
    /// takes them with [`IndexedMonitor::drain_alerts`] anyway pays for no
    /// copy, and one that keeps the pending list clones only what it wants.
    ///
    /// Events are partitioned by their user's shard; each worker thread owns
    /// a contiguous chunk of shards and replays its events in stream order,
    /// so per-user causality is preserved, and the per-shard alert lists are
    /// re-merged by batch position. Events for unregistered users and denied
    /// events are ignored (denied events never changed any data exposure).
    pub fn ingest_batch(&mut self, events: &[Event]) -> &[Alert] {
        let threads = privacy_lts::batch::fan_out(self.threads).min(SHARDS);
        let raised_from = self.alerts.len();
        let (ctx, shards, scratch) = self.split_context();
        let IngestScratch { buckets, replay } = scratch;
        // Emptied on the way in rather than out, so a call that panicked
        // leaves nothing behind for the next one.
        buckets.resize_with(SHARDS, Vec::new);
        buckets.iter_mut().for_each(Vec::clear);
        replay.tagged.clear();
        let mut busy_shards = 0usize;
        for (pos, event) in events.iter().enumerate() {
            if event.permitted() {
                let bucket = &mut buckets[shard_of(event.user().as_str())];
                busy_shards += usize::from(bucket.is_empty());
                bucket.push(pos as u32);
            }
        }
        // Never spawn more workers than there are shards with work: a tiny
        // batch with one busy shard must stay on the calling thread, not
        // pay a scope + spawn.
        let threads = threads.min(busy_shards.max(1));
        let chunk = SHARDS.div_ceil(threads);

        // The calling thread replays the first chunk of shards itself, into
        // the monitor's own buffers, and spawns a worker for each other
        // chunk only.
        let mut chunks = shards.chunks_mut(chunk).zip(buckets.chunks(chunk));
        let (first_shards, first_buckets) = chunks.next().expect("at least one shard chunk");
        if threads == 1 {
            replay_chunk(&ctx, first_shards, first_buckets, events, replay);
        } else {
            crossbeam::thread::scope(|scope| {
                let ctx = &ctx;
                let handles: Vec<_> = chunks
                    .map(|(shard_chunk, bucket_chunk)| {
                        scope.spawn(move |_| {
                            let mut own = ReplayScratch::default();
                            replay_chunk(ctx, shard_chunk, bucket_chunk, events, &mut own);
                            own.tagged
                        })
                    })
                    .collect();
                replay_chunk(ctx, first_shards, first_buckets, events, replay);
                for handle in handles {
                    replay.tagged.extend(handle.join().expect("monitor shard worker panicked"));
                }
            })
            .expect("monitor ingestion scope panicked");
        }

        // Back to stream order: an event's alerts share its position and
        // keep their arrival order within it, so the stream equals the
        // sequential replay regardless of thread count.
        let tagged = &mut self.scratch.replay.tagged;
        tagged.sort_unstable_by_key(|&(key, _)| key);
        self.alerts.extend(tagged.drain(..).map(|(_, alert)| alert));
        &self.alerts[raised_from..]
    }
}

impl Registry {
    /// Resolves `profile` into the registry: its consent's allowed-actor
    /// bitset into `allowed` (resolved against the catalog on the first
    /// sight of that consent) and its per-field sensitivities into
    /// `sensitivities`.
    fn resolve(&mut self, catalog: &Catalog, index: &LtsIndex, profile: &UserProfile) -> &mut Self {
        let space = index.space();
        if !self.allowed.contains_key(profile.consent()) {
            let actors = catalog.allowed_actors(profile.consent().services());
            let mut bits = vec![0u64; space.actor_count().div_ceil(64)];
            for (a, actor) in space.actors().iter().enumerate() {
                if actors.binary_search(actor).is_ok() {
                    bits[a / 64] |= 1u64 << (a % 64);
                }
            }
            self.allowed.insert(profile.consent().clone(), bits.into_boxed_slice());
        }
        self.sensitivities.clear();
        self.sensitivities.extend(
            space.fields().iter().map(|field| profile.sensitivities().sensitivity(field).value()),
        );
        self
    }
}

impl fmt::Display for IndexedMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "indexed runtime monitor: {} users tracked over {} shards, {} alerts pending",
            self.user_count(),
            SHARDS,
            self.alerts.len()
        )
    }
}

/// Rejects a snapshot that cannot describe this index: a different
/// fingerprint (the word rows would be silently reinterpreted) or
/// dimensions that disagree with the index's variable space.
fn check_snapshot_compat(
    index: &LtsIndex,
    snapshot: &MonitorSnapshot,
) -> Result<(), SnapshotError> {
    let expected = index.fingerprint();
    if snapshot.fingerprint != expected {
        return Err(SnapshotError::IndexMismatch {
            snapshot: snapshot.fingerprint,
            index: expected,
        });
    }
    let dims = SlotLayout::of(index).dims();
    if (snapshot.state_words, snapshot.allowed_words, snapshot.field_count) != dims {
        return Err(SnapshotError::Malformed {
            detail: format!(
                "snapshot dimensions ({}, {}, {}) do not describe the index's space \
                 ({}, {}, {})",
                snapshot.state_words,
                snapshot.allowed_words,
                snapshot.field_count,
                dims.0,
                dims.1,
                dims.2
            ),
        });
    }
    Ok(())
}

/// Replays each shard's bucket of a batch in stream order into
/// `scratch.tagged`.
fn replay_chunk(
    ctx: &Ctx<'_>,
    shards: &mut [Shard],
    buckets: &[Vec<u32>],
    events: &[Event],
    scratch: &mut ReplayScratch,
) {
    for (shard, bucket) in shards.iter_mut().zip(buckets) {
        for &pos in bucket {
            process_event(ctx, shard, pos, &events[pos as usize], scratch);
        }
    }
}

/// Applies one permitted event to its user's slot, decoding the user's
/// row into one on their first event, pushes any raised alerts tagged
/// with the event's batch position, and queues the user's row for the next
/// capture if a state bit flipped.
fn process_event(
    ctx: &Ctx<'_>,
    shard: &mut Shard,
    pos: u32,
    event: &Event,
    scratch: &mut ReplayScratch,
) {
    let user = event.user();
    if let Some(slot) = shard.slots.get_mut(user) {
        if apply_event(ctx, slot, pos, event, scratch) {
            shard.rows.get_mut().unwrap_or_else(PoisonError::into_inner).mark(user, slot);
        }
    } else if shard.activate(user, ctx.layout) {
        // Now in a slot.
        process_event(ctx, shard, pos, event, scratch);
    }
}

/// [`process_event`] on a resolved slot; returns whether any state bit
/// flipped.
fn apply_event(
    ctx: &Ctx<'_>,
    slot: &mut UserSlot,
    pos: u32,
    event: &Event,
    scratch: &mut ReplayScratch,
) -> bool {
    let ReplayScratch { pairs, tagged } = scratch;
    pairs.clear();
    match event.action() {
        ActionKind::Collect | ActionKind::Disclose | ActionKind::Read => {
            let Some(actor) =
                ctx.index.actor_index(event.actor()).filter(|&a| (a as usize) < ctx.actor_count)
            else {
                return false;
            };
            pairs.extend(
                event
                    .fields()
                    .iter()
                    .filter_map(|field| ctx.index.field_index(field))
                    .filter(|&f| (f as usize) < ctx.field_count)
                    .map(|f| (actor, f)),
            );
            pairs.sort_unstable();
            expose(ctx, slot, pos, event, pairs, VarKind::Has, tagged)
        }
        ActionKind::Create | ActionKind::Anon => {
            let Some(store) = event.datastore() else {
                return false;
            };
            reader_pairs(ctx, store, event, pairs);
            pairs.sort_unstable();
            pairs.dedup();
            expose(ctx, slot, pos, event, pairs, VarKind::Could, tagged)
        }
        ActionKind::Delete => {
            let Some(store) = event.datastore() else {
                return false;
            };
            reader_pairs(ctx, store, event, pairs);
            let mut flipped = false;
            for &(a, f) in pairs.iter() {
                if let Some(has_bit) = ctx.index.bit_index_of(a, f, VarKind::Has) {
                    flipped |= slot.clear_bit(has_bit + 1); // the paired `could` bit
                }
            }
            flipped
        }
        // Future action kinds added to the (non-exhaustive) enum do not
        // change the tracked privacy state until modelled explicitly.
        _ => false,
    }
}

/// Appends to `pairs` the `(reader, field)` pairs a `create`/`anon`/`delete`
/// event resolves to: every space actor with read access to the event's
/// fields in its store. Catalog stores answer from the precomputed table; a
/// store outside the catalog falls back to a direct policy probe (the cost
/// the scan monitor pays for every event).
fn reader_pairs(ctx: &Ctx<'_>, store: &DatastoreId, event: &Event, pairs: &mut Vec<(u32, u32)>) {
    let store_idx = ctx.stores.get(store);
    for field in event.fields() {
        let Some(f) = ctx.index.field_index(field).filter(|&f| (f as usize) < ctx.field_count)
        else {
            continue;
        };
        match store_idx {
            Some(s) => {
                for &a in &ctx.readers[s as usize * ctx.field_count + f as usize] {
                    pairs.push((a, f));
                }
            }
            None => {
                for actor in ctx.policy.actors_with(Permission::Read, store, field) {
                    if let Some(a) =
                        ctx.index.actor_index(&actor).filter(|&a| (a as usize) < ctx.actor_count)
                    {
                        pairs.push((a, f));
                    }
                }
            }
        }
    }
}

/// Sets the `kind` bit of every pair (ascending, deduplicated — i.e. in the
/// variable space's pair order) and raises an alert for each pair that
/// becomes newly exposed to a non-allowed actor, exactly the scan monitor's
/// "newly exposed pairs" sweep restricted to the bits this event can touch.
/// Returns whether any bit flipped.
fn expose(
    ctx: &Ctx<'_>,
    slot: &mut UserSlot,
    pos: u32,
    event: &Event,
    pairs: &[(u32, u32)],
    kind: VarKind,
    out: &mut Vec<((u32, u32), Alert)>,
) -> bool {
    let mut flipped = false;
    for &(a, f) in pairs {
        let Some(has_bit) = ctx.index.bit_index_of(a, f, VarKind::Has) else {
            continue;
        };
        let could_bit = has_bit + 1;
        let was_exposed = slot.get_bit(has_bit) || slot.get_bit(could_bit);
        flipped |= match kind {
            VarKind::Has => slot.set_bit(has_bit),
            VarKind::Could => slot.set_bit(could_bit),
        };
        if was_exposed || slot.actor_allowed(ctx.layout, a as usize) {
            continue;
        }
        let impact = slot.sensitivity(ctx.layout, f as usize);
        let actor = &ctx.index.actors()[a as usize];
        let probability = if slot.get_bit(has_bit) {
            // Direct identification has certainty rather than scenario-based
            // likelihood.
            1.0
        } else {
            match event.datastore() {
                Some(store) => ctx.likelihood.probability(actor, store),
                None => 1.0,
            }
        };
        let level = ctx.matrix.combine(impact, probability);
        if level.at_least(ctx.threshold) {
            let field = &ctx.index.fields()[f as usize];
            let key = (pos, out.len() as u32);
            out.push((
                key,
                Alert::raise(
                    event.sequence(),
                    event.user().clone(),
                    level,
                    format!(
                        "non-allowed actor {actor} can now identify `{field}` \
                         (action {}, impact {:.2}, likelihood {:.2})",
                        event.action(),
                        impact.value(),
                        probability
                    ),
                ),
            ));
        }
    }
    flipped
}
