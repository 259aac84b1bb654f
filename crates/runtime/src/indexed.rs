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
//!   table, so [`IndexedMonitor::ingest_batch`] fans a batch out over
//!   `crossbeam` scoped worker threads — every user's events stay on one
//!   shard in stream order, and alerts are re-merged by batch position, so
//!   the alert stream is identical for every thread count (and to the scan
//!   monitor; both equalities are pinned by differential property tests).
//!
//! Alerts only fire for pairs that become **newly exposed** by an event;
//! since an event can only change the bits it resolves to, the monitor
//! inspects exactly those candidate pairs instead of sweeping the whole
//! space — that, plus the absence of a per-event state clone, is where the
//! throughput over the scan monitor comes from (see the `runtime_scaling`
//! bench and `docs/PERFORMANCE.md`).

use crate::event::{Event, EventLog};
use crate::monitor::Alert;
use crate::snapshot::{self, MonitorSnapshot, ShardSnapshot, SnapshotError};
use privacy_access::{AccessPolicy, Permission};
use privacy_lts::space::VarKind;
use privacy_lts::{ActionKind, FxHashMap, FxHasher, LtsIndex, PrivacyState};
use privacy_model::{Catalog, DatastoreId, Interner, RiskLevel, Sensitivity, UserId, UserProfile};
use privacy_risk::{LikelihoodModel, RiskMatrix, SensitivityModel};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

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
fn shard_of(user: &str) -> usize {
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
}

/// One registered user's monitor state: the packed privacy-state words plus
/// the per-user alert inputs, all resolved to dense indices at registration
/// and held in one allocation laid out by [`SlotLayout`] — one pointer to
/// chase per user, whether an event updates the state or a capture encodes
/// it.
#[derive(Debug, Clone)]
struct UserSlot {
    /// Packed privacy-state bits in [`VarSpace`](privacy_lts::VarSpace)
    /// layout; a bitset over space actor indices of the user's allowed
    /// actors; per space field index, the bits of the user's raw
    /// sensitivity `σ(d)`.
    data: Box<[u64]>,
    /// The [`RowCache::generation`] in which this row last changed.
    changed_in: u64,
}

impl UserSlot {
    /// A slot with an all-clear state; `allowed` and `sensitivities` fill
    /// the rest of the layout.
    fn new(layout: SlotLayout, allowed: &[u64], sensitivities: impl Iterator<Item = f64>) -> Self {
        let mut data = Vec::with_capacity(layout.len());
        data.resize(layout.state_words, 0);
        data.extend_from_slice(allowed);
        data.extend(sensitivities.map(f64::to_bits));
        debug_assert_eq!(data.len(), layout.len());
        UserSlot { data: data.into_boxed_slice(), changed_in: 0 }
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

/// A shard's snapshot body as last captured, and which rows have changed
/// since — what lets a capture re-encode only those rows and copy the rest.
#[derive(Debug, Clone, Default)]
struct RowCache {
    /// The body of the previous capture (users sorted by id, v3 wire
    /// layout). `None` until the first capture and after the shard is
    /// emptied; the next capture then encodes every row, so a monitor that
    /// is never captured pays nothing.
    body: Option<Arc<Vec<u8>>>,
    /// Bumped by every capture. A slot whose `changed_in` equals it may
    /// differ from `body`: a state bit flipped, or the user was
    /// (re-)registered or absorbed, since the previous capture.
    generation: u64,
    /// Whether any row changed since the previous capture.
    dirty: bool,
}

impl RowCache {
    /// Records that `slot`'s row may differ from `body`.
    fn mark(&mut self, slot: &mut UserSlot) {
        slot.changed_in = self.generation;
        self.dirty = true;
    }
}

/// One hash shard of the per-user state table.
#[derive(Debug, Default)]
struct Shard {
    users: FxHashMap<UserId, UserSlot>,
    /// Behind a lock so [`IndexedMonitor::snapshot`] can refresh it through
    /// `&self`; the mutating paths reach it with `Mutex::get_mut`, which
    /// never locks.
    rows: Mutex<RowCache>,
}

impl Clone for Shard {
    fn clone(&self) -> Self {
        Shard {
            users: self.users.clone(),
            rows: Mutex::new(self.rows.lock().unwrap_or_else(PoisonError::into_inner).clone()),
        }
    }
}

/// Reusable buffers for encoding rows during one capture.
#[derive(Default)]
struct RowScratch {
    sensitivities: Vec<f64>,
    row: Vec<u8>,
    /// The re-encoded entries of the shard being captured, back to back in
    /// the order their slots were visited.
    entries: Vec<u8>,
}

/// One re-encoded entry in [`RowScratch::entries`]: the user id and the
/// entry's byte range.
type FreshEntry<'a> = (&'a str, usize, usize);

impl Shard {
    /// The row cache of a shard being mutated. Poisoning is recovered
    /// from here and in [`Shard::capture`]: a capture writes the cache only
    /// after its new body exists, so a panic mid-capture leaves the
    /// previous, consistent cache.
    fn rows_mut(&mut self) -> &mut RowCache {
        self.rows.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts (or replaces) a user's slot, marking the row changed.
    fn insert(&mut self, user: UserId, mut slot: UserSlot) {
        self.rows_mut().mark(&mut slot);
        self.users.insert(user, slot);
    }

    /// The shard's snapshot body: the previous capture's body with the
    /// changed rows re-encoded and spliced in, or every row encoded when
    /// there is no previous body. Either way it is byte-identical to
    /// encoding every row afresh; no allocation is made per user.
    fn capture(&self, layout: SlotLayout, scratch: &mut RowScratch) -> Arc<Vec<u8>> {
        let mut guard = self.rows.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = &mut *guard;
        let body = match &cache.body {
            Some(body) if !cache.dirty => Arc::clone(body),
            Some(previous) => {
                let generation = cache.generation;
                let changed = self.users.iter().filter(|(_, slot)| slot.changed_in == generation);
                let fresh = encode_sorted(changed, layout, scratch);
                Arc::new(splice(previous, &fresh, &scratch.entries))
            }
            None => {
                let fresh = encode_sorted(self.users.iter(), layout, scratch);
                Arc::new(splice(&[], &fresh, &scratch.entries))
            }
        };
        cache.dirty = false;
        cache.generation += 1;
        cache.body = Some(Arc::clone(&body));
        body
    }
}

/// Encodes the rows of `users` into `scratch.entries` in the order given —
/// visiting slots in table order, not id order — and returns the entries
/// sorted by user id.
fn encode_sorted<'a>(
    users: impl Iterator<Item = (&'a UserId, &'a UserSlot)>,
    layout: SlotLayout,
    scratch: &mut RowScratch,
) -> Vec<FreshEntry<'a>> {
    let RowScratch { sensitivities, row, entries } = scratch;
    entries.clear();
    let mut fresh: Vec<FreshEntry<'a>> = users
        .map(|(user, slot)| {
            let start = entries.len();
            sensitivities.clear();
            sensitivities.extend(slot.sensitivities(layout));
            snapshot::put_entry(
                entries,
                row,
                user.as_str(),
                slot.words(layout),
                slot.allowed(layout),
                sensitivities,
            );
            (user.as_str(), start, entries.len())
        })
        .collect();
    fresh.sort_unstable_by(|a, b| a.0.cmp(b.0));
    fresh
}

/// Merges `fresh` entries (sorted by user, unique, their bytes in
/// `entries`) into a previous shard body (sorted by user): a fresh entry
/// replaces the previous entry of the same user, every other previous entry
/// is copied verbatim in runs.
fn splice(previous: &[u8], fresh: &[FreshEntry<'_>], entries: &[u8]) -> Vec<u8> {
    let fresh_len: usize = fresh.iter().map(|&(_, start, end)| end - start).sum();
    let mut body = Vec::with_capacity(previous.len() + fresh_len);
    let mut fresh = fresh.iter().peekable();
    // `previous[..copied]` is already in `body` or replaced.
    let mut copied = 0;
    let mut offset = 0;
    while offset < previous.len() && fresh.peek().is_some() {
        let start = offset;
        let user = snapshot::skip_entry(previous, &mut offset);
        while let Some(&(_, from, to)) = fresh.next_if(|entry| entry.0.as_bytes() < user) {
            body.extend_from_slice(&previous[copied..start]);
            copied = start;
            body.extend_from_slice(&entries[from..to]);
        }
        if let Some(&(_, from, to)) = fresh.next_if(|entry| entry.0.as_bytes() == user) {
            body.extend_from_slice(&previous[copied..start]);
            copied = offset;
            body.extend_from_slice(&entries[from..to]);
        }
    }
    body.extend_from_slice(&previous[copied..]);
    for &(_, from, to) in fresh {
        body.extend_from_slice(&entries[from..to]);
    }
    body
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
    threads: Option<usize>,
    /// Interned datastore ids of the catalog's stores.
    stores: Interner<DatastoreId>,
    /// `(store_idx * field_count + field_idx) → space actor indices` with
    /// read access — the policy question the `create`/`anon`/`delete` rules
    /// ask, resolved once instead of once per event.
    readers: Vec<Vec<u32>>,
    layout: SlotLayout,
    shards: Vec<Shard>,
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
            shards: vec![Shard::default(); SHARDS],
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
    /// call (`None` = one per CPU). The alert stream is identical for every
    /// count.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// The shared analysis index the monitor probes.
    pub fn index(&self) -> &LtsIndex {
        &self.index
    }

    /// Registers a user so their privacy state is tracked: the profile's
    /// consent and sensitivities are resolved to dense per-space tables once,
    /// here, never per event.
    pub fn register_user(&mut self, profile: &UserProfile) {
        let sensitivity = SensitivityModel::new(&self.catalog, profile);
        let space = self.index.space();
        let mut allowed = vec![0u64; space.actor_count().div_ceil(64)];
        for (a, actor) in space.actors().iter().enumerate() {
            if sensitivity.is_allowed(actor) {
                allowed[a / 64] |= 1u64 << (a % 64);
            }
        }
        let sensitivities =
            space.fields().iter().map(|field| sensitivity.field_sensitivity(field).value());
        let slot = UserSlot::new(self.layout, &allowed, sensitivities);
        self.shards[shard_of(profile.id().as_str())].insert(profile.id().clone(), slot);
    }

    /// The current privacy state of a registered user.
    pub fn state_of(&self, user: &UserId) -> Option<PrivacyState> {
        self.shards[shard_of(user.as_str())].users.get(user).map(|slot| {
            PrivacyState::from_words(
                slot.words(self.layout).to_vec(),
                self.index.space().variable_count(),
            )
        })
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.shards.iter().map(|shard| shard.users.len()).sum()
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
    /// Capture is incremental: each shard keeps the body it last captured,
    /// and ingestion marks the rows whose state bits actually flip, so a
    /// capture re-encodes only those rows and copies every other row's
    /// bytes (an unchanged shard is shared, not even copied). The first
    /// capture encodes every row. The bytes are the same either way.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let space = self.index.space();
        let mut scratch = RowScratch::default();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, shard)| !shard.users.is_empty())
            .map(|(i, shard)| ShardSnapshot {
                shard: i as u32,
                users: shard.users.len(),
                body: shard.capture(self.layout, &mut scratch),
            })
            .collect();
        MonitorSnapshot {
            fingerprint: self.index.fingerprint(),
            state_words: space.variable_count().div_ceil(64) as u32,
            allowed_words: space.actor_count().div_ceil(64) as u32,
            field_count: space.field_count() as u32,
            shards,
            pending_alerts: self.alerts.clone(),
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
        monitor.restore_rows(snapshot)?;
        monitor.alerts = snapshot.pending_alerts.clone();
        Ok(monitor)
    }

    /// Merges a snapshot's users into a **live** monitor — the shard-handoff
    /// import path: a worker that takes over a shard absorbs the previous
    /// owner's exported [`MonitorSnapshot`] (typically a
    /// [`MonitorSnapshot::extract_shards`] part) without disturbing the
    /// users it already tracks. A user present in both keeps the snapshot's
    /// state (the exporter owned them last); the snapshot's pending alerts
    /// are appended to this monitor's. Returns the number of users absorbed.
    ///
    /// # Errors
    ///
    /// The same compatibility checks as [`IndexedMonitor::resume_from`]:
    /// [`SnapshotError::IndexMismatch`] for a foreign index,
    /// [`SnapshotError::Malformed`] for impossible dimensions or rows.
    pub fn absorb(&mut self, snapshot: &MonitorSnapshot) -> Result<usize, SnapshotError> {
        check_snapshot_compat(&self.index, snapshot)?;
        let absorbed = self.restore_rows(snapshot)?;
        self.alerts.extend(snapshot.pending_alerts.iter().cloned());
        Ok(absorbed)
    }

    /// Inserts every user row of the snapshot, re-deriving shards from ids
    /// and decoding each sparse row, straight from the snapshot's shard
    /// bodies, into its dense in-memory slot.
    fn restore_rows(&mut self, snapshot: &MonitorSnapshot) -> Result<usize, SnapshotError> {
        let dims = (snapshot.state_words, snapshot.allowed_words, snapshot.field_count);
        let (mut words, mut allowed, mut sensitivities) = (Vec::new(), Vec::new(), Vec::new());
        let mut restored = 0usize;
        for shard in &snapshot.shards {
            for row in shard.rows() {
                // Decoding validates every sensitivity to [0, 1].
                row.decode_into(dims, &mut words, &mut allowed, &mut sensitivities)?;
                let mut slot = UserSlot::new(self.layout, &allowed, sensitivities.iter().copied());
                slot.data[..words.len()].copy_from_slice(&words);
                self.shards[shard_of(row.user)].insert(UserId::new(row.user), slot);
                restored += 1;
            }
        }
        Ok(restored)
    }

    /// Whether a user is currently registered (tracked) by this monitor.
    pub fn is_registered(&self, user: &UserId) -> bool {
        self.shards[shard_of(user.as_str())].users.contains_key(user)
    }

    /// Drops every user whose id hashes to the given shard, returning how
    /// many were removed — the shard-handoff *export* side: after the shard's
    /// state is captured (via [`IndexedMonitor::snapshot`] +
    /// [`MonitorSnapshot::extract_shards`]), the old owner stops tracking it.
    /// Shards at or past [`SHARD_COUNT`] hold no users.
    pub fn remove_shard_users(&mut self, shard: u32) -> usize {
        match self.shards.get_mut(shard as usize) {
            Some(slot) => {
                let removed = slot.users.len();
                slot.users.clear();
                slot.rows_mut().body = None;
                removed
            }
            None => 0,
        }
    }

    /// Consumes one event. Behaviourally equivalent to a one-event
    /// [`IndexedMonitor::ingest_batch`], but skips the batch machinery
    /// (bucket table, fan-out, merge sort) entirely: the streaming path
    /// resolves the user's shard and processes in place.
    pub fn observe(&mut self, event: &Event) -> Vec<Alert> {
        if !event.permitted() {
            return Vec::new();
        }
        let (ctx, shards) = self.split_context();
        let mut tagged = Vec::new();
        process_event(&ctx, &mut shards[shard_of(event.user().as_str())], 0, event, &mut tagged);
        let raised: Vec<Alert> = tagged.into_iter().map(|(_, alert)| alert).collect();
        self.alerts.extend(raised.iter().cloned());
        raised
    }

    /// Convenience: ingests a whole event log as one batch.
    pub fn ingest_log(&mut self, log: &EventLog) -> Vec<Alert> {
        self.ingest_batch(log.events())
    }

    /// Splits the monitor into the read-only worker context and the mutable
    /// shard table — disjoint fields, so the streaming and batch paths
    /// share one construction site.
    fn split_context(&mut self) -> (Ctx<'_>, &mut [Shard]) {
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
        )
    }

    /// Consumes a batch of events, updating the affected users' privacy
    /// states and returning the alerts the batch raised, in event order
    /// (mirroring `analyse_users_batch`'s shape: one immutable index, a
    /// deterministic parallel fan-out).
    ///
    /// Events are partitioned by their user's shard; each worker thread owns
    /// a contiguous chunk of shards and replays its events in stream order,
    /// so per-user causality is preserved, and the per-shard alert lists are
    /// re-merged by batch position. Events for unregistered users and denied
    /// events are ignored (denied events never changed any data exposure).
    pub fn ingest_batch(&mut self, events: &[Event]) -> Vec<Alert> {
        let threads = privacy_lts::batch::resolve_threads(self.threads).min(SHARDS);
        let mut buckets: Vec<Vec<(u32, &Event)>> = vec![Vec::new(); SHARDS];
        let mut busy_shards = 0usize;
        for (pos, event) in events.iter().enumerate() {
            if event.permitted() {
                let bucket = &mut buckets[shard_of(event.user().as_str())];
                busy_shards += usize::from(bucket.is_empty());
                bucket.push((pos as u32, event));
            }
        }
        // Never spawn more workers than there are shards with work: a tiny
        // batch with one busy shard must stay on the calling thread, not
        // pay a scope + spawn.
        let threads = threads.min(busy_shards.max(1));

        let (ctx, shards) = self.split_context();
        let chunk = SHARDS.div_ceil(threads);

        let mut tagged: Vec<(u32, Alert)> = if threads == 1 {
            let mut out = Vec::new();
            for (shard, bucket) in shards.iter_mut().zip(&buckets) {
                for &(pos, event) in bucket {
                    process_event(&ctx, shard, pos, event, &mut out);
                }
            }
            out
        } else {
            crossbeam::thread::scope(|scope| {
                let ctx = &ctx;
                let handles: Vec<_> = shards
                    .chunks_mut(chunk)
                    .zip(buckets.chunks(chunk))
                    .map(|(shard_chunk, bucket_chunk)| {
                        scope.spawn(move |_| {
                            let mut out = Vec::new();
                            for (shard, bucket) in shard_chunk.iter_mut().zip(bucket_chunk) {
                                for &(pos, event) in bucket {
                                    process_event(ctx, shard, pos, event, &mut out);
                                }
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|handle| handle.join().expect("monitor shard worker panicked"))
                    .collect()
            })
            .expect("monitor ingestion scope panicked")
        };

        // Stable sort by batch position: alerts of one event keep their
        // within-event (actor, field) order, and the stream equals the
        // sequential replay regardless of thread count.
        tagged.sort_by_key(|&(pos, _)| pos);
        let raised: Vec<Alert> = tagged.into_iter().map(|(_, alert)| alert).collect();
        self.alerts.extend(raised.iter().cloned());
        raised
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
    let space = index.space();
    let dims = (
        space.variable_count().div_ceil(64) as u32,
        space.actor_count().div_ceil(64) as u32,
        space.field_count() as u32,
    );
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

/// Applies one permitted event to its user's slot, pushing any raised alerts
/// tagged with the event's batch position, and queues the user's row for
/// the next capture if a state bit flipped.
fn process_event(
    ctx: &Ctx<'_>,
    shard: &mut Shard,
    pos: u32,
    event: &Event,
    out: &mut Vec<(u32, Alert)>,
) {
    let Some(slot) = shard.users.get_mut(event.user()) else {
        return;
    };
    if apply_event(ctx, slot, pos, event, out) {
        shard.rows.get_mut().unwrap_or_else(PoisonError::into_inner).mark(slot);
    }
}

/// [`process_event`] on a resolved slot; returns whether any state bit
/// flipped.
fn apply_event(
    ctx: &Ctx<'_>,
    slot: &mut UserSlot,
    pos: u32,
    event: &Event,
    out: &mut Vec<(u32, Alert)>,
) -> bool {
    match event.action() {
        ActionKind::Collect | ActionKind::Disclose | ActionKind::Read => {
            let Some(actor) =
                ctx.index.actor_index(event.actor()).filter(|&a| (a as usize) < ctx.actor_count)
            else {
                return false;
            };
            let mut pairs: Vec<(u32, u32)> = event
                .fields()
                .iter()
                .filter_map(|field| ctx.index.field_index(field))
                .filter(|&f| (f as usize) < ctx.field_count)
                .map(|f| (actor, f))
                .collect();
            pairs.sort_unstable();
            expose(ctx, slot, pos, event, &pairs, VarKind::Has, out)
        }
        ActionKind::Create | ActionKind::Anon => {
            let Some(store) = event.datastore() else {
                return false;
            };
            let mut pairs = reader_pairs(ctx, store, event);
            pairs.sort_unstable();
            pairs.dedup();
            expose(ctx, slot, pos, event, &pairs, VarKind::Could, out)
        }
        ActionKind::Delete => {
            let Some(store) = event.datastore() else {
                return false;
            };
            let mut flipped = false;
            for (a, f) in reader_pairs(ctx, store, event) {
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

/// The `(reader, field)` pairs a `create`/`anon`/`delete` event resolves to:
/// every space actor with read access to the event's fields in its store.
/// Catalog stores answer from the precomputed table; a store outside the
/// catalog falls back to a direct policy probe (the cost the scan monitor
/// pays for every event).
fn reader_pairs(ctx: &Ctx<'_>, store: &DatastoreId, event: &Event) -> Vec<(u32, u32)> {
    let store_idx = ctx.stores.get(store);
    let mut pairs = Vec::new();
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
    pairs
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
    out: &mut Vec<(u32, Alert)>,
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
            out.push((
                pos,
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
