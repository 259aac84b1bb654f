//! The columnar analysis index: a one-pass compilation of an [`Lts`] into
//! dense arrays that turn the risk and compliance analyses from repeated
//! full scans of the transition relation into index probes.
//!
//! The checkers in `privacy-compliance` and `privacy-risk` originally
//! answered every question — *which transitions read this field?*, *in which
//! reachable states could this actor identify this datum?* — by walking all
//! transitions (or all reachable states) once **per policy statement** or
//! per (actor, field) pair, comparing string-keyed labels each time. On the
//! healthcare case study that is 1.4M label comparisons per statement.
//!
//! [`LtsIndex::build`] walks the LTS exactly once and materialises:
//!
//! * **Columns** — per transition: the action kind, the interned actor, the
//!   interned purpose and a packed `u64` bitset of the interned fields the
//!   label carries (identifier interning reuses
//!   [`privacy_model::intern::Interner`], the same dense-index machinery the
//!   generation engine compiles flows with).
//! * **Posting lists** — ascending transition-id lists per action kind, per
//!   actor, per field and per (actor, action kind) pair, so "all reads by
//!   the Administrator touching `Diagnosis`" is a probe plus a bitset test
//!   instead of a scan.
//! * **Action field cover** — per action kind, the union bitset of fields
//!   any transition of that kind touches (the right-to-erasure probe).
//! * **CSR adjacency** — the state → outgoing-transition relation flattened
//!   into two dense arrays (offsets + transition ids).
//! * **Reachability + state-bit posting lists** — the breadth-first
//!   reachable order (identical to [`Lts::reachable`]) and, per Boolean
//!   state variable of the [`VarSpace`], the list of reachable states (in
//!   that same order) in which the variable is true. "Every reachable state
//!   where the Researcher *could identify* `Diagnosis`" becomes a slice
//!   lookup.
//! * **Per-pair read lists** — per interned (actor, field) pair, the actor's
//!   `read` transitions involving the field, filled on first request and
//!   handed out as one shared `Arc` ([`LtsIndex::reads_involving`]).
//!
//! The index is a snapshot: it describes the LTS at build time and is not
//! updated when the LTS is mutated afterwards (the disclosure analysis
//! exploits exactly this — it matches the scan path, which also snapshots
//! `reachable()` before annotating).

use crate::label::ActionKind;
use crate::lts::{Lts, StateId, TransitionId};
use crate::space::{VarKind, VarSpace};
use privacy_model::{ActorId, FieldId, Interner, Purpose};
use std::sync::{Arc, OnceLock};

/// Number of distinct [`ActionKind`]s (the width of the per-action tables).
const ACTIONS: usize = ActionKind::ALL.len();

/// Sentinel in the purpose column for "no purpose declared".
const NO_PURPOSE: u32 = u32::MAX;

/// An empty posting list, returned for identifiers the index never saw.
const EMPTY_STATES: &[StateId] = &[];
const EMPTY_TRANSITIONS: &[u32] = &[];

/// The dense table index of an action kind: its position in
/// [`ActionKind::ALL`] — [`LtsIndex::action_of`] resolves the column back
/// through that array; the `action_index_matches_action_kind_all_order` test
/// pins the alignment.
#[inline]
fn action_index(action: ActionKind) -> usize {
    action.table_index()
}

/// Transition count below which the sharded column/posting pass runs on the
/// calling thread: with fewer transitions per shard the spawn/merge overhead
/// outweighs the scan itself.
const PARALLEL_BUILD_MIN_TRANSITIONS_PER_SHARD: usize = 65_536;

/// The resolved columns of one distinct (`Arc`-interned) label allocation.
struct LabelCols {
    action: u8,
    actor: u32,
    purpose: u32,
    fields: Vec<u32>,
}

/// The result of one shard's first pass over its transition range: the
/// distinct label allocations in first-occurrence order (with a transition
/// that carries each) and the per-transition label-pointer column.
struct RangeScan {
    distinct: Vec<(usize, TransitionId)>,
    ptr_col: Vec<usize>,
}

/// The columns and posting lists one shard produced for its transition
/// range. Shards cover contiguous ascending ranges, so concatenating in
/// shard order reproduces the sequential single-pass output exactly.
struct RangeColumns {
    action_col: Vec<u8>,
    actor_col: Vec<u32>,
    purpose_col: Vec<u32>,
    field_words: Vec<u64>,
    by_action: Vec<Vec<u32>>,
    by_actor: Vec<Vec<u32>>,
    by_field: Vec<Vec<u32>>,
    by_actor_action: Vec<Vec<u32>>,
    action_field_cover: Vec<Vec<u64>>,
}

/// The columnar analysis index over one [`Lts`] snapshot.
///
/// # Examples
///
/// ```
/// use privacy_lts::{ActionKind, Lts, LtsIndex, PrivacyState, TransitionLabel, VarSpace};
/// use privacy_model::{ActorId, FieldId};
///
/// let space = VarSpace::new([ActorId::new("Doctor")], [FieldId::new("Diagnosis")]);
/// let mut lts = Lts::new(space.clone());
/// let s0 = lts.initial();
/// let s1 = lts.intern(PrivacyState::absolute(&space).with_has(
///     &space,
///     &ActorId::new("Doctor"),
///     &FieldId::new("Diagnosis"),
/// ));
/// lts.add_transition(
///     s0,
///     s1,
///     TransitionLabel::new(ActionKind::Read, "Doctor", [FieldId::new("Diagnosis")], None),
/// );
///
/// let index = LtsIndex::build(&lts);
/// let doctor = ActorId::new("Doctor");
/// let diagnosis = FieldId::new("Diagnosis");
/// assert!(index.can_actor_identify(&doctor, &diagnosis));
/// assert_eq!(index.transitions_of_kind(ActionKind::Read).len(), 1);
/// assert_eq!(index.states_where_has(&doctor, &diagnosis), &[s1]);
/// ```
#[derive(Debug, Clone)]
pub struct LtsIndex {
    transition_count: usize,
    /// The variable space of the indexed LTS (owns the state-bit layout).
    space: VarSpace,
    actors: Interner<ActorId>,
    fields: Interner<FieldId>,
    purposes: Interner<Purpose>,
    /// Per transition: `action_index` of its action kind.
    action_col: Vec<u8>,
    /// Per transition: interned actor index.
    actor_col: Vec<u32>,
    /// Per transition: interned purpose index, or [`NO_PURPOSE`].
    purpose_col: Vec<u32>,
    /// `u64` words per transition in [`LtsIndex::field_words`].
    words_per_transition: usize,
    /// Packed field bitsets, `words_per_transition` words per transition.
    field_words: Vec<u64>,
    /// Posting lists: ascending transition ids per action kind.
    by_action: Vec<Vec<u32>>,
    /// Posting lists: ascending transition ids per interned actor.
    by_actor: Vec<Vec<u32>>,
    /// Posting lists: ascending transition ids per interned field.
    by_field: Vec<Vec<u32>>,
    /// Posting lists per (actor, action kind), laid out `actor * ACTIONS + kind`.
    by_actor_action: Vec<Vec<u32>>,
    /// Per action kind: the union field bitset its transitions touch.
    action_field_cover: Vec<Vec<u64>>,
    /// CSR offsets into [`LtsIndex::csr_transitions`], one entry per state
    /// plus the trailing end offset.
    csr_offsets: Vec<u32>,
    /// The outgoing transition ids of every state, concatenated.
    csr_transitions: Vec<u32>,
    /// Reachable states, in the breadth-first order of [`Lts::reachable`].
    reachable: Vec<StateId>,
    /// `u64` words per state in [`LtsIndex::state_words`].
    words_per_state: usize,
    /// Every state's packed variable assignment, copied out of the LTS so
    /// the lazy per-variable lists can be materialised without it.
    state_words: Vec<u64>,
    /// Per Boolean state variable (bit index of the [`VarSpace`]): how many
    /// reachable states have it true. Emptiness probes
    /// ([`LtsIndex::can_actor_identify`]) read only this.
    bit_counts: Vec<u32>,
    /// Per Boolean state variable: the reachable states in which it is true,
    /// in reachable (BFS) order — materialised lazily on first request,
    /// since most analyses probe only a fraction of the variables.
    bit_lists: Vec<OnceLock<Vec<StateId>>>,
    /// Per interned (actor, field) pair, laid out `actor * fields + field`:
    /// the actor's `read` transitions involving the field, ascending —
    /// materialised lazily on first request and shared by every caller.
    reads_by_pair: Vec<OnceLock<Arc<[TransitionId]>>>,
}

impl LtsIndex {
    /// Builds the index from one pass over the LTS (plus one breadth-first
    /// traversal for reachability). The column/posting pass is sharded over
    /// worker threads when the LTS is large enough to amortise the fan-out —
    /// the result is identical for every thread count (see
    /// [`LtsIndex::build_with_threads`]).
    pub fn build(lts: &Lts) -> LtsIndex {
        LtsIndex::build_with_threads(lts, None)
    }

    /// Builds the index with the column/posting pass sharded over `threads`
    /// worker threads (`None` = one per CPU).
    ///
    /// The transition range is split into contiguous chunks, each shard
    /// scans its chunk independently, and the per-shard columns and posting
    /// lists are concatenated in shard order — so every column, posting
    /// list, interner and bitset is byte-for-byte identical to the
    /// single-threaded build regardless of thread count (pinned by the
    /// `sharded_index_build_matches_sequential_build_on_random_models`
    /// property test). Small LTSs are built on the calling thread.
    pub fn build_with_threads(lts: &Lts, threads: Option<usize>) -> LtsIndex {
        let space = lts.space();
        let transition_count = lts.transition_count();
        // An explicit thread count is honoured as-is (the differential tests
        // force sharding on small LTSs); `None` shards only when every shard
        // gets enough transitions to amortise the spawn/merge overhead.
        let shards = match threads {
            Some(threads) => threads.clamp(1, transition_count.max(1)),
            None => crate::batch::resolve_threads(None)
                .min(transition_count / PARALLEL_BUILD_MIN_TRANSITIONS_PER_SHARD)
                .max(1),
        };

        // Contiguous transition ranges, one per shard.
        let chunk = transition_count.div_ceil(shards).max(1);
        let ranges: Vec<(usize, usize)> = (0..shards)
            .map(|s| ((s * chunk).min(transition_count), ((s + 1) * chunk).min(transition_count)))
            .collect();

        // Phase 1 (sharded): labels are `Arc`-interned by the generation
        // engine, so a handful of distinct allocations cover millions of
        // transitions. Each shard records its distinct label pointers in
        // first-occurrence order plus the per-transition pointer column.
        let scans: Vec<RangeScan> = crate::batch::parallel_map(&ranges, Some(shards), |&range| {
            let (start, end) = range;
            let mut seen: crate::hash::FxHashSet<usize> = crate::hash::FxHashSet::default();
            let mut distinct = Vec::new();
            let mut ptr_col = Vec::with_capacity(end - start);
            for tx in start..end {
                let id = TransitionId(tx);
                let ptr = lts.transition(id).label_ptr() as usize;
                if seen.insert(ptr) {
                    distinct.push((ptr, id));
                }
                ptr_col.push(ptr);
            }
            RangeScan { distinct, ptr_col }
        });

        // Interning merge (sequential): the variable space first (so space
        // queries resolve even for actors/fields no transition mentions),
        // then the distinct labels in shard order. A label's first shard is
        // the shard of its globally first transition, and within a shard the
        // distinct list is in transition order — so this is exactly the
        // global first-occurrence order the single-pass build assigns.
        let mut actors: Interner<ActorId> = space.actors().iter().cloned().collect();
        let mut fields: Interner<FieldId> = space.fields().iter().cloned().collect();
        let mut purposes: Interner<Purpose> = Interner::new();
        let mut label_cols: crate::hash::FxHashMap<usize, LabelCols> =
            crate::hash::FxHashMap::default();
        for scan in &scans {
            for &(ptr, id) in &scan.distinct {
                label_cols.entry(ptr).or_insert_with(|| {
                    let label = lts.transition(id).label();
                    let actor = match actors.get(label.actor()) {
                        Some(actor) => actor,
                        None => actors.intern(label.actor().clone()),
                    };
                    let purpose = match label.purpose() {
                        Some(purpose) => match purposes.get(purpose) {
                            Some(purpose) => purpose,
                            None => purposes.intern(purpose.clone()),
                        },
                        None => NO_PURPOSE,
                    };
                    let field_ids = label
                        .fields()
                        .iter()
                        .map(|field| match fields.get(field) {
                            Some(field) => field,
                            None => fields.intern(field.clone()),
                        })
                        .collect();
                    LabelCols {
                        action: action_index(label.action()) as u8,
                        actor,
                        purpose,
                        fields: field_ids,
                    }
                });
            }
        }

        // Phase 2 (sharded): with the interners complete, every shard emits
        // its columns, packed field bitsets and posting lists from its
        // pointer column alone.
        let words_per_transition = fields.len().div_ceil(64).max(1);
        let (actor_slots, field_slots) = (actors.len(), fields.len());
        let inputs: Vec<(usize, &[usize])> = ranges
            .iter()
            .zip(&scans)
            .map(|(&(start, _), scan)| (start, scan.ptr_col.as_slice()))
            .collect();
        let columns: Vec<RangeColumns> =
            crate::batch::parallel_map(&inputs, Some(shards), |&(start, ptr_col)| {
                let mut out = RangeColumns {
                    action_col: Vec::with_capacity(ptr_col.len()),
                    actor_col: Vec::with_capacity(ptr_col.len()),
                    purpose_col: Vec::with_capacity(ptr_col.len()),
                    field_words: vec![0u64; ptr_col.len() * words_per_transition],
                    by_action: vec![Vec::new(); ACTIONS],
                    by_actor: vec![Vec::new(); actor_slots],
                    by_field: vec![Vec::new(); field_slots],
                    by_actor_action: vec![Vec::new(); actor_slots * ACTIONS],
                    action_field_cover: vec![vec![0u64; words_per_transition]; ACTIONS],
                };
                for (offset, ptr) in ptr_col.iter().enumerate() {
                    let tx = (start + offset) as u32;
                    let cols = &label_cols[ptr];
                    out.action_col.push(cols.action);
                    out.actor_col.push(cols.actor);
                    out.purpose_col.push(cols.purpose);
                    out.by_action[cols.action as usize].push(tx);
                    out.by_actor[cols.actor as usize].push(tx);
                    out.by_actor_action[cols.actor as usize * ACTIONS + cols.action as usize]
                        .push(tx);
                    for &field in &cols.fields {
                        let (word, mask) = (field as usize / 64, 1u64 << (field % 64));
                        out.by_field[field as usize].push(tx);
                        out.field_words[offset * words_per_transition + word] |= mask;
                        out.action_field_cover[cols.action as usize][word] |= mask;
                    }
                }
                out
            });

        // Deterministic concat-merge: ranges are contiguous and ascending,
        // so appending per-shard columns and postings in shard order yields
        // the ascending transition-id order the probes rely on.
        let mut action_col = Vec::with_capacity(transition_count);
        let mut actor_col = Vec::with_capacity(transition_count);
        let mut purpose_col = Vec::with_capacity(transition_count);
        let mut field_words = Vec::with_capacity(transition_count * words_per_transition);
        let mut by_action: Vec<Vec<u32>> = vec![Vec::new(); ACTIONS];
        let mut by_actor: Vec<Vec<u32>> = vec![Vec::new(); actor_slots];
        let mut by_field: Vec<Vec<u32>> = vec![Vec::new(); field_slots];
        let mut by_actor_action: Vec<Vec<u32>> = vec![Vec::new(); actor_slots * ACTIONS];
        let mut action_field_cover = vec![vec![0u64; words_per_transition]; ACTIONS];
        for shard in columns {
            action_col.extend(shard.action_col);
            actor_col.extend(shard.actor_col);
            purpose_col.extend(shard.purpose_col);
            field_words.extend(shard.field_words);
            for (merged, local) in by_action.iter_mut().zip(shard.by_action) {
                merged.extend(local);
            }
            for (merged, local) in by_actor.iter_mut().zip(shard.by_actor) {
                merged.extend(local);
            }
            for (merged, local) in by_field.iter_mut().zip(shard.by_field) {
                merged.extend(local);
            }
            for (merged, local) in by_actor_action.iter_mut().zip(shard.by_actor_action) {
                merged.extend(local);
            }
            for (merged, local) in action_field_cover.iter_mut().zip(shard.action_field_cover) {
                for (dst, src) in merged.iter_mut().zip(local) {
                    *dst |= src;
                }
            }
        }

        // CSR adjacency: state -> outgoing transition ids, flattened.
        let state_count = lts.state_count();
        let mut csr_offsets = Vec::with_capacity(state_count + 1);
        let mut csr_transitions = Vec::with_capacity(transition_count);
        csr_offsets.push(0u32);
        for state in 0..state_count {
            for tid in lts.outgoing_ids(StateId(state)) {
                csr_transitions.push(tid.0 as u32);
            }
            csr_offsets.push(csr_transitions.len() as u32);
        }

        // Copy every state's packed variable words so the lazy per-variable
        // lists can be materialised from the index alone.
        let variable_count = space.variable_count();
        let words_per_state = variable_count.div_ceil(64).max(1);
        let mut state_words = vec![0u64; state_count * words_per_state];
        for (id, state) in lts.states() {
            let start = id.0 * words_per_state;
            state_words[start..start + state.words().len()].copy_from_slice(state.words());
        }

        // Breadth-first reachability over the CSR, in exactly the order
        // `Lts::reachable` produces, counting per-variable truth along the
        // way (the full per-variable state lists are built lazily).
        let mut bit_counts = vec![0u32; variable_count];
        let mut reachable = Vec::new();
        let mut visited = vec![false; state_count];
        let mut queue = std::collections::VecDeque::new();
        visited[lts.initial().0] = true;
        queue.push_back(lts.initial());
        while let Some(current) = queue.pop_front() {
            reachable.push(current);
            let start = current.0 * words_per_state;
            for (word_index, mut word) in
                state_words[start..start + words_per_state].iter().copied().enumerate()
            {
                while word != 0 {
                    let bit = word_index * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if bit < variable_count {
                        bit_counts[bit] += 1;
                    }
                }
            }
            let (start, end) =
                (csr_offsets[current.0] as usize, csr_offsets[current.0 + 1] as usize);
            for &tx in &csr_transitions[start..end] {
                let next = lts.transition(TransitionId(tx as usize)).to();
                if !visited[next.0] {
                    visited[next.0] = true;
                    queue.push_back(next);
                }
            }
        }
        let bit_lists = (0..variable_count).map(|_| OnceLock::new()).collect();
        let reads_by_pair = (0..actor_slots * field_slots).map(|_| OnceLock::new()).collect();

        LtsIndex {
            transition_count,
            space: space.clone(),
            actors,
            fields,
            purposes,
            action_col,
            actor_col,
            purpose_col,
            words_per_transition,
            field_words,
            by_action,
            by_actor,
            by_field,
            by_actor_action,
            action_field_cover,
            csr_offsets,
            csr_transitions,
            reachable,
            words_per_state,
            state_words,
            bit_counts,
            bit_lists,
            reads_by_pair,
        }
    }

    /// Number of transitions the index covers (the LTS's transition count at
    /// build time).
    pub fn transition_count(&self) -> usize {
        self.transition_count
    }

    /// A stable fingerprint of everything a persisted artefact keyed on this
    /// index depends on: the [`VarSpace`] layout (bit assignment of the
    /// state variables) plus the interned actor and field vocabularies (the
    /// dense indices events resolve through). A monitor snapshot taken
    /// against one index must only be resumed against an index with the same
    /// fingerprint — `resume_from` in `privacy-runtime` enforces exactly
    /// that. Deterministic across processes (FxHash has no random seed).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = crate::hash::FxHasher::default();
        self.space.fingerprint().hash(&mut hasher);
        self.actors.len().hash(&mut hasher);
        for actor in self.actors.items() {
            actor.hash(&mut hasher);
        }
        self.fields.len().hash(&mut hasher);
        for field in self.fields.items() {
            field.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The interned index of an actor, if any transition or space entry
    /// mentions it.
    pub fn actor_index(&self, actor: &ActorId) -> Option<u32> {
        self.actors.get(actor)
    }

    /// The interned index of a field, if any transition or space entry
    /// mentions it.
    pub fn field_index(&self, field: &FieldId) -> Option<u32> {
        self.fields.get(field)
    }

    /// The interned actors, in index order.
    pub fn actors(&self) -> &[ActorId] {
        self.actors.items()
    }

    /// The interned fields, in index order.
    pub fn fields(&self) -> &[FieldId] {
        self.fields.items()
    }

    /// The action kind of a transition.
    pub fn action_of(&self, transition: u32) -> ActionKind {
        ActionKind::ALL[self.action_col[transition as usize] as usize]
    }

    /// The actor of a transition.
    pub fn actor_of(&self, transition: u32) -> &ActorId {
        self.actors
            .resolve(self.actor_col[transition as usize])
            .expect("actor column indices always resolve")
    }

    /// The interned actor index of a transition.
    pub fn actor_index_of(&self, transition: u32) -> u32 {
        self.actor_col[transition as usize]
    }

    /// The purpose of a transition, if its label declares one.
    pub fn purpose_of(&self, transition: u32) -> Option<&Purpose> {
        match self.purpose_col[transition as usize] {
            NO_PURPOSE => None,
            purpose => self.purposes.resolve(purpose),
        }
    }

    /// The interned purpose index of a value, if any transition declares it.
    pub fn purpose_index(&self, purpose: &Purpose) -> Option<u32> {
        self.purposes.get(purpose)
    }

    /// The interned purpose index of a transition, or `None`.
    pub fn purpose_index_of(&self, transition: u32) -> Option<u32> {
        match self.purpose_col[transition as usize] {
            NO_PURPOSE => None,
            purpose => Some(purpose),
        }
    }

    /// Ascending transition ids of all transitions with the given action.
    pub fn transitions_of_kind(&self, action: ActionKind) -> &[u32] {
        &self.by_action[action_index(action)]
    }

    /// Ascending transition ids of all transitions by the given actor.
    pub fn transitions_by_actor(&self, actor: &ActorId) -> &[u32] {
        match self.actors.get(actor) {
            Some(actor) => &self.by_actor[actor as usize],
            None => EMPTY_TRANSITIONS,
        }
    }

    /// Ascending transition ids of the given actor's transitions of the
    /// given action kind — e.g. every `read` by the Administrator.
    pub fn transitions_by_actor_of_kind(&self, actor: &ActorId, action: ActionKind) -> &[u32] {
        match self.actors.get(actor) {
            Some(actor) => &self.by_actor_action[actor as usize * ACTIONS + action_index(action)],
            None => EMPTY_TRANSITIONS,
        }
    }

    /// Ascending transition ids of all transitions whose label involves the
    /// given field.
    pub fn transitions_involving_field(&self, field: &FieldId) -> &[u32] {
        match self.fields.get(field) {
            Some(field) => &self.by_field[field as usize],
            None => EMPTY_TRANSITIONS,
        }
    }

    /// Returns `true` if the transition's label involves the interned field.
    pub fn involves_field(&self, transition: u32, field: u32) -> bool {
        let word =
            self.field_words[transition as usize * self.words_per_transition + field as usize / 64];
        word & (1u64 << (field % 64)) != 0
    }

    /// Returns `true` if the transition's label involves at least one field
    /// of the mask (as produced by [`LtsIndex::field_mask`]).
    pub fn involves_any(&self, transition: u32, mask: &[u64]) -> bool {
        let start = transition as usize * self.words_per_transition;
        self.field_words[start..start + self.words_per_transition]
            .iter()
            .zip(mask)
            .any(|(w, m)| w & m != 0)
    }

    /// Returns `true` if the transition's label carries at least one field.
    pub fn has_fields(&self, transition: u32) -> bool {
        let start = transition as usize * self.words_per_transition;
        self.field_words[start..start + self.words_per_transition].iter().any(|w| *w != 0)
    }

    /// Packs a set of fields into a bitset aligned with the per-transition
    /// field columns. Fields the index never saw are ignored (no transition
    /// can involve them).
    pub fn field_mask<'a>(&self, fields: impl IntoIterator<Item = &'a FieldId>) -> Vec<u64> {
        let mut mask = vec![0u64; self.words_per_transition];
        for field in fields {
            if let Some(field) = self.fields.get(field) {
                mask[field as usize / 64] |= 1u64 << (field % 64);
            }
        }
        mask
    }

    /// Returns `true` if some transition of the given action kind involves
    /// the field — the right-to-erasure probe (`kind = Delete`).
    pub fn kind_covers_field(&self, action: ActionKind, field: &FieldId) -> bool {
        match self.fields.get(field) {
            Some(field) => {
                self.action_field_cover[action_index(action)][field as usize / 64]
                    & (1u64 << (field % 64))
                    != 0
            }
            None => false,
        }
    }

    /// Ascending ids of the `read` transitions by `actor` whose label
    /// involves `field`: the actor's read posting list filtered by the
    /// field's bit. The list depends only on the pair and the snapshot, so
    /// it is materialised on first request, memoised per interned pair, and
    /// every caller shares that one allocation. Empty for an actor or field
    /// the index never saw.
    pub fn reads_involving(&self, actor: &ActorId, field: &FieldId) -> Arc<[TransitionId]> {
        let (Some(actor), Some(field)) = (self.actors.get(actor), self.fields.get(field)) else {
            return Arc::from([]);
        };
        let pair = actor as usize * self.fields.len() + field as usize;
        Arc::clone(self.reads_by_pair[pair].get_or_init(|| {
            self.by_actor_action[actor as usize * ACTIONS + action_index(ActionKind::Read)]
                .iter()
                .filter(|&&tx| self.involves_field(tx, field))
                .map(|&tx| TransitionId(tx as usize))
                .collect()
        }))
    }

    /// The outgoing transition ids of a state (CSR probe).
    pub fn outgoing_transitions(&self, state: StateId) -> &[u32] {
        let (start, end) =
            (self.csr_offsets[state.0] as usize, self.csr_offsets[state.0 + 1] as usize);
        &self.csr_transitions[start..end]
    }

    /// The reachable states in the breadth-first order of
    /// [`Lts::reachable`].
    pub fn reachable(&self) -> &[StateId] {
        &self.reachable
    }

    /// The reachable states (in BFS order) in which `actor` **has
    /// identified** `field`.
    pub fn states_where_has(&self, actor: &ActorId, field: &FieldId) -> &[StateId] {
        self.states_of_variable(actor, field, VarKind::Has)
    }

    /// The reachable states (in BFS order) in which `actor` **could
    /// identify** `field`.
    pub fn states_where_could(&self, actor: &ActorId, field: &FieldId) -> &[StateId] {
        self.states_of_variable(actor, field, VarKind::Could)
    }

    /// The reachable states (in BFS order) in which the given state variable
    /// is true. Empty for (actor, field) pairs outside the variable space.
    /// The list is materialised on first request and memoised (most
    /// analyses probe only a fraction of the variables); emptiness is
    /// answered from the eagerly-built counts without materialising.
    pub fn states_of_variable(
        &self,
        actor: &ActorId,
        field: &FieldId,
        kind: VarKind,
    ) -> &[StateId] {
        match self.space_bit(actor, field, kind) {
            Some(bit) => {
                let count = self.bit_counts[bit] as usize;
                if count == 0 {
                    return EMPTY_STATES;
                }
                self.bit_lists[bit].get_or_init(|| {
                    let mut states = Vec::with_capacity(count);
                    states.extend(
                        self.reachable.iter().copied().filter(|state| self.state_bit(*state, bit)),
                    );
                    states
                })
            }
            None => EMPTY_STATES,
        }
    }

    /// How many reachable states have the given state variable true.
    pub fn count_states_of_variable(
        &self,
        actor: &ActorId,
        field: &FieldId,
        kind: VarKind,
    ) -> usize {
        self.space_bit(actor, field, kind).map_or(0, |bit| self.bit_counts[bit] as usize)
    }

    /// Returns `true` if some reachable state lets `actor` identify `field`
    /// (`has ∨ could`) — the [`crate::query::LtsQuery::can_actor_identify`]
    /// probe. Answered from the per-variable counts in O(1).
    pub fn can_actor_identify(&self, actor: &ActorId, field: &FieldId) -> bool {
        self.count_states_of_variable(actor, field, VarKind::Has) > 0
            || self.count_states_of_variable(actor, field, VarKind::Could) > 0
    }

    /// The packed state-variable bit of the `(actor, field, kind)` triple,
    /// addressed by **interned** indices — the point lookup the runtime
    /// monitor resolves events with. Interning seeds the variable space
    /// first, so an interned index below the space's actor/field count *is*
    /// the space index (`interned_ids_align_with_space_indices` pins this);
    /// indices outside the space (label-only vocabulary) resolve to `None`.
    #[inline]
    pub fn bit_index_of(&self, actor: u32, field: u32, kind: VarKind) -> Option<usize> {
        self.space.bit_at(actor as usize, field as usize, kind)
    }

    /// [`LtsIndex::can_actor_identify`] by interned indices: `true` if some
    /// reachable state lets the actor identify the field (`has ∨ could`).
    /// O(1) from the per-variable counts; `false` outside the space.
    pub fn can_actor_identify_indices(&self, actor: u32, field: u32) -> bool {
        self.bit_index_of(actor, field, VarKind::Has)
            .is_some_and(|bit| self.bit_counts[bit] > 0 || self.bit_counts[bit + 1] > 0)
    }

    #[inline]
    fn state_bit(&self, state: StateId, bit: usize) -> bool {
        (self.state_words[state.0 * self.words_per_state + bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// The variable space of the indexed LTS.
    pub fn space(&self) -> &VarSpace {
        &self.space
    }

    fn space_bit(&self, actor: &ActorId, field: &FieldId, kind: VarKind) -> Option<usize> {
        self.space.bit_index(actor, field, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::TransitionLabel;
    use crate::state::PrivacyState;
    use privacy_model::Purpose;

    fn doctor() -> ActorId {
        ActorId::new("Doctor")
    }

    fn admin() -> ActorId {
        ActorId::new("Admin")
    }

    fn name() -> FieldId {
        FieldId::new("Name")
    }

    fn diagnosis() -> FieldId {
        FieldId::new("Diagnosis")
    }

    /// s0 --collect(Doctor,{Name})--> s1 --create(Doctor,{Diagnosis})--> s2
    /// --read(Admin,{Diagnosis})--> s3, plus an unreachable state s4.
    fn sample_lts() -> Lts {
        let space = VarSpace::new([doctor(), admin()], [name(), diagnosis()]);
        let mut lts = Lts::new(space.clone());
        let s0 = lts.initial();
        let s1 = lts.intern(PrivacyState::absolute(&space).with_has(&space, &doctor(), &name()));
        let s2 = lts.intern(lts.state(s1).clone().with_could(&space, &admin(), &diagnosis()));
        let s3 = lts.intern(lts.state(s2).clone().with_has(&space, &admin(), &diagnosis()));
        lts.add_transition(
            s0,
            s1,
            TransitionLabel::new(ActionKind::Collect, doctor(), [name()], None)
                .with_purpose(Purpose::new("intake").unwrap()),
        );
        lts.add_transition(
            s1,
            s2,
            TransitionLabel::new(ActionKind::Create, doctor(), [diagnosis()], None),
        );
        lts.add_transition(
            s2,
            s3,
            TransitionLabel::new(ActionKind::Read, admin(), [diagnosis()], None),
        );
        // An unreachable state: its bits must not appear in the postings.
        lts.intern(PrivacyState::absolute(&space).with_has(&space, &admin(), &name()));
        lts
    }

    #[test]
    fn action_index_matches_action_kind_all_order() {
        for (position, action) in ActionKind::ALL.iter().enumerate() {
            assert_eq!(action_index(*action), position, "{action} misaligned with ALL");
        }
        assert_eq!(ACTIONS, ActionKind::ALL.len());
    }

    #[test]
    fn posting_lists_are_ascending_and_complete() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        assert_eq!(index.transition_count(), 3);
        assert_eq!(index.transitions_of_kind(ActionKind::Read), &[2]);
        assert_eq!(index.transitions_of_kind(ActionKind::Delete), EMPTY_TRANSITIONS);
        assert_eq!(index.transitions_by_actor(&doctor()), &[0, 1]);
        assert_eq!(index.transitions_by_actor(&ActorId::new("Ghost")), EMPTY_TRANSITIONS);
        assert_eq!(index.transitions_by_actor_of_kind(&doctor(), ActionKind::Create), &[1]);
        assert_eq!(index.transitions_involving_field(&diagnosis()), &[1, 2]);
        assert_eq!(index.transitions_involving_field(&FieldId::new("Ghost")), EMPTY_TRANSITIONS);
    }

    #[test]
    fn read_lists_are_memoised_and_shared_per_pair() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        assert_eq!(&*index.reads_involving(&admin(), &diagnosis()), &[TransitionId(2)]);
        assert!(index.reads_involving(&admin(), &name()).is_empty());
        // The doctor only collects and creates: no reads.
        assert!(index.reads_involving(&doctor(), &diagnosis()).is_empty());
        assert!(index.reads_involving(&ActorId::new("Ghost"), &diagnosis()).is_empty());
        assert!(index.reads_involving(&admin(), &FieldId::new("Ghost")).is_empty());
        // Every caller, and every clone of the index, shares one allocation.
        let first = index.reads_involving(&admin(), &diagnosis());
        assert!(Arc::ptr_eq(&first, &index.reads_involving(&admin(), &diagnosis())));
        assert!(Arc::ptr_eq(&first, &index.clone().reads_involving(&admin(), &diagnosis())));
    }

    #[test]
    fn columns_resolve_actions_actors_and_purposes() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        assert_eq!(index.action_of(0), ActionKind::Collect);
        assert_eq!(index.action_of(2), ActionKind::Read);
        assert_eq!(index.actor_of(2), &admin());
        assert_eq!(index.purpose_of(0), Some(&Purpose::new("intake").unwrap()));
        assert_eq!(index.purpose_of(1), None);
        assert_eq!(
            index.purpose_index_of(0),
            index.purpose_index(&Purpose::new("intake").unwrap())
        );
        assert_eq!(index.purpose_index_of(1), None);
    }

    #[test]
    fn field_bitsets_answer_involvement() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        let diagnosis_idx = index.field_index(&diagnosis()).unwrap();
        assert!(index.involves_field(1, diagnosis_idx));
        assert!(!index.involves_field(0, diagnosis_idx));
        assert!(index.has_fields(0));
        let mask = index.field_mask([&diagnosis(), &FieldId::new("Ghost")]);
        assert!(index.involves_any(2, &mask));
        assert!(!index.involves_any(0, &mask));
        let empty_mask = index.field_mask([] as [&FieldId; 0]);
        assert!(!index.involves_any(0, &empty_mask));
    }

    #[test]
    fn erasure_cover_probe_matches_delete_transitions() {
        let mut lts = sample_lts();
        let index = LtsIndex::build(&lts);
        assert!(!index.kind_covers_field(ActionKind::Delete, &diagnosis()));
        assert!(index.kind_covers_field(ActionKind::Read, &diagnosis()));
        let s0 = lts.initial();
        lts.add_transition(
            s0,
            s0,
            TransitionLabel::new(ActionKind::Delete, doctor(), [diagnosis()], None),
        );
        let index = LtsIndex::build(&lts);
        assert!(index.kind_covers_field(ActionKind::Delete, &diagnosis()));
        assert!(!index.kind_covers_field(ActionKind::Delete, &name()));
    }

    #[test]
    fn csr_adjacency_matches_outgoing() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        for (id, _) in lts.states() {
            let expected: Vec<u32> = lts.outgoing(id).map(|(tid, _)| tid.0 as u32).collect();
            assert_eq!(index.outgoing_transitions(id), expected.as_slice());
        }
    }

    #[test]
    fn reachability_and_state_bit_postings_match_direct_queries() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        assert_eq!(index.reachable(), lts.reachable().as_slice());
        // The unreachable s4 state must not appear anywhere.
        assert_eq!(index.reachable().len(), 4);

        let space = lts.space();
        for actor in space.actors() {
            for field in space.fields() {
                let has: Vec<StateId> = lts
                    .reachable()
                    .into_iter()
                    .filter(|id| lts.state(*id).has(space, actor, field))
                    .collect();
                let could: Vec<StateId> = lts
                    .reachable()
                    .into_iter()
                    .filter(|id| lts.state(*id).could(space, actor, field))
                    .collect();
                assert_eq!(index.states_where_has(actor, field), has.as_slice());
                assert_eq!(index.states_where_could(actor, field), could.as_slice());
                assert_eq!(
                    index.can_actor_identify(actor, field),
                    !has.is_empty() || !could.is_empty()
                );
            }
        }
        // Unknown pairs resolve to empty, never panic.
        assert!(index.states_where_has(&ActorId::new("Ghost"), &name()).is_empty());
        assert!(!index.can_actor_identify(&ActorId::new("Ghost"), &name()));
    }

    #[test]
    fn interned_ids_align_with_space_indices() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        let space = lts.space();
        for actor in space.actors() {
            assert_eq!(index.actor_index(actor).map(|i| i as usize), space.actor_index(actor));
        }
        for field in space.fields() {
            assert_eq!(index.field_index(field).map(|i| i as usize), space.field_index(field));
        }
    }

    #[test]
    fn point_probes_match_name_based_probes() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        let space = lts.space();
        for actor in space.actors() {
            for field in space.fields() {
                let a = index.actor_index(actor).unwrap();
                let f = index.field_index(field).unwrap();
                for kind in [VarKind::Has, VarKind::Could] {
                    assert_eq!(index.bit_index_of(a, f, kind), space.bit_index(actor, field, kind));
                }
                assert_eq!(
                    index.can_actor_identify_indices(a, f),
                    index.can_actor_identify(actor, field)
                );
            }
        }
        // Indices outside the space never resolve to a bit.
        let out = space.actor_count() as u32;
        assert_eq!(index.bit_index_of(out, 0, VarKind::Has), None);
        assert!(!index.can_actor_identify_indices(out, 0));
    }

    #[test]
    fn fingerprints_are_stable_and_vocabulary_sensitive() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        // Rebuilding (at any shard count) reproduces the fingerprint.
        assert_eq!(index.fingerprint(), LtsIndex::build(&lts).fingerprint());
        assert_eq!(index.fingerprint(), LtsIndex::build_with_threads(&lts, Some(3)).fingerprint());
        // A space with fewer actors fingerprints differently, as does one
        // with the same vocabulary in a different order (the bit layout
        // changes even though the sets are equal).
        let smaller = VarSpace::new([doctor()], [name(), diagnosis()]);
        let reordered = VarSpace::new([admin(), doctor()], [name(), diagnosis()]);
        assert_ne!(lts.space().fingerprint(), smaller.fingerprint());
        assert_ne!(lts.space().fingerprint(), reordered.fingerprint());
    }

    // The sharded-build == sequential-build equivalence is pinned over
    // random models (and forced shard counts) by
    // `sharded_index_build_matches_sequential_build_on_random_models` in
    // `tests/differential.rs`, which owns the full-surface index-equality
    // checker.
}
