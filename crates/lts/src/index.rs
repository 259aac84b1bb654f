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
//! [`LtsIndex::build`] counts the LTS's label-id column once, fills the
//! posting lists in a second pass over it, and materialises:
//!
//! * **Label tables** — per distinct label: the action kind, the interned
//!   actor, the interned purpose and a packed `u64` bitset of the interned
//!   fields it carries (identifier interning reuses
//!   [`privacy_model::intern::Interner`], the same dense-index machinery the
//!   generation engine compiles flows with). A per-transition probe reads
//!   the transition's label id from the LTS's edge column, which the index
//!   shares rather than copies.
//! * **Posting lists** — ascending transition-id lists per action kind, per
//!   actor, per field and per (actor, action kind) pair, so "all reads by
//!   the Administrator touching `Diagnosis`" is a probe plus a bitset test
//!   instead of a scan.
//! * **Action field cover** — per action kind, the union bitset of fields
//!   any transition of that kind touches (the right-to-erasure probe).
//! * **CSR adjacency** — the state → outgoing-transition relation flattened
//!   into two dense arrays (offsets + transition ids), shared with the LTS.
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
//! The LTS an index is built over never changes, so the index shares its
//! edge column and CSR and stays exact for the LTS's lifetime. A risk
//! analysis that annotates builds a new LTS; the index keeps describing the
//! one it was built over.

use crate::label::ActionKind;
use crate::lts::{Csr, Lts, StateId, TransitionId, LABEL_MASK};
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

/// The columnar analysis index over one [`Lts`].
///
/// # Examples
///
/// ```
/// use privacy_lts::{ActionKind, LtsBuilder, LtsIndex, PrivacyState, TransitionLabel, VarSpace};
/// use privacy_model::{ActorId, FieldId};
///
/// let space = VarSpace::new([ActorId::new("Doctor")], [FieldId::new("Diagnosis")]);
/// let mut builder = LtsBuilder::new(space.clone());
/// let s0 = builder.initial();
/// let s1 = builder.intern(PrivacyState::absolute(&space).with_has(
///     &space,
///     &ActorId::new("Doctor"),
///     &FieldId::new("Diagnosis"),
/// ));
/// builder.add_transition(
///     s0,
///     s1,
///     TransitionLabel::new(ActionKind::Read, "Doctor", [FieldId::new("Diagnosis")], None),
/// );
/// let lts = builder.build();
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
    /// The LTS's edge column at build time: a transition's label id is its
    /// word's low bits ([`LABEL_MASK`]).
    edges: Arc<Vec<u64>>,
    /// Per label id: `action_index` of its action kind.
    label_action: Vec<u8>,
    /// Per label id: interned actor index.
    label_actor: Vec<u32>,
    /// Per label id: interned purpose index, or [`NO_PURPOSE`].
    label_purpose: Vec<u32>,
    /// `u64` words per field bitset.
    field_words_per_label: usize,
    /// Packed field bitsets, `field_words_per_label` words per label id.
    label_fields: Vec<u64>,
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
    /// The LTS's outgoing lists at build time.
    csr: Arc<Csr>,
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
    /// Builds the index on the calling thread: one pass counts the
    /// transitions per label id, a second fills posting lists sized exactly
    /// from those counts, and one breadth-first traversal finds the
    /// reachable states. The CSR and the edge column are shared with the
    /// LTS, not copied.
    pub fn build(lts: &Lts) -> LtsIndex {
        let space = lts.space();
        let transition_count = lts.transition_count();
        let edges = Arc::clone(&lts.edges);
        let labels = &lts.labels;
        let label_of = |edge: u64| (edge & LABEL_MASK) as usize;

        // Transitions per label id, and the label ids in the order of their
        // first transition.
        let mut counts = vec![0usize; labels.len()];
        let mut first_seen = Vec::new();
        for &edge in edges.iter() {
            let label = label_of(edge);
            if counts[label] == 0 {
                first_seen.push(label);
            }
            counts[label] += 1;
        }

        // Interning: the variable space first (so space queries resolve even
        // for actors and fields no transition mentions), then each label's
        // vocabulary in first-transition order.
        let mut actors: Interner<ActorId> = space.actors().iter().cloned().collect();
        let mut fields: Interner<FieldId> = space.fields().iter().cloned().collect();
        let mut purposes: Interner<Purpose> = Interner::new();
        let mut label_action = vec![0u8; labels.len()];
        let mut label_actor = vec![0u32; labels.len()];
        let mut label_purpose = vec![NO_PURPOSE; labels.len()];
        let mut label_field_ids: Vec<Vec<u32>> = vec![Vec::new(); labels.len()];
        for &id in &first_seen {
            let label = &labels[id];
            label_action[id] = action_index(label.action()) as u8;
            label_actor[id] = match actors.get(label.actor()) {
                Some(actor) => actor,
                None => actors.intern(label.actor().clone()),
            };
            if let Some(purpose) = label.purpose() {
                label_purpose[id] = match purposes.get(purpose) {
                    Some(purpose) => purpose,
                    None => purposes.intern(purpose.clone()),
                };
            }
            label_field_ids[id] = label
                .fields()
                .iter()
                .map(|field| match fields.get(field) {
                    Some(field) => field,
                    None => fields.intern(field.clone()),
                })
                .collect();
        }

        // Field bitsets and covers per label, and every posting list's exact
        // length from the label counts.
        let field_words_per_label = fields.len().div_ceil(64).max(1);
        let (actor_slots, field_slots) = (actors.len(), fields.len());
        let mut label_fields = vec![0u64; labels.len() * field_words_per_label];
        let mut action_field_cover = vec![vec![0u64; field_words_per_label]; ACTIONS];
        let mut action_len = vec![0usize; ACTIONS];
        let mut actor_len = vec![0usize; actor_slots];
        let mut field_len = vec![0usize; field_slots];
        let mut actor_action_len = vec![0usize; actor_slots * ACTIONS];
        for &id in &first_seen {
            let (action, actor) = (label_action[id] as usize, label_actor[id] as usize);
            action_len[action] += counts[id];
            actor_len[actor] += counts[id];
            actor_action_len[actor * ACTIONS + action] += counts[id];
            for &field in &label_field_ids[id] {
                let (word, mask) = (field as usize / 64, 1u64 << (field % 64));
                label_fields[id * field_words_per_label + word] |= mask;
                action_field_cover[action][word] |= mask;
                field_len[field as usize] += counts[id];
            }
        }
        let sized = |lens: Vec<usize>| -> Vec<Vec<u32>> {
            lens.into_iter().map(Vec::with_capacity).collect()
        };
        let mut by_action = sized(action_len);
        let mut by_actor = sized(actor_len);
        let mut by_field = sized(field_len);
        let mut by_actor_action = sized(actor_action_len);
        for (tx, &edge) in edges.iter().enumerate() {
            let (id, tx) = (label_of(edge), tx as u32);
            let (action, actor) = (label_action[id] as usize, label_actor[id] as usize);
            by_action[action].push(tx);
            by_actor[actor].push(tx);
            by_actor_action[actor * ACTIONS + action].push(tx);
            for &field in &label_field_ids[id] {
                by_field[field as usize].push(tx);
            }
        }

        // Copy every state's packed variable words so the lazy per-variable
        // lists can be materialised from the index alone.
        let state_count = lts.state_count();
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
        let csr = Arc::clone(&lts.csr);
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
            for &tx in csr.outgoing(current.0) {
                let next = (edges[tx as usize] >> 32) as usize;
                if !visited[next] {
                    visited[next] = true;
                    queue.push_back(StateId(next));
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
            edges,
            label_action,
            label_actor,
            label_purpose,
            field_words_per_label,
            label_fields,
            by_action,
            by_actor,
            by_field,
            by_actor_action,
            action_field_cover,
            csr,
            reachable,
            words_per_state,
            state_words,
            bit_counts,
            bit_lists,
            reads_by_pair,
        }
    }

    /// The label id of a transition.
    #[inline]
    fn label(&self, transition: u32) -> usize {
        (self.edges[transition as usize] & LABEL_MASK) as usize
    }

    /// The packed field bitset of a transition's label.
    #[inline]
    fn field_bits(&self, transition: u32) -> &[u64] {
        let start = self.label(transition) * self.field_words_per_label;
        &self.label_fields[start..start + self.field_words_per_label]
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
        ActionKind::ALL[self.label_action[self.label(transition)] as usize]
    }

    /// The actor of a transition.
    pub fn actor_of(&self, transition: u32) -> &ActorId {
        self.actors
            .resolve(self.label_actor[self.label(transition)])
            .expect("actor column indices always resolve")
    }

    /// The interned actor index of a transition.
    pub fn actor_index_of(&self, transition: u32) -> u32 {
        self.label_actor[self.label(transition)]
    }

    /// The purpose of a transition, if its label declares one.
    pub fn purpose_of(&self, transition: u32) -> Option<&Purpose> {
        match self.label_purpose[self.label(transition)] {
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
        match self.label_purpose[self.label(transition)] {
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
        let word = self.label(transition) * self.field_words_per_label + field as usize / 64;
        self.label_fields[word] & (1u64 << (field % 64)) != 0
    }

    /// Returns `true` if the transition's label involves at least one field
    /// of the mask (as produced by [`LtsIndex::field_mask`]).
    pub fn involves_any(&self, transition: u32, mask: &[u64]) -> bool {
        self.field_bits(transition).iter().zip(mask).any(|(w, m)| w & m != 0)
    }

    /// Returns `true` if the transition's label carries at least one field.
    pub fn has_fields(&self, transition: u32) -> bool {
        self.field_bits(transition).iter().any(|w| *w != 0)
    }

    /// Packs a set of fields into a bitset aligned with the per-transition
    /// field columns. Fields the index never saw are ignored (no transition
    /// can involve them).
    pub fn field_mask<'a>(&self, fields: impl IntoIterator<Item = &'a FieldId>) -> Vec<u64> {
        let mut mask = vec![0u64; self.field_words_per_label];
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
            // Which labels carry the field, resolved once per label rather
            // than once per transition.
            let (word, mask) = (field as usize / 64, 1u64 << (field % 64));
            let carries: Vec<bool> = self
                .label_fields
                .chunks_exact(self.field_words_per_label)
                .map(|bits| bits[word] & mask != 0)
                .collect();
            let edges: &[u64] = &self.edges;
            self.by_actor_action[actor as usize * ACTIONS + action_index(ActionKind::Read)]
                .iter()
                .filter(|&&tx| carries[(edges[tx as usize] & LABEL_MASK) as usize])
                .map(|&tx| TransitionId(tx as usize))
                .collect()
        }))
    }

    /// The outgoing transition ids of a state (CSR probe).
    pub fn outgoing_transitions(&self, state: StateId) -> &[u32] {
        self.csr.outgoing(state.0)
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
    use crate::lts::LtsBuilder;
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
        let mut builder = LtsBuilder::new(space.clone());
        let s0 = builder.initial();
        let s1 =
            builder.intern(PrivacyState::absolute(&space).with_has(&space, &doctor(), &name()));
        let s2 =
            builder.intern(builder.state(s1).clone().with_could(&space, &admin(), &diagnosis()));
        let s3 = builder.intern(builder.state(s2).clone().with_has(&space, &admin(), &diagnosis()));
        builder.add_transition(
            s0,
            s1,
            TransitionLabel::new(ActionKind::Collect, doctor(), [name()], None)
                .with_purpose(Purpose::new("intake").unwrap()),
        );
        builder.add_transition(
            s1,
            s2,
            TransitionLabel::new(ActionKind::Create, doctor(), [diagnosis()], None),
        );
        builder.add_transition(
            s2,
            s3,
            TransitionLabel::new(ActionKind::Read, admin(), [diagnosis()], None),
        );
        // An unreachable state: its bits must not appear in the postings.
        builder.intern(PrivacyState::absolute(&space).with_has(&space, &admin(), &name()));
        builder.build()
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
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        assert!(!index.kind_covers_field(ActionKind::Delete, &diagnosis()));
        assert!(index.kind_covers_field(ActionKind::Read, &diagnosis()));
        let mut builder = LtsBuilder::from_lts(&lts);
        let s0 = builder.initial();
        builder.add_transition(
            s0,
            s0,
            TransitionLabel::new(ActionKind::Delete, doctor(), [diagnosis()], None),
        );
        let index = LtsIndex::build(&builder.build());
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
        // Rebuilding reproduces the fingerprint.
        assert_eq!(index.fingerprint(), LtsIndex::build(&lts).fingerprint());
        // A space with fewer actors fingerprints differently, as does one
        // with the same vocabulary in a different order (the bit layout
        // changes even though the sets are equal).
        let smaller = VarSpace::new([doctor()], [name(), diagnosis()]);
        let reordered = VarSpace::new([admin(), doctor()], [name(), diagnosis()]);
        assert_ne!(lts.space().fingerprint(), smaller.fingerprint());
        assert_ne!(lts.space().fingerprint(), reordered.fingerprint());
    }

    // Every probe is held against a label scan of the LTS over random
    // models by `index_probes_equal_a_label_scan_on_random_models` in
    // `tests/differential.rs`.
}
