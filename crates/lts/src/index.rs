//! The analysis index: a one-pass compilation of an [`Lts`] into the tables
//! the risk and compliance analyses probe instead of scanning it.
//!
//! The checkers in `privacy-compliance` and `privacy-risk` originally
//! answered every question — *which transitions read this field?*, *in which
//! reachable states could this actor identify this datum?* — by walking all
//! transitions (or all reachable states) once **per policy statement** or
//! per (actor, field) pair, comparing string-keyed labels each time. On the
//! healthcare case study that is 1.4M label comparisons per statement.
//!
//! Every such question about a transition is a question about its label —
//! its action, actor, fields and purpose — and an LTS has few labels: the
//! healthcare LTS with potential reads has 33 label ids for 1,430,952
//! transitions. So the index costs what the model's vocabulary costs, plus
//! one `u32` per transition. [`LtsIndex::build`] materialises:
//!
//! * **Label groups** — one transitions-by-label CSR, filled by a counting
//!   sort of the LTS's label-id column: each label's transitions, ascending.
//!   A selection ([`LtsIndex::transitions_where`], [`LabelMerge::select`])
//!   decides once per label, then merges the chosen groups in ascending
//!   transition order; an emptiness or cover probe is an OR over
//!   [`LtsIndex::labels`].
//! * **Vocabulary** — the interned actors and fields, the variable space's
//!   first and then each label's in the order of its first transition
//!   (identifier interning reuses [`privacy_model::intern::Interner`], the
//!   same dense-index machinery the generation engine compiles flows with).
//!   The runtime monitor resolves events through it, and
//!   [`LtsIndex::fingerprint`] hashes it.
//! * **State-bit lists** — per Boolean state variable of the [`VarSpace`],
//!   how many states of [`Lts::reachable`] have it true, and the list of
//!   those states in that breadth-first order, materialised on first
//!   request from the LTS's states, which the index shares. "Every reachable
//!   state where the Researcher *could identify* `Diagnosis`" becomes a
//!   slice lookup.
//! * **Per-pair read lists** — per interned (actor, field) pair, the actor's
//!   `read` transitions involving the field, merged from the matching label
//!   groups on first request and handed out as one shared `Arc`
//!   ([`LtsIndex::reads_involving`]).
//!
//! The LTS an index is built over never changes, so the index stays exact
//! for the LTS's lifetime. A risk analysis that annotates builds a new LTS;
//! the index keeps describing the one it was built over.

use crate::label::{ActionKind, TransitionLabel};
use crate::lts::{Csr, Lts, StateId, TransitionId, LABEL_MASK};
use crate::space::{VarKind, VarSpace};
use crate::state::PrivacyState;
use privacy_model::{ActorId, FieldId, Interner};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// An empty state list, returned for variables no reachable state sets.
const EMPTY_STATES: &[StateId] = &[];

/// The analysis index over one [`Lts`].
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
/// assert_eq!(index.transitions_where(|label| label.action() == ActionKind::Read).count(), 1);
/// assert_eq!(index.states_where_has(&doctor, &diagnosis), &[s1]);
/// ```
#[derive(Debug, Clone)]
pub struct LtsIndex {
    /// The variable space of the indexed LTS (owns the state-bit layout).
    space: VarSpace,
    actors: Interner<ActorId>,
    fields: Interner<FieldId>,
    /// The LTS's label table, indexed by label id.
    labels: Vec<Arc<TransitionLabel>>,
    /// The ids of the labels that label some transition, in the order of
    /// their first transition.
    live: Vec<u32>,
    /// `u64` words per field bitset.
    field_words: usize,
    /// Per label id: the bitset of its interned fields, `field_words` words.
    label_fields: Vec<u64>,
    /// Per label id: its transitions, ascending.
    by_label: Csr,
    /// The LTS's states, shared.
    states: Arc<Vec<PrivacyState>>,
    /// Reachable states, in the breadth-first order of [`Lts::reachable`].
    reachable: Vec<StateId>,
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
    /// Builds the index on the calling thread: a counting sort files the
    /// transitions by label id, and one pass over [`Lts::reachable`] counts
    /// the state variables. The states are shared with the LTS, not copied.
    pub fn build(lts: &Lts) -> LtsIndex {
        let space = lts.space();
        let labels = lts.labels.clone();
        let by_label =
            Csr::build(labels.len(), lts.edges.iter().map(|&edge| (edge & LABEL_MASK) as usize));

        // Interning: the variable space first (so space queries resolve even
        // for actors and fields no transition mentions), then each label's
        // vocabulary in the order of its first transition.
        let mut live: Vec<u32> = (0..labels.len() as u32)
            .filter(|&label| !by_label.row(label as usize).is_empty())
            .collect();
        live.sort_unstable_by_key(|&label| by_label.row(label as usize)[0]);
        let mut actors: Interner<ActorId> = space.actors().iter().cloned().collect();
        let mut fields: Interner<FieldId> = space.fields().iter().cloned().collect();
        for label in live.iter().map(|&label| &labels[label as usize]) {
            actors.intern(label.actor().clone());
            for field in label.fields() {
                fields.intern(field.clone());
            }
        }
        let field_words = fields.len().div_ceil(64).max(1);
        let mut label_fields = vec![0u64; labels.len() * field_words];
        for label in live.iter().map(|&label| label as usize) {
            for field in labels[label].fields().iter().filter_map(|field| fields.get(field)) {
                label_fields[label * field_words + field as usize / 64] |= 1 << (field % 64);
            }
        }

        // Per-variable truth over the reachable states (the full
        // per-variable state lists are built lazily).
        let states = Arc::clone(&lts.states);
        let mut reachable = lts.reachable();
        reachable.shrink_to_fit();
        let variable_count = space.variable_count();
        let mut bit_counts = vec![0u32; variable_count];
        for state in &reachable {
            for (word_index, mut word) in states[state.0].words().iter().copied().enumerate() {
                while word != 0 {
                    // Bits past the variable count are not variables.
                    if let Some(count) =
                        bit_counts.get_mut(word_index * 64 + word.trailing_zeros() as usize)
                    {
                        *count += 1;
                    }
                    word &= word - 1;
                }
            }
        }
        let bit_lists = (0..variable_count).map(|_| OnceLock::new()).collect();
        let pairs = actors.len() * fields.len();
        let reads_by_pair = (0..pairs).map(|_| OnceLock::new()).collect();

        LtsIndex {
            space: space.clone(),
            actors,
            fields,
            labels,
            live,
            field_words,
            label_fields,
            by_label,
            states,
            reachable,
            bit_counts,
            bit_lists,
            reads_by_pair,
        }
    }

    /// Number of transitions the index covers (the LTS's transition count at
    /// build time).
    pub fn transition_count(&self) -> usize {
        self.by_label.len()
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

    /// The labels that label at least one transition, in the order of their
    /// first transition: a probe that asks whether *some* transition has a
    /// property asks it of these.
    pub fn labels(&self) -> impl Iterator<Item = &TransitionLabel> {
        self.label_ids().map(|label| &*self.labels[label])
    }

    /// The ids of the labels that label at least one transition.
    fn label_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().map(|&label| label as usize)
    }

    /// The fields of the labels `matches` accepts, as a bitset over the
    /// interned field ids (field `f` is bit `f % 64` of word `f / 64`): an OR
    /// over the label rows, so a cover probe such as "which processed fields
    /// does some delete touch" costs the label count, not the transition
    /// count.
    pub fn fields_where(&self, mut matches: impl FnMut(&TransitionLabel) -> bool) -> Vec<u64> {
        let mut cover = vec![0u64; self.field_words];
        for label in self.label_ids().filter(|&label| matches(&self.labels[label])) {
            let row = &self.label_fields[label * self.field_words..][..self.field_words];
            cover.iter_mut().zip(row).for_each(|(word, bits)| *word |= bits);
        }
        cover
    }

    /// The transitions whose label `matches` accepts, in ascending id
    /// order: `matches` is asked once per label, and the accepted labels'
    /// groups are merged. Use [`LabelMerge::select`] to reuse the merge's
    /// storage across selections.
    pub fn transitions_where(
        &self,
        matches: impl FnMut(&TransitionLabel) -> bool,
    ) -> LabelMerge<'_> {
        let mut merge = LabelMerge::default();
        merge.select(self, matches);
        merge
    }

    /// Ascending ids of the `read` transitions by `actor` whose label
    /// involves `field`: the merged groups of the actor's read labels that
    /// carry the field. The list depends only on the pair and the snapshot,
    /// so it is materialised on first request, memoised per interned pair,
    /// and every caller shares that one allocation. Empty for an actor or
    /// field the index never saw.
    pub fn reads_involving(&self, actor: &ActorId, field: &FieldId) -> Arc<[TransitionId]> {
        let (Some(a), Some(f)) = (self.actors.get(actor), self.fields.get(field)) else {
            return Arc::from([]);
        };
        let pair = a as usize * self.fields.len() + f as usize;
        Arc::clone(self.reads_by_pair[pair].get_or_init(|| {
            self.transitions_where(|label| {
                label.action() == ActionKind::Read
                    && label.actor() == actor
                    && label.involves_field(field)
            })
            .collect()
        }))
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
                    let (word, shift) = (bit / 64, bit % 64);
                    let mut states = Vec::with_capacity(count);
                    states.extend(
                        self.reachable
                            .iter()
                            .copied()
                            .filter(|state| (self.states[state.0].words()[word] >> shift) & 1 == 1),
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

    /// The variable space of the indexed LTS.
    pub fn space(&self) -> &VarSpace {
        &self.space
    }

    fn space_bit(&self, actor: &ActorId, field: &FieldId, kind: VarKind) -> Option<usize> {
        self.space.bit_index(actor, field, kind)
    }
}

/// The ids of a selection of groups, in ascending order: a k-way merge of
/// the groups (each ascending, no two sharing an id) through a min-heap of
/// cursors. [`LabelMerge::select`] restarts it over a selection of an
/// [`LtsIndex`]'s label groups, yielding [`TransitionId`]s;
/// [`LabelMerge::merge`] over any groups, yielding `Id`s (`u32` for the
/// event log's label groups). A restart keeps the heap's storage, so a
/// caller probing many selections allocates once; a selection of no group
/// allocates nothing.
#[derive(Debug)]
pub struct LabelMerge<'a, Id = TransitionId> {
    /// The unvisited rest of each selected group; never empty. Two groups
    /// differ in their first id, so slice order is first-id order.
    cursors: BinaryHeap<Reverse<&'a [u32]>>,
    id: PhantomData<Id>,
}

impl<Id> Default for LabelMerge<'_, Id> {
    fn default() -> Self {
        LabelMerge { cursors: BinaryHeap::new(), id: PhantomData }
    }
}

impl<'a> LabelMerge<'a> {
    /// Restarts the merge over the transitions of `index` whose label
    /// `matches` accepts; `matches` is asked once per label.
    pub fn select(
        &mut self,
        index: &'a LtsIndex,
        mut matches: impl FnMut(&TransitionLabel) -> bool,
    ) -> &mut Self {
        self.merge(
            index
                .label_ids()
                .filter(|&label| matches(&index.labels[label]))
                .map(|label| index.by_label.row(label)),
        )
    }
}

impl<'a, Id> LabelMerge<'a, Id> {
    /// Restarts the merge over `groups`: each ascending, no two sharing an
    /// id. Empty groups are skipped.
    pub fn merge(&mut self, groups: impl IntoIterator<Item = &'a [u32]>) -> &mut Self {
        self.cursors.clear();
        self.cursors.extend(groups.into_iter().filter(|group| !group.is_empty()).map(Reverse));
        self
    }
}

impl<Id: From<u32>> Iterator for LabelMerge<'_, Id> {
    type Item = Id;

    fn next(&mut self) -> Option<Id> {
        let mut top = self.cursors.peek_mut()?;
        let Reverse(group) = *top;
        let (&first, rest) = group.split_first().expect("merge cursors are never empty");
        if rest.is_empty() {
            PeekMut::pop(top);
        } else {
            *top = Reverse(rest);
        }
        Some(Id::from(first))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::RiskAnnotation;
    use crate::lts::LtsBuilder;
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

    fn ids(merge: &mut LabelMerge<'_>) -> Vec<usize> {
        merge.map(|id| id.0).collect()
    }

    #[test]
    fn selections_merge_label_groups_in_ascending_order() {
        // Three labels whose groups interleave: a, b, a, c, b, a.
        let space = VarSpace::new([doctor()], [name()]);
        let mut builder = LtsBuilder::new(space);
        let s0 = builder.initial();
        let label = |action| TransitionLabel::new(action, doctor(), [name()], None);
        for action in [
            ActionKind::Read,
            ActionKind::Collect,
            ActionKind::Read,
            ActionKind::Delete,
            ActionKind::Collect,
            ActionKind::Read,
        ] {
            // Distinct purposes keep equal labels from deduplicating.
            let purpose = Purpose::new(format!("p{}", builder.transition_count())).unwrap();
            builder.add_transition(s0, s0, label(action).with_purpose(purpose));
        }
        let lts = builder.build();
        let index = LtsIndex::build(&lts);
        let reads = |l: &TransitionLabel| l.action() == ActionKind::Read;
        assert_eq!(ids(&mut index.transitions_where(reads)), [0, 2, 5]);
        assert_eq!(ids(&mut index.transitions_where(|l| !reads(l))), [1, 3, 4]);
        assert_eq!(ids(&mut index.transitions_where(|_| true)), [0, 1, 2, 3, 4, 5]);
        assert!(ids(&mut index.transitions_where(|_| false)).is_empty());

        // A reused merge restarts cleanly, even when abandoned half way.
        let mut merge = LabelMerge::default();
        assert_eq!(merge.select(&index, |_| true).next(), Some(TransitionId(0)));
        assert_eq!(ids(merge.select(&index, |l| l.action() != ActionKind::Collect)), [0, 2, 3, 5]);
    }

    #[test]
    fn labels_without_transitions_are_never_selected() {
        let lts = sample_lts();
        let mut builder = LtsBuilder::from_lts(&lts);
        // Annotating the only read leaves its plain label with no transition.
        builder.annotate(TransitionId(2), RiskAnnotation::level(privacy_model::RiskLevel::High));
        let annotated = builder.build();
        let index = LtsIndex::build(&annotated);
        assert_eq!(index.labels().count(), 3);
        assert_eq!(index.labels().filter(|l| l.risk().is_some()).count(), 1);
        let reads = index.transitions_where(|l| l.action() == ActionKind::Read);
        assert_eq!(reads.collect::<Vec<_>>(), [TransitionId(2)]);
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
    fn state_bit_postings_match_direct_queries() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
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
        // The unreachable s4 is the only state where the admin has the name.
        assert!(index.states_where_has(&admin(), &name()).is_empty());
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

    // Every selection is held against a label scan of the LTS over random
    // models by `index_probes_equal_a_label_scan_on_random_models` in
    // `tests/differential.rs`.
}
