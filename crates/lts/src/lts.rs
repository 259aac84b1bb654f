//! The labelled transition system: interned states, labelled transitions and
//! structural queries.
//!
//! Transitions are stored as columns: a `u32` source per transition, and one
//! `target << 32 | risk bit | label id` word per transition over a table of
//! distinct labels. The outgoing lists are one CSR (per-state offsets into a
//! flat list of transition ids), built once when the LTS is. The generation
//! engine hands its own columns over, and [`crate::LtsIndex`] shares the
//! states instead of copying them.
//!
//! An [`Lts`] never changes once built. Every other LTS — the reference
//! generator's, a risk analysis's annotated copy, a hand-built fixture — is
//! appended through an [`LtsBuilder`], which owns the lookup tables that
//! interning and deduplication need and freezes into an `Lts`.

use crate::hash::{hash_words, FxHasher, IdTable};
use crate::label::{RiskAnnotation, TransitionLabel};
use crate::space::VarSpace;
use crate::state::PrivacyState;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Bit of an edge word that marks a risk-transition.
const RISK_BIT: u64 = 1 << 31;

/// The label-id bits of an edge word.
pub(crate) const LABEL_MASK: u64 = RISK_BIT - 1;

/// Index of a state within an [`Lts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub usize);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Index of a transition within an [`Lts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(pub usize);

impl From<u32> for TransitionId {
    fn from(id: u32) -> Self {
        TransitionId(id as usize)
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A view of one labelled transition between two states.
///
/// Transitions generated from the same compiled flow share one label: the
/// view borrows it from the LTS's label table. Two views are equal when
/// their endpoints, risk flags and label values are.
#[derive(Debug, Clone, Copy)]
pub struct Transition<'a> {
    from: StateId,
    edge: u64,
    label: &'a Arc<TransitionLabel>,
}

impl<'a> Transition<'a> {
    /// The source state.
    pub fn from(&self) -> StateId {
        self.from
    }

    /// The target state.
    pub fn to(&self) -> StateId {
        StateId((self.edge >> 32) as usize)
    }

    /// The label.
    pub fn label(&self) -> &'a TransitionLabel {
        self.label
    }

    /// The label's shared allocation, for holders that outlive a borrow of
    /// the LTS (a compliance violation keeps its transition's label so).
    pub fn shared_label(&self) -> &'a Arc<TransitionLabel> {
        self.label
    }

    /// Returns `true` if this is a risk-transition (dotted edge in Fig. 4):
    /// it belongs to no declared service flow but represents an access that
    /// the policy makes possible.
    pub fn is_risk_transition(&self) -> bool {
        self.edge & RISK_BIT != 0
    }
}

impl PartialEq for Transition<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.from == other.from
            && self.edge >> 31 == other.edge >> 31
            && (Arc::ptr_eq(self.label, other.label) || self.label == other.label)
    }
}

impl fmt::Display for Transition<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} --[{}]--> {}", self.from, self.label, self.to())
    }
}

/// Summary statistics of an LTS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LtsStats {
    /// Number of distinct privacy states.
    pub states: usize,
    /// Number of transitions.
    pub transitions: usize,
    /// Number of transitions flagged as risk-transitions.
    pub risk_transitions: usize,
    /// Number of Boolean state variables carried by each state.
    pub state_variables: usize,
    /// `2^state_variables`: the size of the unreduced state space the
    /// data-flow model avoids exploring.
    pub theoretical_states: f64,
}

impl fmt::Display for LtsStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions ({} risk transitions), {} state variables \
             (theoretical state space 2^{} = {:.3e})",
            self.states,
            self.transitions,
            self.risk_transitions,
            self.state_variables,
            self.state_variables,
            self.theoretical_states
        )
    }
}

/// A compressed sparse row: the ids filed under row `r` are
/// `ids[offsets[r]..offsets[r + 1]]`, in ascending id order. An LTS files
/// its transitions by source (its outgoing lists), and an
/// [`crate::LtsIndex`] files them by label.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Csr {
    /// A counting sort of the ids `0..` by their keys: id `i` is filed
    /// under row `keys[i]`, and every key is below `rows`.
    pub(crate) fn build(rows: usize, keys: impl Iterator<Item = usize> + Clone) -> Csr {
        let mut offsets = vec![0u32; rows + 1];
        for key in keys.clone() {
            offsets[key + 1] += 1;
        }
        for row in 0..rows {
            offsets[row + 1] += offsets[row];
        }
        let mut next = offsets.clone();
        let mut ids = vec![0u32; offsets[rows] as usize];
        for (id, key) in keys.enumerate() {
            let at = &mut next[key];
            ids[*at as usize] = id as u32;
            *at += 1;
        }
        Csr { offsets, ids }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of ids over all rows.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The ids filed under `row`, ascending.
    pub(crate) fn row(&self, row: usize) -> &[u32] {
        &self.ids[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }
}

/// A labelled transition system over privacy states, frozen once built.
///
/// Two LTSs are equal when their space, states and transitions (endpoints,
/// risk flags and label values, in id order) are; state 0 is the initial
/// state, and the outgoing lists follow from the transitions.
#[derive(Debug, Clone)]
pub struct Lts {
    space: VarSpace,
    /// The states; `states[0]` is the initial one. Shared with the indexes
    /// built over this LTS.
    pub(crate) states: Arc<Vec<PrivacyState>>,
    /// The distinct labels, indexed by an edge word's low bits.
    pub(crate) labels: Vec<Arc<TransitionLabel>>,
    /// Per transition: its source state.
    sources: Vec<u32>,
    /// Per transition: `target << 32 | risk bit | label id`. Shared by the
    /// clones of this LTS.
    pub(crate) edges: Arc<Vec<u64>>,
    /// The outgoing lists. Shared by the clones of this LTS and by the
    /// builders started from it.
    pub(crate) csr: Arc<Csr>,
}

impl Lts {
    /// Assembles an LTS from its columns and builds its outgoing lists:
    /// `states[0]` is the initial state, and every label id and state id in
    /// `sources` and `edges` is in range.
    pub(crate) fn from_columns(
        space: VarSpace,
        states: Vec<PrivacyState>,
        labels: Vec<Arc<TransitionLabel>>,
        sources: Vec<u32>,
        edges: Vec<u64>,
    ) -> Self {
        let csr = Arc::new(Csr::build(states.len(), sources.iter().map(|&from| from as usize)));
        Lts { space, states: Arc::new(states), labels, sources, edges: Arc::new(edges), csr }
    }

    /// The variable space the states are defined over.
    pub fn space(&self) -> &VarSpace {
        &self.space
    }

    /// The initial state (the absolute privacy state).
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// The state with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this LTS.
    pub fn state(&self, id: StateId) -> &PrivacyState {
        &self.states[id.0]
    }

    /// The transition with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this LTS.
    pub fn transition(&self, id: TransitionId) -> Transition<'_> {
        view(&self.labels, self.sources[id.0], self.edges[id.0])
    }

    /// Iterates over the states with their ids.
    pub fn states(&self) -> impl Iterator<Item = (StateId, &PrivacyState)> {
        self.states.iter().enumerate().map(|(i, s)| (StateId(i), s))
    }

    /// Iterates over the transitions with their ids.
    pub fn transitions(&self) -> impl Iterator<Item = (TransitionId, Transition<'_>)> {
        self.sources
            .iter()
            .zip(self.edges.iter())
            .enumerate()
            .map(|(i, (&from, &edge))| (TransitionId(i), view(&self.labels, from, edge)))
    }

    /// The outgoing transitions of a state, in id order.
    pub fn outgoing(&self, state: StateId) -> impl Iterator<Item = (TransitionId, Transition<'_>)> {
        self.csr.row(state.0).iter().map(move |&tid| {
            let id = TransitionId(tid as usize);
            (id, self.transition(id))
        })
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.sources.len()
    }

    /// The ids of states reachable from the initial state (always includes
    /// the initial state), in breadth-first order.
    pub fn reachable(&self) -> Vec<StateId> {
        let csr = &self.csr;
        let mut visited = vec![false; self.states.len()];
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        visited[0] = true;
        queue.push_back(self.initial());
        while let Some(current) = queue.pop_front() {
            order.push(current);
            for &tid in csr.row(current.0) {
                let next = (self.edges[tid as usize] >> 32) as usize;
                if !visited[next] {
                    visited[next] = true;
                    queue.push_back(StateId(next));
                }
            }
        }
        order
    }

    /// A shortest path (sequence of transition ids) from the initial state to
    /// the first state satisfying `goal`, if one exists.
    pub fn path_to(&self, goal: impl Fn(&PrivacyState) -> bool) -> Option<Vec<TransitionId>> {
        let initial = self.initial();
        if goal(self.state(initial)) {
            return Some(Vec::new());
        }
        let csr = &self.csr;
        let mut visited = vec![false; self.states.len()];
        let mut parent: Vec<Option<TransitionId>> = vec![None; self.states.len()];
        let mut queue = VecDeque::new();
        visited[initial.0] = true;
        queue.push_back(initial);
        while let Some(current) = queue.pop_front() {
            for &tid in csr.row(current.0) {
                let next = StateId((self.edges[tid as usize] >> 32) as usize);
                if visited[next.0] {
                    continue;
                }
                visited[next.0] = true;
                parent[next.0] = Some(TransitionId(tid as usize));
                if goal(self.state(next)) {
                    // Reconstruct the path.
                    let mut path = Vec::new();
                    let mut cursor = next;
                    while let Some(tid) = parent[cursor.0] {
                        path.push(tid);
                        cursor = StateId(self.sources[tid.0] as usize);
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// Summary statistics.
    pub fn stats(&self) -> LtsStats {
        LtsStats {
            states: self.states.len(),
            transitions: self.sources.len(),
            risk_transitions: self.edges.iter().filter(|&&edge| edge & RISK_BIT != 0).count(),
            state_variables: self.space.variable_count(),
            theoretical_states: self.space.theoretical_state_count(),
        }
    }
}

/// The view of the transition `from --edge-->` over a label table.
fn view(labels: &[Arc<TransitionLabel>], from: u32, edge: u64) -> Transition<'_> {
    Transition { from: StateId(from as usize), edge, label: &labels[(edge & LABEL_MASK) as usize] }
}

/// The one way to build an [`Lts`] outside generation: an append-only set
/// of columns with the lookup tables that interning and deduplication need.
///
/// A builder starts from the absolute state alone ([`LtsBuilder::new`]) or
/// from a copy of an existing LTS ([`LtsBuilder::from_lts`]); it interns
/// states, adds transitions and risk-transitions without duplicates, can
/// annotate any transition it holds, and [`LtsBuilder::build`] freezes it.
/// States and transitions keep their append order as ids. A method given a
/// state or transition id the builder does not hold panics.
#[derive(Debug)]
pub struct LtsBuilder {
    space: VarSpace,
    states: Vec<PrivacyState>,
    /// State ids by state value.
    state_ids: IdTable,
    labels: Vec<Arc<TransitionLabel>>,
    /// Label ids by label value (no two labels of the table are equal).
    label_ids: IdTable,
    sources: Vec<u32>,
    edges: Vec<u64>,
    /// The outgoing lists of the LTS the builder started from, shared.
    base: Arc<Csr>,
    /// Per state: the ids of the transitions appended from it, ascending.
    /// A duplicate add scans the base list and then this one, comparing
    /// current edge words, so it finds the lowest equal id even after an
    /// annotation.
    appended: Vec<Vec<u32>>,
}

impl LtsBuilder {
    /// A builder over the given variable space holding only the initial
    /// state, the absolute privacy state.
    pub fn new(space: VarSpace) -> Self {
        let states = vec![PrivacyState::absolute(&space)];
        LtsBuilder::from_lts(&Lts::from_columns(space, states, Vec::new(), Vec::new(), Vec::new()))
    }

    /// A builder holding a copy of `lts`: its states and transitions keep
    /// their ids, and appends number on from them.
    pub fn from_lts(lts: &Lts) -> Self {
        let (states, labels, sources) =
            (lts.states.to_vec(), lts.labels.clone(), lts.sources.clone());
        let edges = lts.edges.to_vec();
        let mut state_ids = IdTable::new();
        for (id, state) in states.iter().enumerate() {
            state_ids.insert(state_hash(state), id as u32);
        }
        let mut label_ids = IdTable::new();
        for (id, label) in labels.iter().enumerate() {
            label_ids.insert(label_hash(label), id as u32);
        }
        let (space, base) = (lts.space.clone(), Arc::clone(&lts.csr));
        let appended = vec![Vec::new(); states.len()];
        LtsBuilder { space, states, state_ids, labels, label_ids, sources, edges, base, appended }
    }

    /// The initial state (the absolute privacy state).
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// The state with the given id.
    pub fn state(&self, id: StateId) -> &PrivacyState {
        &self.states[id.0]
    }

    /// The transition with the given id.
    pub fn transition(&self, id: TransitionId) -> Transition<'_> {
        view(&self.labels, self.sources[id.0], self.edges[id.0])
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.sources.len()
    }

    /// Interns a state, returning its id (existing id if already present).
    pub fn intern(&mut self, state: PrivacyState) -> StateId {
        let next = id32(self.states.len());
        let states = &self.states;
        match self
            .state_ids
            .find_or_insert(state_hash(&state), next, |id| states[id as usize] == state)
        {
            Some(id) => StateId(id as usize),
            None => {
                self.states.push(state);
                self.appended.push(Vec::new());
                StateId(next as usize)
            }
        }
    }

    /// Adds a transition. Duplicate transitions (same endpoints, risk flag
    /// and equal label) are not added twice; the lowest id of an equal
    /// transition is returned instead.
    pub fn add_transition(
        &mut self,
        from: StateId,
        to: StateId,
        label: TransitionLabel,
    ) -> TransitionId {
        self.add(from, to, label, false)
    }

    /// Adds a risk-transition (a dotted edge in Fig. 4), deduplicated as
    /// [`LtsBuilder::add_transition`] is.
    pub fn add_risk_transition(
        &mut self,
        from: StateId,
        to: StateId,
        label: TransitionLabel,
    ) -> TransitionId {
        self.add(from, to, label, true)
    }

    fn add(
        &mut self,
        from: StateId,
        to: StateId,
        label: TransitionLabel,
        risk_transition: bool,
    ) -> TransitionId {
        assert!(
            from.0 < self.states.len() && to.0 < self.states.len(),
            "transition {from} -> {to} leaves the builder's {} states",
            self.states.len()
        );
        let label = self.intern_label(label);
        let risk = if risk_transition { RISK_BIT } else { 0 };
        let edge = (to.0 as u64) << 32 | risk | u64::from(label);
        let from = from.0;
        let base = if from < self.base.rows() { self.base.row(from) } else { &[] };
        let edges = &self.edges;
        let mut outgoing = base.iter().chain(&self.appended[from]);
        if let Some(&existing) = outgoing.find(|&&t| edges[t as usize] == edge) {
            return TransitionId(existing as usize);
        }
        let id = id32(self.sources.len());
        self.appended[from].push(id);
        self.sources.push(from as u32);
        self.edges.push(edge);
        TransitionId(id as usize)
    }

    /// The id of a label equal to `label`, appending it to the label table
    /// if there is none.
    fn intern_label(&mut self, label: TransitionLabel) -> u32 {
        let next = id32(self.labels.len());
        assert!(u64::from(next) <= LABEL_MASK, "an LTS holds at most 2^31 distinct labels");
        let labels = &self.labels;
        match self
            .label_ids
            .find_or_insert(label_hash(&label), next, |id| *labels[id as usize] == label)
        {
            Some(id) => id,
            None => {
                self.labels.push(Arc::new(label));
                next
            }
        }
    }

    /// Attaches a risk annotation to a transition: the transition is pointed
    /// at a label equal to its own plus the annotation, so every other
    /// transition that shared its label keeps it unannotated.
    pub fn annotate(&mut self, id: TransitionId, risk: RiskAnnotation) {
        let edge = self.edges[id.0];
        let label = TransitionLabel::clone(&self.labels[(edge & LABEL_MASK) as usize]);
        let label = self.intern_label(label.with_risk(risk));
        self.edges[id.0] = edge & !LABEL_MASK | u64::from(label);
    }

    /// Freezes the builder into an [`Lts`], building its outgoing lists once
    /// the lookup tables are freed and the columns trimmed to their length.
    pub fn build(mut self) -> Lts {
        drop((self.state_ids, self.label_ids, self.base, self.appended));
        self.sources.shrink_to_fit();
        self.edges.shrink_to_fit();
        Lts::from_columns(self.space, self.states, self.labels, self.sources, self.edges)
    }
}

/// A length as the next `u32` id: the columns number states and
/// transitions in 32 bits.
fn id32(len: usize) -> u32 {
    u32::try_from(len).expect("an LTS holds fewer than 2^32 states and transitions")
}

/// The hash an [`LtsBuilder`] files a state under.
fn state_hash(state: &PrivacyState) -> u64 {
    hash_words(state.words())
}

/// The hash an [`LtsBuilder`] files a label under; equal labels hash equal.
fn label_hash(label: &TransitionLabel) -> u64 {
    let mut hasher = FxHasher::default();
    (label.action(), label.actor(), label.fields(), label.schema(), label.purpose())
        .hash(&mut hasher);
    label.risk().map(RiskAnnotation::risk_level).hash(&mut hasher);
    hash_words(&[hasher.finish()])
}

impl PartialEq for Lts {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space
            && self.states == other.states
            && self.transition_count() == other.transition_count()
            && self.transitions().zip(other.transitions()).all(|((_, a), (_, b))| a == b)
    }
}

impl fmt::Display for Lts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "lts: {}", self.stats())?;
        for (_, transition) in self.transitions() {
            writeln!(f, "  {transition}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{ActionKind, TransitionLabel};
    use privacy_model::{ActorId, FieldId, RiskLevel};

    fn space() -> VarSpace {
        VarSpace::new(
            [ActorId::new("Doctor"), ActorId::new("Admin")],
            [FieldId::new("Name"), FieldId::new("Diagnosis")],
        )
    }

    fn label(action: ActionKind, actor: &str, field: &str) -> TransitionLabel {
        TransitionLabel::new(action, actor, [FieldId::new(field)], None)
    }

    fn two_step_builder() -> LtsBuilder {
        let space = space();
        let mut builder = LtsBuilder::new(space.clone());
        let s0 = builder.initial();
        let s1 = builder.intern(builder.state(s0).clone().with_has(
            &space,
            &ActorId::new("Doctor"),
            &FieldId::new("Name"),
        ));
        let s2 = builder.intern(builder.state(s1).clone().with_could(
            &space,
            &ActorId::new("Admin"),
            &FieldId::new("Diagnosis"),
        ));
        builder.add_transition(s0, s1, label(ActionKind::Collect, "Doctor", "Name"));
        builder.add_transition(s1, s2, label(ActionKind::Create, "Doctor", "Diagnosis"));
        builder
    }

    fn two_step_lts() -> Lts {
        two_step_builder().build()
    }

    #[test]
    fn new_lts_has_only_the_absolute_initial_state() {
        let lts = LtsBuilder::new(space()).build();
        assert_eq!(lts.state_count(), 1);
        assert_eq!(lts.transition_count(), 0);
        assert!(lts.state(lts.initial()).is_absolute());
        assert_eq!(lts.reachable(), vec![lts.initial()]);
    }

    #[test]
    fn interning_deduplicates_states() {
        let space = space();
        let mut builder = LtsBuilder::new(space.clone());
        let state = PrivacyState::absolute(&space).with_has(
            &space,
            &ActorId::new("Doctor"),
            &FieldId::new("Name"),
        );
        let a = builder.intern(state.clone());
        let b = builder.intern(state.clone());
        assert_eq!(a, b);
        assert_eq!(builder.state(a), &state);
        assert_eq!(builder.intern(PrivacyState::absolute(&space)), builder.initial());
        assert_eq!(builder.build().state_count(), 2);
    }

    #[test]
    fn a_builder_from_an_lts_keeps_its_ids_and_numbers_on() {
        let built = two_step_lts();
        let states: Vec<PrivacyState> = built.states().map(|(_, s)| s.clone()).collect();
        let generated = Lts::from_columns(
            built.space().clone(),
            states,
            built.labels.clone(),
            built.sources.clone(),
            built.edges.to_vec(),
        );
        assert_eq!(generated, built);

        let space = built.space().clone();
        let mut builder = LtsBuilder::from_lts(&generated);
        let s1 = generated.state(StateId(1)).clone();
        assert_eq!(builder.intern(s1), StateId(1));
        let fresh = PrivacyState::absolute(&space).with_has(
            &space,
            &ActorId::new("Admin"),
            &FieldId::new("Name"),
        );
        assert_eq!(builder.intern(fresh), StateId(3));
        let first = generated.transition(TransitionId(0));
        let duplicate = builder.add_transition(first.from(), first.to(), first.label().clone());
        assert_eq!(duplicate, TransitionId(0));
        let extended = builder.build();
        assert_eq!(extended.state_count(), 4);
        assert_eq!(extended.outgoing(StateId(3)).count(), 0);
        assert_ne!(extended, built);
        assert_eq!(generated, built, "the builder copied its source");
    }

    #[test]
    fn the_csr_is_built_with_the_lts_and_counting_sorts_by_source() {
        let mut builder = LtsBuilder::from_lts(&two_step_lts());
        let back = builder.add_transition(
            StateId(2),
            StateId(0),
            label(ActionKind::Delete, "Doctor", "Name"),
        );
        let lts = builder.build();
        assert_eq!(lts.outgoing(StateId(2)).map(|(id, _)| id).collect::<Vec<_>>(), vec![back]);
        let csr = Csr::build(3, [2, 0, 2, 1].into_iter());
        assert_eq!((csr.rows(), csr.len()), (3, 4));
        assert_eq!(csr.row(0), &[1]);
        assert_eq!(csr.row(1), &[3]);
        assert_eq!(csr.row(2), &[0, 2]);
    }

    #[test]
    fn duplicate_transitions_are_not_added_twice() {
        let mut builder = two_step_builder();
        let before = builder.transition_count();
        let s0 = builder.initial();
        let s1 = builder.transition(TransitionId(0)).to();
        let id = builder.add_transition(s0, s1, label(ActionKind::Collect, "Doctor", "Name"));
        assert_eq!(builder.transition_count(), before);
        assert_eq!(id, TransitionId(0));

        // A different label between the same states is a new transition.
        builder.add_transition(s0, s1, label(ActionKind::Read, "Doctor", "Name"));
        assert_eq!(builder.transition_count(), before + 1);
    }

    #[test]
    fn outgoing_and_reachability() {
        let lts = two_step_lts();
        let s0 = lts.initial();
        assert_eq!(lts.outgoing(s0).count(), 1);
        let (_, t) = lts.outgoing(s0).next().unwrap();
        assert_eq!(t.to(), StateId(1));
        assert_eq!(lts.reachable().len(), 3);
    }

    #[test]
    fn path_to_finds_the_shortest_witness() {
        let lts = two_step_lts();
        let space = lts.space().clone();
        let admin = ActorId::new("Admin");
        let diagnosis = FieldId::new("Diagnosis");
        let path = lts
            .path_to(|state| state.could(&space, &admin, &diagnosis))
            .expect("a path must exist");
        assert_eq!(path.len(), 2);
        assert_eq!(lts.transition(path[0]).label().action(), ActionKind::Collect);
        assert_eq!(lts.transition(path[1]).label().action(), ActionKind::Create);

        // Goal already satisfied in the initial state -> empty path.
        let path = lts.path_to(|state| state.is_absolute()).unwrap();
        assert!(path.is_empty());

        // Unreachable goal -> None.
        assert!(lts.path_to(|state| state.has(&space, &admin, &diagnosis)).is_none());
    }

    #[test]
    fn risk_transitions_and_annotation() {
        let mut builder = two_step_builder();
        let s2 = StateId(2);
        let space = space();
        let s_risk = builder.intern(builder.state(s2).clone().with_has(
            &space,
            &ActorId::new("Admin"),
            &FieldId::new("Diagnosis"),
        ));
        let tid =
            builder.add_risk_transition(s2, s_risk, label(ActionKind::Read, "Admin", "Diagnosis"));
        assert!(builder.transition(tid).is_risk_transition());

        builder.annotate(tid, RiskAnnotation::level(RiskLevel::Medium));
        let lts = builder.build();
        assert_eq!(lts.transition(tid).label().risk().unwrap().risk_level(), RiskLevel::Medium);
        let at_risk: Vec<TransitionId> = lts
            .transitions()
            .filter(|(_, t)| t.label().risk().is_some_and(|r| r.risk_level() == RiskLevel::Medium))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(at_risk, vec![tid]);

        let stats = lts.stats();
        assert_eq!(stats.states, 4);
        assert_eq!(stats.transitions, 3);
        assert_eq!(stats.risk_transitions, 1);
        assert_eq!(stats.state_variables, 8);
        assert_eq!(stats.theoretical_states, 256.0);
        assert!(stats.to_string().contains("4 states"));
    }

    #[test]
    fn equal_labels_share_one_table_entry_and_annotation_repoints() {
        let mut builder = two_step_builder();
        let s0 = builder.initial();
        let s2 = StateId(2);
        let t_a = builder.add_transition(s0, s2, label(ActionKind::Read, "Admin", "Name"));
        let t_b = builder.add_transition(StateId(1), s2, label(ActionKind::Read, "Admin", "Name"));
        assert_eq!(builder.labels.len(), 3, "the second read reuses the first's label");
        assert!(Arc::ptr_eq(
            builder.transition(t_a).shared_label(),
            builder.transition(t_b).shared_label()
        ));

        builder.annotate(t_a, RiskAnnotation::level(RiskLevel::High));
        builder.annotate(t_b, RiskAnnotation::level(RiskLevel::High));
        assert_eq!(builder.labels.len(), 4, "equal annotations share one annotated label");
        // The plain label is now a different value from t_a's: a new edge.
        let t_c = builder.add_transition(s0, s2, label(ActionKind::Read, "Admin", "Name"));
        assert_ne!(t_c, t_a);
        let annotated = label(ActionKind::Read, "Admin", "Name")
            .with_risk(RiskAnnotation::level(RiskLevel::High));
        assert_eq!(builder.add_transition(s0, s2, annotated.clone()), t_a);

        // Annotating t_c makes it equal to t_a: an add finds the lower id,
        // as a scan of the outgoing list in id order would.
        builder.annotate(t_c, RiskAnnotation::level(RiskLevel::High));
        assert_eq!(builder.add_transition(s0, s2, annotated.clone()), t_a);
        builder.annotate(t_a, RiskAnnotation::level(RiskLevel::Low));
        assert_eq!(builder.add_transition(s0, s2, annotated), t_c);
    }

    #[test]
    fn display_lists_transitions() {
        let lts = two_step_lts();
        let text = lts.to_string();
        assert!(text.contains("lts: 3 states"));
        assert!(text.contains("collect(Doctor, {Name})"));
        assert!(text.contains("s0 --["));
    }

    #[test]
    fn ids_display_with_prefixes() {
        assert_eq!(StateId(3).to_string(), "s3");
        assert_eq!(TransitionId(7).to_string(), "t7");
    }
}
