//! The labelled transition system: interned states, labelled transitions and
//! structural queries.
//!
//! Transitions are stored as columns: a `u32` source per transition, and one
//! `target << 32 | risk bit | label id` word per transition over a table of
//! distinct labels. The outgoing lists are one CSR (per-state offsets into a
//! flat list of transition ids). The generation engine hands its own columns
//! over, and [`crate::LtsIndex`] shares the edge column and the CSR instead
//! of copying them.
//!
//! The edit API ([`Lts::intern`], [`Lts::add_transition`],
//! [`Lts::add_risk_transition`], [`Lts::annotate`]) appends to the same
//! columns. What it needs beyond them is built lazily: the state map at the
//! first `intern`, the label and transition dedup tables at the first add or
//! annotation, and the CSR at the first adjacency read after an append. A
//! column an index shares is copied on its first write, so the index keeps
//! its snapshot.

use crate::hash::{hash_words, FxHasher, IdTable};
use crate::label::{RiskAnnotation, TransitionLabel};
use crate::space::VarSpace;
use crate::state::PrivacyState;
use privacy_model::RiskLevel;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

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

/// The outgoing lists of every state, as one compressed sparse row: the
/// transitions leaving state `s` are `ids[offsets[s]..offsets[s + 1]]`, in
/// ascending id order.
#[derive(Debug)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Csr {
    /// A counting sort of the transition ids by source.
    fn build(state_count: usize, sources: &[u32]) -> Csr {
        let mut offsets = vec![0u32; state_count + 1];
        for &source in sources {
            offsets[source as usize + 1] += 1;
        }
        for state in 0..state_count {
            offsets[state + 1] += offsets[state];
        }
        let mut next = offsets.clone();
        let mut ids = vec![0u32; sources.len()];
        for (id, &source) in sources.iter().enumerate() {
            let at = &mut next[source as usize];
            ids[*at as usize] = id as u32;
            *at += 1;
        }
        Csr { offsets, ids }
    }

    /// The ids of the transitions leaving `state`, ascending.
    pub(crate) fn outgoing(&self, state: usize) -> &[u32] {
        &self.ids[self.offsets[state] as usize..self.offsets[state + 1] as usize]
    }
}

/// The lookup tables of the edit API.
#[derive(Debug, Clone)]
struct EditTables {
    /// Label ids by label value (no two labels of the table are equal).
    labels: IdTable,
    /// Transition ids by (source, edge word). An annotation re-files its
    /// transition under the new word and leaves the old slot behind, where
    /// it no longer matches; a lookup returns the lowest matching id.
    transitions: IdTable,
}

/// A labelled transition system over privacy states.
///
/// Two LTSs are equal when their space, states, transitions (endpoints,
/// risk flags and label values, in id order) and initial state are; the
/// outgoing lists follow from the transitions.
#[derive(Debug, Clone)]
pub struct Lts {
    space: VarSpace,
    states: Vec<PrivacyState>,
    /// State → id, for [`Lts::intern`]. A generated LTS hands over without
    /// it; the first `intern` builds it (`index.len() < states.len()`).
    index: HashMap<PrivacyState, StateId>,
    /// The distinct labels; an edge word's low bits index it.
    labels: Vec<Arc<TransitionLabel>>,
    /// Per transition: its source state.
    sources: Vec<u32>,
    /// Per transition: `target << 32 | risk bit | label id`. Shared with
    /// the indexes built over this LTS.
    edges: Arc<Vec<u64>>,
    /// The outgoing lists, built at the first adjacency read after an
    /// append. Shared with the indexes built over this LTS.
    csr: OnceLock<Arc<Csr>>,
    /// Built at the first add or annotation.
    edits: Option<EditTables>,
    initial: StateId,
}

impl Lts {
    /// Creates an LTS over the given variable space whose initial state is
    /// the absolute privacy state.
    pub fn new(space: VarSpace) -> Self {
        let initial_state = PrivacyState::absolute(&space);
        let mut index = HashMap::new();
        index.insert(initial_state.clone(), StateId(0));
        Lts {
            space,
            states: vec![initial_state],
            index,
            labels: Vec::new(),
            sources: Vec::new(),
            edges: Arc::new(Vec::new()),
            csr: OnceLock::new(),
            edits: None,
            initial: StateId(0),
        }
    }

    /// Assembles a generated LTS from its columns: `states[0]` is the
    /// initial state, and every label id and state id in `sources` and
    /// `edges` is in range. The CSR is built here; the state map and the
    /// dedup tables are left for the first edit.
    pub(crate) fn from_generated(
        space: VarSpace,
        states: Vec<PrivacyState>,
        labels: Vec<Arc<TransitionLabel>>,
        sources: Vec<u32>,
        edges: Vec<u64>,
    ) -> Self {
        let csr = OnceLock::from(Arc::new(Csr::build(states.len(), &sources)));
        Lts {
            space,
            states,
            index: HashMap::new(),
            labels,
            sources,
            edges: Arc::new(edges),
            csr,
            edits: None,
            initial: StateId(0),
        }
    }

    /// The variable space the states are defined over.
    pub fn space(&self) -> &VarSpace {
        &self.space
    }

    /// The initial state (the absolute privacy state).
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Interns a state, returning its id (existing id if already present).
    pub fn intern(&mut self, state: PrivacyState) -> StateId {
        if self.index.len() < self.states.len() {
            self.index =
                self.states.iter().enumerate().map(|(id, s)| (s.clone(), StateId(id))).collect();
        }
        if let Some(id) = self.index.get(&state) {
            return *id;
        }
        let id = StateId(id32(self.states.len()) as usize);
        self.index.insert(state.clone(), id);
        self.states.push(state);
        self.csr.take();
        id
    }

    /// The state with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this LTS.
    pub fn state(&self, id: StateId) -> &PrivacyState {
        &self.states[id.0]
    }

    /// Adds a transition. Duplicate transitions (same endpoints and equal
    /// label) are not added twice; the id of the existing transition is
    /// returned instead.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint does not belong to this LTS.
    pub fn add_transition(
        &mut self,
        from: StateId,
        to: StateId,
        label: TransitionLabel,
    ) -> TransitionId {
        self.add_transition_inner(from, to, label, false)
    }

    /// Adds a risk-transition (a dotted edge in Fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint does not belong to this LTS.
    pub fn add_risk_transition(
        &mut self,
        from: StateId,
        to: StateId,
        label: TransitionLabel,
    ) -> TransitionId {
        self.add_transition_inner(from, to, label, true)
    }

    fn add_transition_inner(
        &mut self,
        from: StateId,
        to: StateId,
        label: TransitionLabel,
        risk_transition: bool,
    ) -> TransitionId {
        assert!(
            from.0 < self.states.len() && to.0 < self.states.len(),
            "transition {from} -> {to} leaves the LTS's {} states",
            self.states.len()
        );
        let label = self.intern_label(label);
        let risk = if risk_transition { RISK_BIT } else { 0 };
        let edge = (to.0 as u64) << 32 | risk | u64::from(label);
        let from = from.0 as u32;
        let id = id32(self.sources.len());
        let hash = hash_words(&[u64::from(from), edge]);
        let tables = self.edits.as_mut().expect("interning a label builds the edit tables");
        let (sources, edges) = (&self.sources, &self.edges);
        let existing = tables
            .transitions
            .find_min(hash, |t| sources[t as usize] == from && edges[t as usize] == edge);
        if let Some(existing) = existing {
            return TransitionId(existing as usize);
        }
        tables.transitions.insert(hash, id);
        self.sources.push(from);
        Arc::make_mut(&mut self.edges).push(edge);
        self.csr.take();
        TransitionId(id as usize)
    }

    /// The id of a label equal to `label`, appending it to the label table
    /// if there is none. Builds the edit tables on first use.
    fn intern_label(&mut self, label: TransitionLabel) -> u32 {
        let (labels, sources, edges) = (&self.labels, &self.sources, &self.edges);
        let tables = self.edits.get_or_insert_with(|| {
            let mut tables = EditTables { labels: IdTable::new(), transitions: IdTable::new() };
            for (id, existing) in labels.iter().enumerate() {
                tables.labels.insert(label_hash(existing), id as u32);
            }
            for (id, (&source, &edge)) in sources.iter().zip(edges.iter()).enumerate() {
                tables.transitions.insert(hash_words(&[u64::from(source), edge]), id as u32);
            }
            tables
        });
        let next = id32(labels.len());
        assert!(u64::from(next) <= LABEL_MASK, "an LTS holds at most 2^31 distinct labels");
        match tables
            .labels
            .find_or_insert(label_hash(&label), next, |id| *labels[id as usize] == label)
        {
            Some(id) => id,
            None => {
                self.labels.push(Arc::new(label));
                next
            }
        }
    }

    /// The transition with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this LTS.
    pub fn transition(&self, id: TransitionId) -> Transition<'_> {
        self.view(self.sources[id.0], self.edges[id.0])
    }

    fn view(&self, from: u32, edge: u64) -> Transition<'_> {
        Transition {
            from: StateId(from as usize),
            edge,
            label: &self.labels[(edge & LABEL_MASK) as usize],
        }
    }

    /// Attaches a risk annotation to a transition: the transition is pointed
    /// at a label equal to its own plus the annotation, so every other
    /// transition that shared its label keeps it unannotated.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this LTS.
    pub fn annotate(&mut self, id: TransitionId, risk: RiskAnnotation) {
        let edge = self.edges[id.0];
        let mut label = TransitionLabel::clone(&self.labels[(edge & LABEL_MASK) as usize]);
        label.set_risk(risk);
        let label = self.intern_label(label);
        let annotated = edge & !LABEL_MASK | u64::from(label);
        if annotated == edge {
            return;
        }
        Arc::make_mut(&mut self.edges)[id.0] = annotated;
        let hash = hash_words(&[u64::from(self.sources[id.0]), annotated]);
        let tables = self.edits.as_mut().expect("interning a label builds the edit tables");
        tables.transitions.insert(hash, id.0 as u32);
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
            .map(|(i, (&from, &edge))| (TransitionId(i), self.view(from, edge)))
    }

    /// The outgoing transitions of a state, in id order.
    pub fn outgoing(&self, state: StateId) -> impl Iterator<Item = (TransitionId, Transition<'_>)> {
        self.csr().outgoing(state.0).iter().map(move |&tid| {
            let id = TransitionId(tid as usize);
            (id, self.transition(id))
        })
    }

    /// The outgoing lists, built on first use after an append.
    fn csr(&self) -> &Arc<Csr> {
        self.csr.get_or_init(|| Arc::new(Csr::build(self.states.len(), &self.sources)))
    }

    /// The outgoing lists, for an index to share.
    pub(crate) fn shared_csr(&self) -> Arc<Csr> {
        Arc::clone(self.csr())
    }

    /// The edge column, for an index to share: a later edit of this LTS
    /// copies it first, so the index keeps its snapshot.
    pub(crate) fn shared_edges(&self) -> Arc<Vec<u64>> {
        Arc::clone(&self.edges)
    }

    /// The label table: an edge word's low bits ([`LABEL_MASK`]) index it.
    pub(crate) fn labels(&self) -> &[Arc<TransitionLabel>] {
        &self.labels
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
        self.reachable_from(self.initial)
    }

    /// The ids of states reachable from `start`, in breadth-first order.
    pub fn reachable_from(&self, start: StateId) -> Vec<StateId> {
        let csr = self.csr();
        let mut visited = vec![false; self.states.len()];
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        visited[start.0] = true;
        queue.push_back(start);
        while let Some(current) = queue.pop_front() {
            order.push(current);
            for &tid in csr.outgoing(current.0) {
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
        if goal(self.state(self.initial)) {
            return Some(Vec::new());
        }
        let csr = self.csr();
        let mut visited = vec![false; self.states.len()];
        let mut parent: Vec<Option<TransitionId>> = vec![None; self.states.len()];
        let mut queue = VecDeque::new();
        visited[self.initial.0] = true;
        queue.push_back(self.initial);
        while let Some(current) = queue.pop_front() {
            for &tid in csr.outgoing(current.0) {
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

    /// The transitions whose risk annotation is at least `level`.
    pub fn transitions_at_risk(
        &self,
        level: RiskLevel,
    ) -> impl Iterator<Item = (TransitionId, Transition<'_>)> {
        self.transitions().filter(move |(_, t)| {
            t.label().risk().map(|r| r.risk_level().at_least(level)).unwrap_or(false)
        })
    }
}

/// A length as the next `u32` id: the columns number states and
/// transitions in 32 bits.
fn id32(len: usize) -> u32 {
    u32::try_from(len).expect("an LTS holds fewer than 2^32 states and transitions")
}

/// The hash an [`EditTables`] files a label under; equal labels hash equal.
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
            && self.initial == other.initial
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
    use privacy_model::{ActorId, FieldId};

    fn space() -> VarSpace {
        VarSpace::new(
            [ActorId::new("Doctor"), ActorId::new("Admin")],
            [FieldId::new("Name"), FieldId::new("Diagnosis")],
        )
    }

    fn label(action: ActionKind, actor: &str, field: &str) -> TransitionLabel {
        TransitionLabel::new(action, actor, [FieldId::new(field)], None)
    }

    fn two_step_lts() -> Lts {
        let space = space();
        let mut lts = Lts::new(space.clone());
        let s0 = lts.initial();
        let s1 = lts.intern(lts.state(s0).clone().with_has(
            &space,
            &ActorId::new("Doctor"),
            &FieldId::new("Name"),
        ));
        let s2 = lts.intern(lts.state(s1).clone().with_could(
            &space,
            &ActorId::new("Admin"),
            &FieldId::new("Diagnosis"),
        ));
        lts.add_transition(s0, s1, label(ActionKind::Collect, "Doctor", "Name"));
        lts.add_transition(s1, s2, label(ActionKind::Create, "Doctor", "Diagnosis"));
        lts
    }

    #[test]
    fn new_lts_has_only_the_absolute_initial_state() {
        let lts = Lts::new(space());
        assert_eq!(lts.state_count(), 1);
        assert_eq!(lts.transition_count(), 0);
        assert!(lts.state(lts.initial()).is_absolute());
        assert_eq!(lts.reachable(), vec![lts.initial()]);
    }

    #[test]
    fn interning_deduplicates_states() {
        let space = space();
        let mut lts = Lts::new(space.clone());
        let state = PrivacyState::absolute(&space).with_has(
            &space,
            &ActorId::new("Doctor"),
            &FieldId::new("Name"),
        );
        let a = lts.intern(state.clone());
        let b = lts.intern(state.clone());
        assert_eq!(a, b);
        assert_eq!(lts.state_count(), 2);
        assert_eq!(lts.state(a), &state);
        assert_eq!(lts.intern(PrivacyState::absolute(&space)), lts.initial());
    }

    #[test]
    fn a_generated_lts_builds_its_state_map_at_the_first_intern() {
        let built = two_step_lts();
        let states: Vec<PrivacyState> = built.states().map(|(_, s)| s.clone()).collect();
        let mut generated = Lts::from_generated(
            built.space().clone(),
            states,
            built.labels.clone(),
            built.sources.clone(),
            built.edges.to_vec(),
        );
        assert!(generated.index.is_empty());
        assert!(generated.edits.is_none());
        assert_eq!(generated, built, "equality ignores the lazily built tables");

        let space = built.space().clone();
        let s1 = generated.state(StateId(1)).clone();
        assert_eq!(generated.intern(s1), StateId(1));
        assert_eq!(generated.index.len(), 3);
        let fresh = PrivacyState::absolute(&space).with_has(
            &space,
            &ActorId::new("Admin"),
            &FieldId::new("Name"),
        );
        assert_eq!(generated.intern(fresh), StateId(3));
        assert_eq!(generated.outgoing(StateId(3)).count(), 0);
        assert_ne!(generated, built);
    }

    #[test]
    fn the_csr_follows_appends_and_counting_sorts_by_source() {
        let mut lts = two_step_lts();
        assert_eq!(lts.outgoing(StateId(2)).count(), 0);
        let back =
            lts.add_transition(StateId(2), StateId(0), label(ActionKind::Delete, "Doctor", "Name"));
        assert_eq!(lts.outgoing(StateId(2)).map(|(id, _)| id).collect::<Vec<_>>(), vec![back]);
        let csr = Csr::build(3, &[2, 0, 2, 1]);
        assert_eq!(csr.outgoing(0), &[1]);
        assert_eq!(csr.outgoing(1), &[3]);
        assert_eq!(csr.outgoing(2), &[0, 2]);
    }

    #[test]
    fn duplicate_transitions_are_not_added_twice() {
        let mut lts = two_step_lts();
        let before = lts.transition_count();
        let s0 = lts.initial();
        let s1 = lts.transition(TransitionId(0)).to();
        let id = lts.add_transition(s0, s1, label(ActionKind::Collect, "Doctor", "Name"));
        assert_eq!(lts.transition_count(), before);
        assert_eq!(id, TransitionId(0));

        // A different label between the same states is a new transition.
        lts.add_transition(s0, s1, label(ActionKind::Read, "Doctor", "Name"));
        assert_eq!(lts.transition_count(), before + 1);
    }

    #[test]
    fn outgoing_and_reachability() {
        let lts = two_step_lts();
        let s0 = lts.initial();
        assert_eq!(lts.outgoing(s0).count(), 1);
        let (_, t) = lts.outgoing(s0).next().unwrap();
        let s1 = t.to();
        assert_eq!(lts.reachable().len(), 3);
        assert_eq!(lts.reachable_from(s1).len(), 2);
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
        let mut lts = two_step_lts();
        let s2 = StateId(2);
        let s_risk = {
            let space = lts.space().clone();
            lts.intern(lts.state(s2).clone().with_has(
                &space,
                &ActorId::new("Admin"),
                &FieldId::new("Diagnosis"),
            ))
        };
        let tid =
            lts.add_risk_transition(s2, s_risk, label(ActionKind::Read, "Admin", "Diagnosis"));
        assert!(lts.transition(tid).is_risk_transition());

        lts.annotate(tid, RiskAnnotation::level(RiskLevel::Medium));
        assert_eq!(lts.transition(tid).label().risk().unwrap().risk_level(), RiskLevel::Medium);
        assert_eq!(lts.transitions_at_risk(RiskLevel::Medium).count(), 1);
        assert_eq!(lts.transitions_at_risk(RiskLevel::High).count(), 0);

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
        let mut lts = two_step_lts();
        let s0 = lts.initial();
        let s2 = StateId(2);
        let t_a = lts.add_transition(s0, s2, label(ActionKind::Read, "Admin", "Name"));
        let t_b = lts.add_transition(StateId(1), s2, label(ActionKind::Read, "Admin", "Name"));
        assert_eq!(lts.labels().len(), 3, "the second read reuses the first's label");
        assert!(Arc::ptr_eq(
            lts.transition(t_a).shared_label(),
            lts.transition(t_b).shared_label()
        ));

        lts.annotate(t_a, RiskAnnotation::level(RiskLevel::High));
        lts.annotate(t_b, RiskAnnotation::level(RiskLevel::High));
        assert_eq!(lts.labels().len(), 4, "equal annotations share one annotated label");
        // The plain label is now a different value from t_a's: a new edge.
        let t_c = lts.add_transition(s0, s2, label(ActionKind::Read, "Admin", "Name"));
        assert_ne!(t_c, t_a);
        let annotated = label(ActionKind::Read, "Admin", "Name")
            .with_risk(RiskAnnotation::level(RiskLevel::High));
        assert_eq!(lts.add_transition(s0, s2, annotated.clone()), t_a);

        // Annotating t_c makes it equal to t_a: an add finds the lower id,
        // as a scan of the outgoing list in id order would.
        lts.annotate(t_c, RiskAnnotation::level(RiskLevel::High));
        assert_eq!(lts.add_transition(s0, s2, annotated.clone()), t_a);
        lts.annotate(t_a, RiskAnnotation::level(RiskLevel::Low));
        assert_eq!(lts.add_transition(s0, s2, annotated), t_c);
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
