//! The labelled transition system: interned states, labelled transitions and
//! structural queries.

use crate::label::{RiskAnnotation, TransitionLabel};
use crate::space::VarSpace;
use crate::state::PrivacyState;
use privacy_model::RiskLevel;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

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

/// One labelled transition between two states.
///
/// Labels are stored behind [`Arc`] so that the many transitions generated
/// from the same compiled flow share one allocation; mutation (risk
/// annotation) copies-on-write via [`Arc::make_mut`], so annotating one
/// transition never affects another that happens to share its label.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    from: StateId,
    to: StateId,
    label: Arc<TransitionLabel>,
    /// Risk-transitions are the dotted edges of Fig. 4: they do not belong to
    /// any declared service flow but represent an access that the policy
    /// makes possible.
    risk_transition: bool,
}

impl Transition {
    /// The source state.
    pub fn from(&self) -> StateId {
        self.from
    }

    /// The target state.
    pub fn to(&self) -> StateId {
        self.to
    }

    /// The label.
    pub fn label(&self) -> &TransitionLabel {
        &self.label
    }

    /// The label's shared allocation, for holders that outlive a borrow of
    /// the LTS (a compliance violation keeps its transition's label so).
    pub fn shared_label(&self) -> &Arc<TransitionLabel> {
        &self.label
    }

    /// Mutable access to the label (used by risk annotation). If the label is
    /// shared with other transitions it is cloned first (copy-on-write).
    pub fn label_mut(&mut self) -> &mut TransitionLabel {
        Arc::make_mut(&mut self.label)
    }

    /// Returns `true` if this is a risk-transition (dotted edge in Fig. 4).
    pub fn is_risk_transition(&self) -> bool {
        self.risk_transition
    }

    /// The address of the shared label allocation. The analysis index keys a
    /// per-label cache on it: the generation engine interns labels, so a
    /// handful of distinct allocations cover millions of transitions.
    pub(crate) fn label_ptr(&self) -> *const TransitionLabel {
        Arc::as_ptr(&self.label)
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} --[{}]--> {}", self.from, self.label, self.to)
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

/// A labelled transition system over privacy states.
#[derive(Debug, Clone, PartialEq)]
pub struct Lts {
    space: VarSpace,
    states: Vec<PrivacyState>,
    index: HashMap<PrivacyState, StateId>,
    transitions: Vec<Transition>,
    outgoing: Vec<Vec<TransitionId>>,
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
            transitions: Vec::new(),
            outgoing: vec![Vec::new()],
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
        if let Some(id) = self.index.get(&state) {
            return *id;
        }
        let id = StateId(self.states.len());
        self.index.insert(state.clone(), id);
        self.states.push(state);
        self.outgoing.push(Vec::new());
        id
    }

    /// Looks up the id of a state if it has been interned.
    pub fn find(&self, state: &PrivacyState) -> Option<StateId> {
        self.index.get(state).copied()
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
    pub fn add_transition(
        &mut self,
        from: StateId,
        to: StateId,
        label: TransitionLabel,
    ) -> TransitionId {
        self.add_transition_inner(from, to, Arc::new(label), false)
    }

    /// Adds a transition whose label is shared (interned), with the full
    /// duplicate scan. The engine pre-dedups and uses
    /// [`Lts::add_transition_shared_unchecked`]; this checked variant backs
    /// the copy-on-write unit tests.
    #[cfg(test)]
    pub(crate) fn add_transition_shared(
        &mut self,
        from: StateId,
        to: StateId,
        label: Arc<TransitionLabel>,
    ) -> TransitionId {
        self.add_transition_inner(from, to, label, false)
    }

    /// Adds a risk-transition (a dotted edge in Fig. 4).
    pub fn add_risk_transition(
        &mut self,
        from: StateId,
        to: StateId,
        label: TransitionLabel,
    ) -> TransitionId {
        self.add_transition_inner(from, to, Arc::new(label), true)
    }

    /// Adds a risk-transition with a shared (interned) label.
    #[cfg(test)]
    pub(crate) fn add_risk_transition_shared(
        &mut self,
        from: StateId,
        to: StateId,
        label: Arc<TransitionLabel>,
    ) -> TransitionId {
        self.add_transition_inner(from, to, label, true)
    }

    /// Adds a non-risk transition without scanning for duplicates. The
    /// generation engine dedups `(from, to, label)` triples by interned label
    /// index up front — exactly the check the scan would perform — so the
    /// linear scan over hub states' outgoing lists (quadratic in out-degree)
    /// is skipped.
    pub(crate) fn add_transition_shared_unchecked(
        &mut self,
        from: StateId,
        to: StateId,
        label: Arc<TransitionLabel>,
    ) -> TransitionId {
        let id = TransitionId(self.transitions.len());
        self.transitions.push(Transition { from, to, label, risk_transition: false });
        self.outgoing[from.0].push(id);
        id
    }

    fn add_transition_inner(
        &mut self,
        from: StateId,
        to: StateId,
        label: Arc<TransitionLabel>,
        risk_transition: bool,
    ) -> TransitionId {
        if let Some(existing) = self.outgoing[from.0].iter().find(|tid| {
            let t = &self.transitions[tid.0];
            t.to == to
                && t.risk_transition == risk_transition
                && (Arc::ptr_eq(&t.label, &label) || t.label == label)
        }) {
            return *existing;
        }
        let id = TransitionId(self.transitions.len());
        self.transitions.push(Transition { from, to, label, risk_transition });
        self.outgoing[from.0].push(id);
        id
    }

    /// The transition with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this LTS.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.0]
    }

    /// Attaches a risk annotation to a transition.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this LTS.
    pub fn annotate(&mut self, id: TransitionId, risk: RiskAnnotation) {
        self.transitions[id.0].label_mut().set_risk(risk);
    }

    /// Iterates over the states with their ids.
    pub fn states(&self) -> impl Iterator<Item = (StateId, &PrivacyState)> {
        self.states.iter().enumerate().map(|(i, s)| (StateId(i), s))
    }

    /// Iterates over the transitions with their ids.
    pub fn transitions(&self) -> impl Iterator<Item = (TransitionId, &Transition)> {
        self.transitions.iter().enumerate().map(|(i, t)| (TransitionId(i), t))
    }

    /// The outgoing transitions of a state.
    pub fn outgoing(&self, state: StateId) -> impl Iterator<Item = (TransitionId, &Transition)> {
        self.outgoing[state.0].iter().map(move |tid| (*tid, &self.transitions[tid.0]))
    }

    /// The outgoing transition ids of a state as a slice (used by the
    /// analysis index to build its CSR adjacency without re-walking the
    /// transition relation).
    pub(crate) fn outgoing_ids(&self, state: StateId) -> &[TransitionId] {
        &self.outgoing[state.0]
    }

    /// The incoming transitions of a state.
    pub fn incoming(&self, state: StateId) -> impl Iterator<Item = (TransitionId, &Transition)> {
        self.transitions
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.to == state)
            .map(|(i, t)| (TransitionId(i), t))
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The ids of states reachable from the initial state (always includes
    /// the initial state), in breadth-first order.
    pub fn reachable(&self) -> Vec<StateId> {
        self.reachable_from(self.initial)
    }

    /// The ids of states reachable from `start`, in breadth-first order.
    pub fn reachable_from(&self, start: StateId) -> Vec<StateId> {
        let mut visited = vec![false; self.states.len()];
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        visited[start.0] = true;
        queue.push_back(start);
        while let Some(current) = queue.pop_front() {
            order.push(current);
            for tid in &self.outgoing[current.0] {
                let next = self.transitions[tid.0].to;
                if !visited[next.0] {
                    visited[next.0] = true;
                    queue.push_back(next);
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
        let mut visited = vec![false; self.states.len()];
        let mut parent: Vec<Option<TransitionId>> = vec![None; self.states.len()];
        let mut queue = VecDeque::new();
        visited[self.initial.0] = true;
        queue.push_back(self.initial);
        while let Some(current) = queue.pop_front() {
            for tid in &self.outgoing[current.0] {
                let next = self.transitions[tid.0].to;
                if visited[next.0] {
                    continue;
                }
                visited[next.0] = true;
                parent[next.0] = Some(*tid);
                if goal(self.state(next)) {
                    // Reconstruct the path.
                    let mut path = Vec::new();
                    let mut cursor = next;
                    while let Some(tid) = parent[cursor.0] {
                        path.push(tid);
                        cursor = self.transitions[tid.0].from;
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
            transitions: self.transitions.len(),
            risk_transitions: self.transitions.iter().filter(|t| t.risk_transition).count(),
            state_variables: self.space.variable_count(),
            theoretical_states: self.space.theoretical_state_count(),
        }
    }

    /// The transitions whose risk annotation is at least `level`.
    pub fn transitions_at_risk(
        &self,
        level: RiskLevel,
    ) -> impl Iterator<Item = (TransitionId, &Transition)> {
        self.transitions().filter(move |(_, t)| {
            t.label().risk().map(|r| r.risk_level().at_least(level)).unwrap_or(false)
        })
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
        assert_eq!(lts.find(&state), Some(a));
        assert_eq!(lts.intern(PrivacyState::absolute(&space)), lts.initial());
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
    fn outgoing_incoming_and_reachability() {
        let lts = two_step_lts();
        let s0 = lts.initial();
        assert_eq!(lts.outgoing(s0).count(), 1);
        let (_, t) = lts.outgoing(s0).next().unwrap();
        let s1 = t.to();
        assert_eq!(lts.incoming(s1).count(), 1);
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
    fn shared_labels_copy_on_write_under_annotation() {
        let mut lts = two_step_lts();
        let s0 = lts.initial();
        let s1 = lts.transition(TransitionId(0)).to();
        let s2 = lts.transition(TransitionId(1)).to();
        let shared = std::sync::Arc::new(label(ActionKind::Read, "Admin", "Name"));

        let t_a = lts.add_transition_shared(s0, s2, std::sync::Arc::clone(&shared));
        let t_b = lts.add_transition_shared(s1, s2, std::sync::Arc::clone(&shared));
        // Re-adding the same shared label between the same states dedups.
        assert_eq!(lts.add_transition_shared(s0, s2, std::sync::Arc::clone(&shared)), t_a);

        // Annotating one transition must not leak into the other.
        lts.annotate(t_a, RiskAnnotation::level(RiskLevel::High));
        assert!(lts.transition(t_a).label().risk().is_some());
        assert!(lts.transition(t_b).label().risk().is_none());
        assert!(shared.risk().is_none());

        let t_risk = lts.add_risk_transition_shared(s2, s2, shared);
        assert!(lts.transition(t_risk).is_risk_transition());
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
