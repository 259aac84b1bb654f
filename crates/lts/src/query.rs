//! Privacy-specific queries over a generated LTS.
//!
//! The paper argues that *"a developer can determine which actors can
//! identify which data during the course of a service (in conflict with user
//! preferences)"*. [`LtsQuery`] wraps an [`Lts`] and its columnar
//! [`LtsIndex`] with the questions the risk analyses and the examples need to
//! ask, and answers each by probing the index's posting lists. The postings
//! are stored in transition-id and breadth-first state order, so every answer
//! lists its states and transitions in the order a scan of the LTS would; the
//! tests below compare each query with such a scan.

use crate::index::LtsIndex;
use crate::label::ActionKind;
use crate::lts::{Lts, StateId, Transition, TransitionId};
use privacy_model::{ActorId, FieldId};
use std::collections::BTreeSet;

/// A read-only query interface over an [`Lts`] and its [`LtsIndex`].
#[derive(Debug, Clone, Copy)]
pub struct LtsQuery<'a> {
    lts: &'a Lts,
    index: &'a LtsIndex,
}

impl<'a> LtsQuery<'a> {
    /// Wraps an LTS together with its analysis index. The index must have
    /// been built from this LTS (and the LTS must not have been mutated
    /// since), otherwise answers describe the stale snapshot.
    pub fn new(lts: &'a Lts, index: &'a LtsIndex) -> Self {
        LtsQuery { lts, index }
    }

    /// The underlying LTS.
    pub fn lts(&self) -> &'a Lts {
        self.lts
    }

    /// The analysis index the queries probe.
    pub fn index(&self) -> &'a LtsIndex {
        self.index
    }

    /// The reachable states in which `actor` **has identified** `field`.
    pub fn states_where_identified(&self, actor: &ActorId, field: &FieldId) -> Vec<StateId> {
        self.index.states_where_has(actor, field).to_vec()
    }

    /// The reachable states in which `actor` **could identify** `field`.
    pub fn states_where_accessible(&self, actor: &ActorId, field: &FieldId) -> Vec<StateId> {
        self.index.states_where_could(actor, field).to_vec()
    }

    /// Returns `true` if some reachable state lets `actor` identify `field`
    /// (either `has` or `could`).
    pub fn can_actor_identify(&self, actor: &ActorId, field: &FieldId) -> bool {
        self.index.can_actor_identify(actor, field)
    }

    /// Every (actor, field) pair exposed (`has ∨ could`) in some reachable
    /// state — the paper's "which actors can identify which data during the
    /// course of a service".
    pub fn exposure_summary(&self) -> BTreeSet<(ActorId, FieldId)> {
        let space = self.lts.space();
        let mut summary = BTreeSet::new();
        for actor in space.actors() {
            for field in space.fields() {
                if self.index.can_actor_identify(actor, field) {
                    summary.insert((actor.clone(), field.clone()));
                }
            }
        }
        summary
    }

    /// The transitions performing a given action kind.
    pub fn transitions_of_kind(&self, action: ActionKind) -> Vec<(TransitionId, &'a Transition)> {
        self.resolve(self.index.transitions_of_kind(action))
    }

    /// The transitions performed by a given actor.
    pub fn transitions_by_actor(&self, actor: &ActorId) -> Vec<(TransitionId, &'a Transition)> {
        self.resolve(self.index.transitions_by_actor(actor))
    }

    /// The transitions that involve a given field.
    pub fn transitions_involving_field(
        &self,
        field: &FieldId,
    ) -> Vec<(TransitionId, &'a Transition)> {
        self.resolve(self.index.transitions_involving_field(field))
    }

    /// The `read` transitions performed by actors outside the allowed set —
    /// the transitions the disclosure-risk analysis attaches risk labels to.
    pub fn reads_by_non_allowed(
        &self,
        allowed: &BTreeSet<ActorId>,
    ) -> Vec<(TransitionId, &'a Transition)> {
        let index = self.index;
        let ids: Vec<u32> = index
            .transitions_of_kind(ActionKind::Read)
            .iter()
            .filter(|&&tx| !allowed.contains(index.actor_of(tx)))
            .copied()
            .collect();
        self.resolve(&ids)
    }

    /// The shortest action trace (labels only) leading to a state where
    /// `actor` has identified `field`, if any.
    pub fn trace_to_identification(&self, actor: &ActorId, field: &FieldId) -> Option<Vec<String>> {
        let space = self.lts.space();
        let actor = actor.clone();
        let field = field.clone();
        self.lts.path_to(move |state| state.has(space, &actor, &field)).map(|path| {
            path.into_iter().map(|tid| self.lts.transition(tid).label().to_string()).collect()
        })
    }

    fn resolve(&self, ids: &[u32]) -> Vec<(TransitionId, &'a Transition)> {
        ids.iter()
            .map(|&tx| {
                let id = TransitionId(tx as usize);
                (id, self.lts.transition(id))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::TransitionLabel;
    use crate::space::VarSpace;
    use crate::state::PrivacyState;

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

    /// s0 --collect(Doctor,Name)--> s1 --create(Doctor,Diagnosis)--> s2
    ///    (s2: Admin could identify Diagnosis)
    /// s2 --read(Admin,Diagnosis)--> s3
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
            TransitionLabel::new(ActionKind::Collect, doctor(), [name()], None),
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
        lts
    }

    #[test]
    fn state_queries_find_identification_and_accessibility() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        let query = LtsQuery::new(&lts, &index);

        assert_eq!(query.states_where_identified(&doctor(), &name()).len(), 3);
        assert_eq!(query.states_where_identified(&admin(), &diagnosis()).len(), 1);
        assert_eq!(query.states_where_accessible(&admin(), &diagnosis()).len(), 2);
        assert!(query.can_actor_identify(&admin(), &diagnosis()));
        assert!(!query.can_actor_identify(&admin(), &name()));
    }

    #[test]
    fn exposure_summary_lists_every_exposed_pair() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        let summary = LtsQuery::new(&lts, &index).exposure_summary();
        assert!(summary.contains(&(doctor(), name())));
        assert!(summary.contains(&(admin(), diagnosis())));
        assert!(!summary.contains(&(admin(), name())));
        assert_eq!(summary.len(), 2);
    }

    #[test]
    fn transition_filters_work() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        let query = LtsQuery::new(&lts, &index);
        assert_eq!(query.transitions_of_kind(ActionKind::Read).len(), 1);
        assert_eq!(query.transitions_of_kind(ActionKind::Delete).len(), 0);
        assert_eq!(query.transitions_by_actor(&doctor()).len(), 2);
        assert_eq!(query.transitions_involving_field(&diagnosis()).len(), 2);
    }

    #[test]
    fn non_allowed_reads_are_found() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        let query = LtsQuery::new(&lts, &index);
        let allowed: BTreeSet<ActorId> = [doctor()].into_iter().collect();
        let risky = query.reads_by_non_allowed(&allowed);
        assert_eq!(risky.len(), 1);
        assert_eq!(risky[0].1.label().actor(), &admin());

        let all_allowed: BTreeSet<ActorId> = [doctor(), admin()].into_iter().collect();
        assert!(query.reads_by_non_allowed(&all_allowed).is_empty());
    }

    #[test]
    fn trace_to_identification_returns_action_sequence() {
        let lts = sample_lts();
        let index = LtsIndex::build(&lts);
        let query = LtsQuery::new(&lts, &index);
        let trace = query.trace_to_identification(&admin(), &diagnosis()).unwrap();
        assert_eq!(trace.len(), 3);
        assert!(trace[0].starts_with("collect"));
        assert!(trace[2].starts_with("read"));
        assert!(query.trace_to_identification(&admin(), &name()).is_none());
    }

    /// The reachable states satisfying `holds`, in breadth-first order.
    fn scan_states(lts: &Lts, holds: impl Fn(&PrivacyState) -> bool) -> Vec<StateId> {
        lts.reachable().into_iter().filter(|id| holds(lts.state(*id))).collect()
    }

    /// The transitions whose label satisfies `keep`, in transition-id order.
    fn scan_transitions(
        lts: &Lts,
        keep: impl Fn(&TransitionLabel) -> bool,
    ) -> Vec<(TransitionId, &Transition)> {
        lts.transitions().filter(|(_, t)| keep(t.label())).collect()
    }

    #[test]
    fn indexed_queries_equal_scan_queries() {
        let lts = sample_lts();
        let space = lts.space();
        let index = LtsIndex::build(&lts);
        let query = LtsQuery::new(&lts, &index);

        for actor in [doctor(), admin(), ActorId::new("Ghost")] {
            for field in [name(), diagnosis(), FieldId::new("Ghost")] {
                assert_eq!(
                    query.states_where_identified(&actor, &field),
                    scan_states(&lts, |s| s.has(space, &actor, &field))
                );
                assert_eq!(
                    query.states_where_accessible(&actor, &field),
                    scan_states(&lts, |s| s.could(space, &actor, &field))
                );
                assert_eq!(
                    query.can_actor_identify(&actor, &field),
                    !scan_states(&lts, |s| s.has_or_could(space, &actor, &field)).is_empty()
                );
            }
            assert_eq!(
                query.transitions_by_actor(&actor),
                scan_transitions(&lts, |l| l.actor() == &actor)
            );
        }
        let exposed: BTreeSet<(ActorId, FieldId)> = lts
            .reachable()
            .into_iter()
            .flat_map(|id| lts.state(id).exposed_pairs(space))
            .map(|(actor, field)| (actor.clone(), field.clone()))
            .collect();
        assert_eq!(query.exposure_summary(), exposed);
        for action in ActionKind::ALL {
            assert_eq!(
                query.transitions_of_kind(action),
                scan_transitions(&lts, |l| l.action() == action)
            );
        }
        for field in [name(), diagnosis(), FieldId::new("Ghost")] {
            assert_eq!(
                query.transitions_involving_field(&field),
                scan_transitions(&lts, |l| l.involves_field(&field))
            );
        }
        let allowed: BTreeSet<ActorId> = [doctor()].into_iter().collect();
        assert_eq!(
            query.reads_by_non_allowed(&allowed),
            scan_transitions(&lts, |l| l.action() == ActionKind::Read
                && !allowed.contains(l.actor()))
        );
    }
}
