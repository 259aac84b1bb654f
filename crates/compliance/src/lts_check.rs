//! Checking a privacy policy against the generated LTS privacy model.
//!
//! Every transition in the LTS represents a possible action on personal
//! data, so design-time compliance amounts to finding behaviour the policy
//! rules out. Two interchangeable strategies exist:
//!
//! * **Index probes** ([`check_lts`], [`check_lts_indexed`],
//!   [`check_lts_batch_indexed`]) — the fast path. A columnar
//!   [`LtsIndex`] is built (or reused) and every statement resolves through
//!   posting lists, packed bitsets and interned indices: `O(statements ×
//!   transitions)` label scans become per-statement probes, and one index
//!   build is amortised over all statements of a policy (or, with the batch
//!   API, over many policies). A check allocates per report, not per
//!   statement: the report shares the policy's statements, violations keep
//!   structured facts and render on read, and the probes reuse a few scratch
//!   buffers across the policy's statements.
//! * **Label scans** ([`check_lts_scan`]) — the differential oracle: for
//!   every statement it walks the full transition relation (and, for
//!   exposure bounds, the reachable states) comparing labels. Both
//!   strategies produce *equal* [`ComplianceReport`]s — same outcomes, same
//!   violations in the same order, and so the same rendered text — which the
//!   property tests in `tests/index_differential.rs` pin over random models.

use crate::policy::PrivacyPolicy;
use crate::report::{check_each, ComplianceReport, Skip, Target, Violation};
use crate::statement::{FieldMatcher, Statement, StatementKind};
use privacy_lts::{ActionKind, Lts, LtsIndex, TransitionId};
use privacy_model::FieldId;
use std::collections::BTreeSet;

/// Checks every statement of `policy` against the transitions and states of
/// `lts`, building a columnar analysis index once and probing it per
/// statement.
///
/// [`StatementKind::ServiceLimit`] statements are reported as *skipped*: LTS
/// transitions carry an action, actor, field set and purpose, but not the
/// executing service, so the statement can only be checked against runtime
/// event logs ([`crate::runtime_check::check_log`]).
///
/// # Examples
///
/// ```
/// use privacy_compliance::{check_lts, FieldMatcher, PrivacyPolicy, Statement};
/// use privacy_core::casestudy;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let system = casestudy::healthcare()?;
/// let lts = system.generate_lts()?;
/// let policy = PrivacyPolicy::new("erasure only")
///     .with_statement(Statement::require_erasure("E1", "erasable", FieldMatcher::Any));
/// let report = check_lts(&lts, &policy);
/// // The healthcare flows never delete anything, so erasure fails.
/// assert!(!report.is_compliant());
/// # Ok(())
/// # }
/// ```
pub fn check_lts(lts: &Lts, policy: &PrivacyPolicy) -> ComplianceReport {
    let index = LtsIndex::build(lts);
    check_lts_indexed(lts, &index, policy)
}

/// Checks a policy against a prebuilt analysis index. The index must have
/// been built from `lts`; reusing one index across many [`check_lts_indexed`] calls is how the
/// batch path amortises the single build.
pub fn check_lts_indexed(lts: &Lts, index: &LtsIndex, policy: &PrivacyPolicy) -> ComplianceReport {
    let mut probes = Probes::new(lts, index);
    check_each(policy, target(lts), |_, statement, violations| probes.check(statement, violations))
}

/// Checks many policies over **one** prebuilt index (built from `lts`, as
/// for [`check_lts_indexed`]), evaluating policies in parallel over
/// `threads` crossbeam scoped threads (`None` runs on the calling thread).
///
/// Reports come back in policy order and are identical to running
/// [`check_lts`] per policy (and therefore to [`check_lts_scan`]) — the
/// parallelism only partitions the policy list, never the evaluation of a
/// single statement.
pub fn check_lts_batch_indexed(
    lts: &Lts,
    index: &LtsIndex,
    policies: &[PrivacyPolicy],
    threads: Option<usize>,
) -> Vec<ComplianceReport> {
    privacy_lts::batch::parallel_map(policies, threads, |policy| {
        check_lts_indexed(lts, index, policy)
    })
}

/// The full-scan checker: the reference semantics of [`check_lts`], kept as
/// the differential oracle the indexed path is tested against — not a fast
/// path.
pub fn check_lts_scan(lts: &Lts, policy: &PrivacyPolicy) -> ComplianceReport {
    check_each(policy, target(lts), |_, statement, violations| {
        check_statement_scan(lts, statement, violations)
    })
}

fn target(lts: &Lts) -> Target {
    Target::Lts { states: lts.state_count(), transitions: lts.transition_count() }
}

/// One check's index probes. The scratch buffers are reused across the
/// policy's statements, so a statement that holds allocates nothing.
struct Probes<'a> {
    lts: &'a Lts,
    index: &'a LtsIndex,
    /// Per interned actor: whether the current prohibition selects it.
    actor_accept: Vec<bool>,
    /// The current statement's field bitset, as [`LtsIndex::involves_any`]
    /// reads it.
    field_mask: Vec<u64>,
    /// The current statement's candidate transitions.
    candidates: Vec<u32>,
    /// The current purpose limit's allowed purposes, interned.
    purposes: Vec<u32>,
    /// The interned fields some transition processes and no delete covers,
    /// in `FieldId` order (the scan path's `BTreeSet` order); filled by the
    /// first erasure statement.
    unerasable: Option<Vec<u32>>,
}

impl<'a> Probes<'a> {
    fn new(lts: &'a Lts, index: &'a LtsIndex) -> Self {
        Probes {
            lts,
            index,
            actor_accept: Vec::new(),
            field_mask: Vec::new(),
            candidates: Vec::new(),
            purposes: Vec::new(),
            unerasable: None,
        }
    }

    /// Checks one statement. Candidate transitions are always visited in
    /// ascending id order — the order the scan path reports violations in —
    /// so the two strategies build equal reports.
    fn check(&mut self, statement: &Statement, out: &mut Vec<Violation>) -> Result<(), Skip> {
        let Probes { lts, index, actor_accept, field_mask, candidates, purposes, unerasable } =
            self;
        match statement.kind() {
            StatementKind::Forbid { actors, action, fields } => {
                if action.is_some_and(|action| index.transitions_of_kind(action).is_empty()) {
                    return Ok(());
                }
                actor_accept.clear();
                actor_accept.extend(index.actors().iter().map(|actor| actors.matches(actor)));
                // Every transition's actor is interned, so a matcher accepting
                // no interned actor can never fire: skip the candidate walk.
                if !actor_accept.contains(&true) {
                    return Ok(());
                }
                let mask = fill_mask(index, fields, field_mask);
                let mut visit = |tx: u32| {
                    if actor_accept[index.actor_index_of(tx) as usize]
                        && matches_fields(index, tx, mask)
                    {
                        let id = TransitionId(tx as usize);
                        out.push(Violation::forbidden_transition(id, lts.transition(id)));
                    }
                };
                match action {
                    Some(action) => {
                        index.transitions_of_kind(*action).iter().for_each(|&tx| visit(tx))
                    }
                    None => (0..index.transition_count() as u32).for_each(visit),
                }
            }
            StatementKind::PurposeLimit { fields, allowed } => {
                purposes.clear();
                purposes.extend(allowed.iter().filter_map(|purpose| index.purpose_index(purpose)));
                let mut visit = |tx: u32| {
                    if !index
                        .purpose_index_of(tx)
                        .is_some_and(|purpose| purposes.contains(&purpose))
                    {
                        let id = TransitionId(tx as usize);
                        out.push(Violation::undeclared_purpose(id, lts.transition(id)));
                    }
                };
                match fields {
                    // An empty field set never matches a matcher.
                    FieldMatcher::Any => (0..index.transition_count() as u32)
                        .filter(|&tx| index.has_fields(tx))
                        .for_each(visit),
                    FieldMatcher::Only(set) => {
                        // The deduplicated union of the fields' posting lists.
                        candidates.clear();
                        for field in set {
                            candidates.extend_from_slice(index.transitions_involving_field(field));
                        }
                        candidates.sort_unstable();
                        candidates.dedup();
                        candidates.iter().for_each(|&tx| visit(tx));
                    }
                }
            }
            StatementKind::ServiceLimit { .. } => return Err(Skip::NoServiceInLts),
            StatementKind::RequireErasure { fields } => {
                let fields_of = index.fields();
                for &field in unerasable.get_or_insert_with(|| unerasable_fields(index)).iter() {
                    let field = &fields_of[field as usize];
                    if fields.matches(field) {
                        out.push(Violation::unerasable_field(field));
                    }
                }
            }
            StatementKind::MaxExposure { field, max_actors } => {
                // Interned indices below the space's counts are the space's
                // own indices, so the space's actors probe by position.
                let Some(field_index) = index.field_index(field) else {
                    return Ok(());
                };
                let actors = index.space().actors();
                let identifies =
                    |actor: usize| index.can_actor_identify_indices(actor as u32, field_index);
                if (0..actors.len()).filter(|&actor| identifies(actor)).count() > *max_actors {
                    let exposed = (0..actors.len())
                        .filter(|&actor| identifies(actor))
                        .map(|actor| actors[actor].clone())
                        .collect();
                    out.push(Violation::identifiable(field, *max_actors, exposed));
                }
            }
            // Future statement kinds default to skipped rather than silently passing.
            #[allow(unreachable_patterns)]
            _ => return Err(Skip::UnsupportedByLts),
        }
        Ok(())
    }
}

/// The interned fields some transition processes and no delete action
/// covers, in `FieldId` order.
fn unerasable_fields(index: &LtsIndex) -> Vec<u32> {
    let fields = index.fields();
    let mut unerasable: Vec<u32> = (0..fields.len() as u32)
        .filter(|&field| {
            let name = &fields[field as usize];
            !index.transitions_involving_field(name).is_empty()
                && !index.kind_covers_field(ActionKind::Delete, name)
        })
        .collect();
    unerasable.sort_unstable_by(|&a, &b| fields[a as usize].cmp(&fields[b as usize]));
    unerasable
}

/// Fills `mask` with the matcher's interned field bits; `None` means the
/// matcher is [`FieldMatcher::Any`]. The mask stops at the highest matched
/// field's word, which [`LtsIndex::involves_any`] reads as zeros beyond.
fn fill_mask<'m>(
    index: &LtsIndex,
    fields: &FieldMatcher,
    mask: &'m mut Vec<u64>,
) -> Option<&'m [u64]> {
    let FieldMatcher::Only(set) = fields else {
        return None;
    };
    mask.clear();
    for field in set.iter().filter_map(|field| index.field_index(field)) {
        let word = field as usize / 64;
        if mask.len() <= word {
            mask.resize(word + 1, 0);
        }
        mask[word] |= 1u64 << (field % 64);
    }
    Some(mask)
}

fn matches_fields(index: &LtsIndex, tx: u32, mask: Option<&[u64]>) -> bool {
    match mask {
        // `FieldMatcher::Any.matches_any` over an empty label field set is
        // false, so Any still requires at least one field.
        None => index.has_fields(tx),
        Some(mask) => index.involves_any(tx, mask),
    }
}

/// Checks one statement by scanning the transition relation (the retained
/// reference semantics).
fn check_statement_scan(
    lts: &Lts,
    statement: &Statement,
    out: &mut Vec<Violation>,
) -> Result<(), Skip> {
    match statement.kind() {
        StatementKind::Forbid { actors, action, fields } => {
            for (id, transition) in lts.transitions() {
                let label = transition.label();
                let action_matches = action.is_none_or(|a| a == label.action());
                if action_matches
                    && actors.matches(label.actor())
                    && fields.matches_any(label.fields())
                {
                    out.push(Violation::forbidden_transition(id, transition));
                }
            }
        }
        StatementKind::PurposeLimit { fields, allowed } => {
            for (id, transition) in lts.transitions() {
                let label = transition.label();
                if fields.matches_any(label.fields())
                    && !label.purpose().is_some_and(|purpose| allowed.contains(purpose))
                {
                    out.push(Violation::undeclared_purpose(id, transition));
                }
            }
        }
        StatementKind::ServiceLimit { .. } => return Err(Skip::NoServiceInLts),
        StatementKind::RequireErasure { fields } => {
            let processed: BTreeSet<&FieldId> = lts
                .transitions()
                .flat_map(|(_, t)| t.label().fields().iter())
                .filter(|f| fields.matches(f))
                .collect();
            for field in processed {
                let erasable = lts.transitions().any(|(_, t)| {
                    t.label().action() == ActionKind::Delete && t.label().involves_field(field)
                });
                if !erasable {
                    out.push(Violation::unerasable_field(field));
                }
            }
        }
        StatementKind::MaxExposure { field, max_actors } => {
            let space = lts.space();
            let reachable = lts.reachable();
            let exposed: Vec<privacy_model::ActorId> = space
                .actors()
                .iter()
                .filter(|actor| {
                    reachable.iter().any(|id| lts.state(*id).has_or_could(space, actor, field))
                })
                .cloned()
                .collect();
            if exposed.len() > *max_actors {
                out.push(Violation::identifiable(field, *max_actors, exposed));
            }
        }
        // Future statement kinds default to skipped rather than silently passing.
        #[allow(unreachable_patterns)]
        _ => return Err(Skip::UnsupportedByLts),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::{ActorMatcher, FieldMatcher};
    use privacy_lts::{LtsBuilder, PrivacyState, TransitionLabel, VarSpace};
    use privacy_model::{ActorId, Purpose};

    /// A tiny hand-built LTS: the Doctor collects and stores Diagnosis, the
    /// Administrator reads it, nothing is ever deleted.
    fn tiny_lts() -> Lts {
        let space = VarSpace::new(
            [ActorId::new("Doctor"), ActorId::new("Administrator")],
            [FieldId::new("Name"), FieldId::new("Diagnosis")],
        );
        let mut builder = LtsBuilder::new(space.clone());
        let s0 = builder.initial();
        let s1 = builder.intern(PrivacyState::absolute(&space).with_has(
            &space,
            &ActorId::new("Doctor"),
            &FieldId::new("Diagnosis"),
        ));
        let s2 = builder.intern(builder.state(s1).with_has(
            &space,
            &ActorId::new("Administrator"),
            &FieldId::new("Diagnosis"),
        ));
        builder.add_transition(
            s0,
            s1,
            TransitionLabel::new(ActionKind::Collect, "Doctor", [FieldId::new("Diagnosis")], None)
                .with_purpose(Purpose::new("consultation").unwrap()),
        );
        builder.add_transition(
            s1,
            s2,
            TransitionLabel::new(
                ActionKind::Read,
                "Administrator",
                [FieldId::new("Diagnosis")],
                None,
            )
            .with_purpose(Purpose::new("maintenance").unwrap()),
        );
        builder.build()
    }

    /// Every unit-test policy must produce identical reports through the
    /// index and through the scan.
    fn check_both(lts: &Lts, policy: &PrivacyPolicy) -> ComplianceReport {
        let indexed = check_lts(lts, policy);
        let scanned = check_lts_scan(lts, policy);
        assert_eq!(indexed, scanned, "index and scan reports diverge");
        assert_eq!(indexed.render(), scanned.render());
        indexed
    }

    #[test]
    fn forbid_flags_matching_transitions() {
        let lts = tiny_lts();
        let policy = PrivacyPolicy::new("p").with_statement(Statement::forbid(
            "F1",
            "administrator must not read diagnosis",
            ActorMatcher::only([ActorId::new("Administrator")]),
            Some(ActionKind::Read),
            FieldMatcher::only([FieldId::new("Diagnosis")]),
        ));
        let report = check_both(&lts, &policy);
        assert_eq!(report.violation_count(), 1);
        let violation = report.violations().next().unwrap();
        assert!(violation.subject().contains("transition #1"));
        assert!(violation.detail().contains("Administrator"));
    }

    #[test]
    fn forbid_with_unmatched_actor_passes() {
        let lts = tiny_lts();
        let policy = PrivacyPolicy::new("p").with_statement(Statement::forbid(
            "F2",
            "researcher must not read",
            ActorMatcher::only([ActorId::new("Researcher")]),
            None,
            FieldMatcher::Any,
        ));
        assert!(check_both(&lts, &policy).is_compliant());
    }

    #[test]
    fn purpose_limit_accepts_declared_purposes_and_rejects_others() {
        let lts = tiny_lts();
        let ok = PrivacyPolicy::new("p").with_statement(Statement::purpose_limit(
            "P1",
            "diagnosis only for consultation and maintenance",
            FieldMatcher::only([FieldId::new("Diagnosis")]),
            [Purpose::new("consultation").unwrap(), Purpose::new("maintenance").unwrap()],
        ));
        assert!(check_both(&lts, &ok).is_compliant());

        let narrow = PrivacyPolicy::new("p").with_statement(Statement::purpose_limit(
            "P2",
            "diagnosis only for consultation",
            FieldMatcher::only([FieldId::new("Diagnosis")]),
            [Purpose::new("consultation").unwrap()],
        ));
        let report = check_both(&lts, &narrow);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations().next().unwrap().detail().contains("maintenance"));
    }

    #[test]
    fn purpose_limit_flags_missing_purposes() {
        let space = VarSpace::new([ActorId::new("Doctor")], [FieldId::new("Diagnosis")]);
        let mut builder = LtsBuilder::new(space);
        let s0 = builder.initial();
        builder.add_transition(
            s0,
            s0,
            TransitionLabel::new(ActionKind::Read, "Doctor", [FieldId::new("Diagnosis")], None),
        );
        let lts = builder.build();
        let policy = PrivacyPolicy::new("p").with_statement(Statement::purpose_limit(
            "P3",
            "must state a purpose",
            FieldMatcher::Any,
            [Purpose::new("treatment").unwrap()],
        ));
        let report = check_both(&lts, &policy);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations().next().unwrap().detail().contains("no purpose"));
    }

    #[test]
    fn require_erasure_fails_without_delete_transitions() {
        let lts = tiny_lts();
        let policy = PrivacyPolicy::new("p").with_statement(Statement::require_erasure(
            "E1",
            "diagnosis must be erasable",
            FieldMatcher::only([FieldId::new("Diagnosis")]),
        ));
        let report = check_both(&lts, &policy);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations().next().unwrap().subject().contains("Diagnosis"));
    }

    #[test]
    fn require_erasure_passes_when_a_delete_action_exists() {
        let mut builder = LtsBuilder::from_lts(&tiny_lts());
        let s0 = builder.initial();
        builder.add_transition(
            s0,
            s0,
            TransitionLabel::new(ActionKind::Delete, "Doctor", [FieldId::new("Diagnosis")], None),
        );
        let lts = builder.build();
        let policy = PrivacyPolicy::new("p").with_statement(Statement::require_erasure(
            "E1",
            "diagnosis must be erasable",
            FieldMatcher::only([FieldId::new("Diagnosis")]),
        ));
        assert!(check_both(&lts, &policy).is_compliant());
    }

    #[test]
    fn require_erasure_ignores_fields_never_processed() {
        let lts = tiny_lts();
        let policy = PrivacyPolicy::new("p").with_statement(Statement::require_erasure(
            "E2",
            "weight must be erasable",
            FieldMatcher::only([FieldId::new("Weight")]),
        ));
        // Weight never appears in the LTS, so there is nothing to erase.
        assert!(check_both(&lts, &policy).is_compliant());
    }

    #[test]
    fn max_exposure_counts_identifying_actors() {
        let lts = tiny_lts();
        let strict = PrivacyPolicy::new("p").with_statement(Statement::max_exposure(
            "M1",
            "only one actor may identify diagnosis",
            FieldId::new("Diagnosis"),
            1,
        ));
        let report = check_both(&lts, &strict);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations().next().unwrap().detail().contains("2 actors"));

        let relaxed = PrivacyPolicy::new("p").with_statement(Statement::max_exposure(
            "M2",
            "two actors may identify diagnosis",
            FieldId::new("Diagnosis"),
            2,
        ));
        assert!(check_both(&lts, &relaxed).is_compliant());
    }

    #[test]
    fn service_limit_is_skipped_on_the_lts() {
        let lts = tiny_lts();
        let policy = PrivacyPolicy::new("p").with_statement(Statement::service_limit(
            "S1",
            "diagnosis stays in the medical service",
            FieldMatcher::only([FieldId::new("Diagnosis")]),
            [privacy_model::ServiceId::new("MedicalService")],
        ));
        let report = check_both(&lts, &policy);
        assert!(report.is_compliant());
        assert_eq!(report.skipped().count(), 1);
    }

    #[test]
    fn report_target_mentions_the_lts_size() {
        let lts = tiny_lts();
        let report = check_both(&lts, &PrivacyPolicy::new("empty"));
        assert!(report.target().contains("states"));
        assert!(report.is_compliant());
    }

    #[test]
    fn batch_reports_match_per_policy_checks_in_order() {
        let lts = tiny_lts();
        let policies: Vec<PrivacyPolicy> = vec![
            PrivacyPolicy::new("a").with_statement(Statement::forbid(
                "F1",
                "no admin reads",
                ActorMatcher::only([ActorId::new("Administrator")]),
                Some(ActionKind::Read),
                FieldMatcher::Any,
            )),
            PrivacyPolicy::new("b").with_statement(Statement::require_erasure(
                "E1",
                "erasable",
                FieldMatcher::Any,
            )),
            PrivacyPolicy::new("c"),
        ];
        let expected: Vec<ComplianceReport> =
            policies.iter().map(|policy| check_lts_scan(&lts, policy)).collect();
        let index = LtsIndex::build(&lts);
        for threads in [None, Some(1), Some(2), Some(4)] {
            assert_eq!(check_lts_batch_indexed(&lts, &index, &policies, threads), expected);
        }
        assert!(check_lts_batch_indexed(&lts, &index, &[], Some(2)).is_empty());
    }

    #[test]
    fn indexed_checker_reuses_a_prebuilt_index() {
        let lts = tiny_lts();
        let index = LtsIndex::build(&lts);
        let policy = PrivacyPolicy::new("p").with_statement(Statement::max_exposure(
            "M1",
            "bounded",
            FieldId::new("Diagnosis"),
            1,
        ));
        let a = check_lts_indexed(&lts, &index, &policy);
        let b = check_lts_indexed(&lts, &index, &policy);
        assert_eq!(a, b);
        assert_eq!(a, check_lts_scan(&lts, &policy));
    }
}
