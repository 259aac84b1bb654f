//! Checking a privacy policy against runtime event logs.
//!
//! The paper motivates applying the model-driven analysis to *running*
//! systems; the [`privacy_runtime`] simulator produces an [`EventLog`] of
//! permitted and denied actions, and this module audits that log against the
//! same [`PrivacyPolicy`] used at design time.
//!
//! Two interchangeable execution strategies exist, mirroring the LTS
//! checker's split:
//!
//! * **Index probes** ([`check_log`], [`check_log_indexed`]) — the default.
//!   One columnar [`EventLogIndex`] build turns every statement into posting
//!   -list probes: matchers are evaluated once per *distinct* interned
//!   actor/service instead of once per event, prohibitions walk only their
//!   action's posting list, erasure reads a precomputed per-`(user, field)`
//!   timeline and exposure bounds are a popcount. [`check_log_indexed`]
//!   amortises one build over many policies (the batch-audit shape).
//! * **Full scans** ([`check_log_scan`]) — the original implementation,
//!   retained verbatim for differential testing: every statement re-walks
//!   the whole log. Both strategies produce identical reports; the property
//!   tests in `tests/runtime_log_differential.rs` pin the equivalence.
//!
//! For **periodic audits over the append-only log** there is a third entry
//! point, [`check_log_checkpointed`]: the caller maintains one
//! [`EventLogIndex`] via [`EventLogIndex::append`] and carries an
//! [`AuditCheckpoint`] between audits. Per-event statements (prohibitions,
//! service limits) then probe only the posting-list *suffix* past the
//! checkpoint and splice the previously reported violations in front, while
//! the aggregate statements (erasure, exposure) re-read the incrementally
//! maintained timelines and observer bitsets — so each audit pays O(new
//! events + statements), yet the produced report is identical to a
//! from-scratch [`check_log`] (and [`check_log_scan`]) over the whole log.

use crate::policy::PrivacyPolicy;
use crate::report::{check_each, ComplianceReport, Skip, Target, Violation};
use crate::statement::{FieldMatcher, Statement, StatementKind};
use privacy_lts::ActionKind;
use privacy_model::{ActorId, FieldId, UserId};
use privacy_runtime::{EventLog, EventLogIndex};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Checks every statement of `policy` against the observed events in `log`,
/// building a columnar [`EventLogIndex`] once and probing it per statement.
///
/// Only *permitted* events count as behaviour: denied attempts were stopped
/// by the access-control enforcement and therefore do not breach the policy.
/// [`StatementKind::PurposeLimit`] statements are reported as skipped —
/// runtime events record the executing service but not a per-action purpose.
///
/// # Examples
///
/// ```
/// use privacy_compliance::{check_log, PrivacyPolicy};
/// use privacy_runtime::EventLog;
///
/// let report = check_log(&EventLog::new(), &PrivacyPolicy::new("empty"));
/// assert!(report.is_compliant());
/// ```
pub fn check_log(log: &EventLog, policy: &PrivacyPolicy) -> ComplianceReport {
    let index = EventLogIndex::build(log);
    check_log_indexed(log, &index, policy)
}

/// Like [`check_log`] but over a prebuilt index, so one build serves many
/// policies. The index must have been built from `log` in its current state.
pub fn check_log_indexed(
    log: &EventLog,
    index: &EventLogIndex,
    policy: &PrivacyPolicy,
) -> ComplianceReport {
    check_each(policy, target(log), |_, statement, violations| {
        probe_statement(log, index, statement, 0, violations)
    })
}

fn target(log: &EventLog) -> Target {
    Target::Log { events: log.len() }
}

/// The carried-over state of a periodic audit: how much of the append-only
/// log previous audits already covered, and — per per-event statement — the
/// violations already reported for that prefix. Produced and consumed by
/// [`check_log_checkpointed`]; an audit that starts from `None` covers the
/// whole log and is identical to [`check_log`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditCheckpoint {
    /// Events `0..events_checked` of the log are covered by
    /// [`AuditCheckpoint::statements`].
    events_checked: usize,
    /// One entry per policy statement, in policy order.
    statements: Vec<StatementCheckpoint>,
}

/// One statement's accumulated per-event violations (empty for aggregate
/// statement kinds, which re-read the index's incrementally maintained
/// aggregates instead of accumulating).
#[derive(Debug, Clone, PartialEq)]
struct StatementCheckpoint {
    id: String,
    violations: Vec<Violation>,
}

impl AuditCheckpoint {
    /// How many log events the checkpointed audits have covered.
    pub fn events_checked(&self) -> usize {
        self.events_checked
    }

    /// Number of policy statements the checkpoint tracks.
    pub fn statement_count(&self) -> usize {
        self.statements.len()
    }
}

impl fmt::Display for AuditCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit checkpoint: {} events covered across {} statements",
            self.events_checked,
            self.statements.len()
        )
    }
}

/// A typed failure of a checkpointed audit — every variant means the
/// caller's invariants broke (the index was not appended up to the log, the
/// log shrank, the policy changed) and continuing would produce an unsound
/// report.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AuditError {
    /// The index covers fewer events than the log holds; call
    /// [`EventLogIndex::append`] with the new suffix first.
    IndexLagsLog {
        /// Events the index covers.
        indexed: usize,
        /// Events the log holds.
        log_len: usize,
    },
    /// The index covers *more* events than the log holds — a suffix was
    /// appended twice, or the index belongs to a different (longer) log.
    /// Rebuild the index from this log; appending more would compound the
    /// divergence.
    IndexAheadOfLog {
        /// Events the index covers.
        indexed: usize,
        /// Events the log holds.
        log_len: usize,
    },
    /// The checkpoint covers more events than the log holds — the log is
    /// supposed to be append-only, so a shrinking log invalidates every
    /// carried violation.
    CheckpointAheadOfLog {
        /// Events the checkpoint claims were covered.
        checked: usize,
        /// Events the log holds.
        log_len: usize,
    },
    /// The checkpoint was taken against a different policy (statement
    /// added, removed or reordered); start a fresh audit instead of splicing
    /// violations of one policy into another's report.
    PolicyMismatch {
        /// Human-readable description of the first disagreement.
        detail: String,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::IndexLagsLog { indexed, log_len } => write!(
                f,
                "the index covers only {indexed} events but the log holds {log_len}; append the \
                 new suffix to the index before auditing"
            ),
            AuditError::IndexAheadOfLog { indexed, log_len } => write!(
                f,
                "the index covers {indexed} events but the log holds only {log_len} (a suffix \
                 appended twice, or an index of a different log); rebuild the index from this log"
            ),
            AuditError::CheckpointAheadOfLog { checked, log_len } => write!(
                f,
                "the checkpoint covers {checked} events but the log holds only {log_len}; the \
                 append-only invariant is broken"
            ),
            AuditError::PolicyMismatch { detail } => {
                write!(f, "the checkpoint belongs to a different policy: {detail}")
            }
        }
    }
}

impl Error for AuditError {}

/// Audits the log against the policy, paying only for the suffix past
/// `checkpoint` on the per-event statements: the incremental entry point for
/// periodic audits over the append-only log. `index` must have been kept
/// current via [`EventLogIndex::append`]. Returns the full-log report —
/// identical to [`check_log`] / [`check_log_scan`] over the whole log, as
/// pinned by the checkpointed-audit property tests — together with the next
/// checkpoint.
///
/// The checkpoint is consumed: once the log has grown past it, the old
/// checkpoint describes a prefix no future audit should restart from (and
/// moving it lets the accumulated violations transfer into the new
/// checkpoint without re-copying them every period).
///
/// # Errors
///
/// Returns a typed [`AuditError`] when the caller's invariants do not hold
/// (index behind the log, log shorter than the checkpoint, policy changed
/// since the checkpoint was taken).
///
/// # Examples
///
/// ```
/// use privacy_compliance::{check_log, check_log_checkpointed, PrivacyPolicy};
/// use privacy_runtime::{EventLog, EventLogIndex};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let log = EventLog::new();
/// let index = EventLogIndex::build(&log);
/// let policy = PrivacyPolicy::new("empty");
/// let (report, checkpoint) = check_log_checkpointed(&log, &index, &policy, None)?;
/// assert_eq!(report, check_log(&log, &policy));
/// assert_eq!(checkpoint.events_checked(), 0);
/// # Ok(())
/// # }
/// ```
pub fn check_log_checkpointed(
    log: &EventLog,
    index: &EventLogIndex,
    policy: &PrivacyPolicy,
    checkpoint: Option<AuditCheckpoint>,
) -> Result<(ComplianceReport, AuditCheckpoint), AuditError> {
    if index.event_count() < log.len() {
        return Err(AuditError::IndexLagsLog { indexed: index.event_count(), log_len: log.len() });
    }
    if index.event_count() > log.len() {
        return Err(AuditError::IndexAheadOfLog {
            indexed: index.event_count(),
            log_len: log.len(),
        });
    }
    let from = match &checkpoint {
        None => 0usize,
        Some(checkpoint) => {
            if checkpoint.events_checked > log.len() {
                return Err(AuditError::CheckpointAheadOfLog {
                    checked: checkpoint.events_checked,
                    log_len: log.len(),
                });
            }
            if checkpoint.statements.len() != policy.len() {
                return Err(AuditError::PolicyMismatch {
                    detail: format!(
                        "checkpoint tracks {} statements, policy has {}",
                        checkpoint.statements.len(),
                        policy.len()
                    ),
                });
            }
            for (position, (tracked, statement)) in
                checkpoint.statements.iter().zip(policy.iter()).enumerate()
            {
                if tracked.id != statement.id() {
                    return Err(AuditError::PolicyMismatch {
                        detail: format!(
                            "statement {position} is `{}` in the checkpoint but `{}` in the \
                             policy",
                            tracked.id,
                            statement.id()
                        ),
                    });
                }
            }
            checkpoint.events_checked
        }
    };

    let mut prior_statements = checkpoint.map(|checkpoint| checkpoint.statements);
    let mut statements = Vec::with_capacity(policy.len());
    let report = check_each(policy, target(log), |position, statement, violations| {
        // Per-event kinds probe only the suffix: the carried prefix
        // violations go in front (both are in ascending event order, so the
        // concatenation is the full-log order). Aggregate kinds recompute
        // over the whole index and carry nothing.
        let start = violations.len();
        if let Some(tracked) = prior_statements.as_mut() {
            violations.append(&mut tracked[position].violations);
        }
        let verdict = probe_statement(log, index, statement, from as u32, violations);
        // One copy is unavoidable — the report and the next checkpoint each
        // own the list.
        let carried = if verdict.is_ok() && accumulates_per_event(statement) {
            violations[start..].to_vec()
        } else {
            Vec::new()
        };
        statements.push(StatementCheckpoint { id: statement.id().to_owned(), violations: carried });
        verdict
    });
    Ok((report, AuditCheckpoint { events_checked: log.len(), statements }))
}

/// Whether the statement kind reports one violation per offending event —
/// the kinds whose checkpointed audits accumulate prefix violations instead
/// of recomputing from an aggregate.
fn accumulates_per_event(statement: &Statement) -> bool {
    matches!(statement.kind(), StatementKind::Forbid { .. } | StatementKind::ServiceLimit { .. })
}

/// The retained full-scan checker: every statement re-walks the whole log.
/// Behaviourally identical to [`check_log`]; kept as the reference semantics
/// for differential testing.
pub fn check_log_scan(log: &EventLog, policy: &PrivacyPolicy) -> ComplianceReport {
    check_each(policy, target(log), |_, statement, violations| {
        scan_statement(log, statement, violations)
    })
}

/// Checks one statement by probing the index's posting lists and aggregates.
/// Per-event statement kinds consider only events with id ≥ `from` (the
/// checkpointed-audit suffix; `0` probes everything); aggregate kinds always
/// answer from the whole — incrementally maintained — index.
fn probe_statement(
    log: &EventLog,
    index: &EventLogIndex,
    statement: &Statement,
    from: u32,
    out: &mut Vec<Violation>,
) -> Result<(), Skip> {
    let events = log.events();
    // Posting lists are ascending, so each suffix past `from` is one
    // partition-point probe.
    match statement.kind() {
        StatementKind::Forbid { actors, action, fields } => {
            // Candidates: the action's permitted posting list (or every
            // permitted event for an unrestricted prohibition). The actor
            // matcher is evaluated once per distinct interned actor.
            let candidates = match action {
                Some(action) => index.of_action(*action),
                None => index.permitted(),
            };
            let candidates = &candidates[candidates.partition_point(|&id| id < from)..];
            let actor_ok: Vec<bool> =
                index.actors().iter().map(|actor| actors.matches(actor)).collect();
            let field_mask = match fields {
                FieldMatcher::Any => None,
                FieldMatcher::Only(set) => Some(index.field_mask(set.iter())),
            };
            out.extend(
                candidates
                    .iter()
                    .filter(|&&id| actor_ok[index.actor_index_of(id) as usize])
                    .filter(|&&id| match &field_mask {
                        // `matches_any` over an `Any` matcher still requires
                        // the event to carry at least one field.
                        None => index.has_fields(id),
                        Some(mask) => index.involves_any(id, mask),
                    })
                    .map(|&id| Violation::forbidden_event(&events[id as usize])),
            );
        }
        StatementKind::ServiceLimit { fields, allowed } => {
            // The service matcher is evaluated once per distinct service;
            // candidates come from the matched fields' posting lists.
            let service_ok: Vec<bool> =
                index.services().iter().map(|service| allowed.contains(service)).collect();
            let candidates: Vec<u32> = match fields {
                FieldMatcher::Any => {
                    let permitted = index.permitted();
                    permitted[permitted.partition_point(|&id| id < from)..]
                        .iter()
                        .copied()
                        .filter(|&id| index.has_fields(id))
                        .collect()
                }
                FieldMatcher::Only(set) => index.involving_any_field_from(set.iter(), from),
            };
            out.extend(
                candidates
                    .into_iter()
                    .filter(|&id| !service_ok[index.service_index_of(id) as usize])
                    .map(|id| Violation::outside_services(&events[id as usize])),
            );
        }
        StatementKind::PurposeLimit { .. } => return Err(Skip::NoPurposeInLog),
        StatementKind::RequireErasure { fields } => out.extend(
            index
                .erasure_timelines()
                .filter(|((_, field), _)| fields.matches(field))
                .filter(|(_, timeline)| timeline.violates_erasure())
                .map(|((user, field), _)| Violation::unerased(user, field)),
        ),
        StatementKind::MaxExposure { field, max_actors } => {
            let exposed = index.observing_actors(field);
            if exposed.len() > *max_actors {
                let exposed = exposed.into_iter().cloned().collect();
                out.push(Violation::observed(field, *max_actors, exposed));
            }
        }
        // Future statement kinds default to skipped rather than silently passing.
        #[allow(unreachable_patterns)]
        _ => return Err(Skip::UnsupportedByLog),
    }
    Ok(())
}

/// The original per-statement full scan, retained for differential testing.
fn scan_statement(
    log: &EventLog,
    statement: &Statement,
    out: &mut Vec<Violation>,
) -> Result<(), Skip> {
    match statement.kind() {
        StatementKind::Forbid { actors, action, fields } => out.extend(
            log.iter()
                .filter(|event| event.permitted())
                .filter(|event| action.is_none_or(|a| a == event.action()))
                .filter(|event| actors.matches(event.actor()))
                .filter(|event| fields.matches_any(event.fields()))
                .map(Violation::forbidden_event),
        ),
        StatementKind::ServiceLimit { fields, allowed } => out.extend(
            log.iter()
                .filter(|event| event.permitted())
                .filter(|event| fields.matches_any(event.fields()))
                .filter(|event| !allowed.contains(event.service()))
                .map(Violation::outside_services),
        ),
        StatementKind::PurposeLimit { .. } => return Err(Skip::NoPurposeInLog),
        StatementKind::RequireErasure { fields } => {
            // For every user whose matched fields were stored (collect /
            // create / anon), a later delete covering the field must exist.
            let mut stored: BTreeMap<(UserId, FieldId), u64> = BTreeMap::new();
            let mut deleted: BTreeMap<(UserId, FieldId), u64> = BTreeMap::new();
            for event in log.iter().filter(|e| e.permitted()) {
                for field in event.fields().iter().filter(|f| fields.matches(f)) {
                    let key = (event.user().clone(), field.clone());
                    match event.action() {
                        ActionKind::Collect | ActionKind::Create | ActionKind::Anon => {
                            stored.entry(key).or_insert(event.sequence());
                        }
                        ActionKind::Delete => {
                            deleted
                                .entry(key)
                                .and_modify(|latest| *latest = (*latest).max(event.sequence()))
                                .or_insert(event.sequence());
                        }
                        _ => {}
                    }
                }
            }
            out.extend(
                stored
                    .iter()
                    .filter(|(key, stored_at)| {
                        deleted.get(key).is_none_or(|deleted_at| deleted_at < stored_at)
                    })
                    .map(|((user, field), _)| Violation::unerased(user, field)),
            );
        }
        StatementKind::MaxExposure { field, max_actors } => {
            let exposed: BTreeSet<&ActorId> = log
                .iter()
                .filter(|event| event.permitted())
                .filter(|event| event.fields().contains(field))
                .filter(|event| {
                    matches!(
                        event.action(),
                        ActionKind::Read | ActionKind::Collect | ActionKind::Disclose
                    )
                })
                .map(|event| event.actor())
                .collect();
            if exposed.len() > *max_actors {
                let exposed = exposed.into_iter().cloned().collect();
                out.push(Violation::observed(field, *max_actors, exposed));
            }
        }
        // Future statement kinds default to skipped rather than silently passing.
        #[allow(unreachable_patterns)]
        _ => return Err(Skip::UnsupportedByLog),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::{ActorMatcher, FieldMatcher};
    use privacy_model::{DatastoreId, ServiceId};
    use privacy_runtime::Event;

    fn event(
        sequence: u64,
        service: &str,
        actor: &str,
        action: ActionKind,
        fields: &[&str],
        permitted: bool,
    ) -> Event {
        Event::new(
            sequence,
            "user-1",
            service,
            actor,
            action,
            fields.iter().map(|f| FieldId::new(*f)),
            Some(DatastoreId::new("EHR")),
            permitted,
        )
    }

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.append(event(0, "MedicalService", "Doctor", ActionKind::Collect, &["Diagnosis"], true));
        log.append(event(1, "MedicalService", "Doctor", ActionKind::Create, &["Diagnosis"], true));
        log.append(event(2, "MedicalService", "Nurse", ActionKind::Read, &["Treatment"], true));
        log.append(event(
            3,
            "MedicalResearchService",
            "Administrator",
            ActionKind::Read,
            &["Diagnosis"],
            true,
        ));
        log.append(event(
            4,
            "MedicalResearchService",
            "Researcher",
            ActionKind::Read,
            &["Diagnosis"],
            false, // denied by the access policy
        ));
        log
    }

    /// Runs both strategies and asserts they agree before returning the
    /// probed report — every test below therefore doubles as a differential
    /// check.
    fn check_both(log: &EventLog, policy: &PrivacyPolicy) -> ComplianceReport {
        let probed = check_log(log, policy);
        let scanned = check_log_scan(log, policy);
        assert_eq!(probed, scanned, "indexed and scan log reports diverge");
        assert_eq!(probed.render(), scanned.render());
        probed
    }

    #[test]
    fn forbid_flags_only_permitted_matching_events() {
        let policy = PrivacyPolicy::new("p").with_statement(Statement::forbid(
            "F1",
            "nobody outside the care team reads diagnosis",
            ActorMatcher::except([ActorId::new("Doctor"), ActorId::new("Nurse")]),
            Some(ActionKind::Read),
            FieldMatcher::only([FieldId::new("Diagnosis")]),
        ));
        let report = check_both(&sample_log(), &policy);
        // The administrator's permitted read violates; the researcher's
        // denied attempt does not.
        assert_eq!(report.violation_count(), 1);
        let violation = report.violations().next().unwrap();
        assert!(violation.subject().contains("event #3"));
        assert!(violation.detail().contains("Administrator"));
    }

    #[test]
    fn unrestricted_forbid_requires_at_least_one_field() {
        let mut log = sample_log();
        // A fieldless event never matches `FieldMatcher::Any` (there is no
        // field for `matches_any` to select).
        log.append(Event::new(
            5,
            "user-1",
            "MedicalService",
            "Administrator",
            ActionKind::Read,
            Vec::<FieldId>::new(),
            Some(DatastoreId::new("EHR")),
            true,
        ));
        let policy = PrivacyPolicy::new("p").with_statement(Statement::forbid(
            "F1",
            "the administrator may do nothing",
            ActorMatcher::only([ActorId::new("Administrator")]),
            None,
            FieldMatcher::Any,
        ));
        let report = check_both(&log, &policy);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations().next().unwrap().subject().contains("event #3"));
    }

    #[test]
    fn service_limit_flags_processing_outside_the_allowed_services() {
        let policy = PrivacyPolicy::new("p").with_statement(Statement::service_limit(
            "S1",
            "diagnosis is only processed by the medical service",
            FieldMatcher::only([FieldId::new("Diagnosis")]),
            [ServiceId::new("MedicalService")],
        ));
        let report = check_both(&sample_log(), &policy);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations().next().unwrap().detail().contains("MedicalResearchService"));
    }

    #[test]
    fn purpose_limit_is_skipped_at_runtime() {
        let policy = PrivacyPolicy::new("p").with_statement(Statement::purpose_limit(
            "P1",
            "purpose limited",
            FieldMatcher::Any,
            [privacy_model::Purpose::new("treatment").unwrap()],
        ));
        let report = check_both(&sample_log(), &policy);
        assert!(report.is_compliant());
        assert_eq!(report.skipped().count(), 1);
    }

    #[test]
    fn require_erasure_fails_for_stored_but_never_deleted_fields() {
        let policy = PrivacyPolicy::new("p").with_statement(Statement::require_erasure(
            "E1",
            "diagnosis must be deleted",
            FieldMatcher::only([FieldId::new("Diagnosis")]),
        ));
        let report = check_both(&sample_log(), &policy);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations().next().unwrap().subject().contains("user-1"));
    }

    #[test]
    fn require_erasure_passes_once_a_later_delete_is_observed() {
        let mut log = sample_log();
        log.append(event(
            5,
            "MedicalService",
            "Administrator",
            ActionKind::Delete,
            &["Diagnosis"],
            true,
        ));
        let policy = PrivacyPolicy::new("p").with_statement(Statement::require_erasure(
            "E1",
            "diagnosis must be deleted",
            FieldMatcher::only([FieldId::new("Diagnosis")]),
        ));
        assert!(check_both(&log, &policy).is_compliant());
    }

    #[test]
    fn require_erasure_ignores_deletes_that_precede_storage() {
        let mut log = EventLog::new();
        log.append(event(
            0,
            "MedicalService",
            "Administrator",
            ActionKind::Delete,
            &["Diagnosis"],
            true,
        ));
        log.append(event(1, "MedicalService", "Doctor", ActionKind::Create, &["Diagnosis"], true));
        let policy = PrivacyPolicy::new("p").with_statement(Statement::require_erasure(
            "E1",
            "diagnosis must be deleted",
            FieldMatcher::only([FieldId::new("Diagnosis")]),
        ));
        assert_eq!(check_both(&log, &policy).violation_count(), 1);
    }

    #[test]
    fn max_exposure_counts_distinct_observing_actors() {
        let strict = PrivacyPolicy::new("p").with_statement(Statement::max_exposure(
            "M1",
            "only the doctor may observe diagnosis",
            FieldId::new("Diagnosis"),
            1,
        ));
        let report = check_both(&sample_log(), &strict);
        assert_eq!(report.violation_count(), 1);
        assert!(report.violations().next().unwrap().detail().contains("2 actors"));

        let relaxed = PrivacyPolicy::new("p").with_statement(Statement::max_exposure(
            "M2",
            "two observers allowed",
            FieldId::new("Diagnosis"),
            2,
        ));
        assert!(check_both(&sample_log(), &relaxed).is_compliant());
    }

    #[test]
    fn empty_log_is_compliant_with_everything_checkable() {
        let policy = PrivacyPolicy::new("p")
            .with_statement(Statement::forbid(
                "F1",
                "no reads at all",
                ActorMatcher::Any,
                Some(ActionKind::Read),
                FieldMatcher::Any,
            ))
            .with_statement(Statement::require_erasure("E1", "erasable", FieldMatcher::Any));
        let report = check_both(&EventLog::new(), &policy);
        assert!(report.is_compliant());
        assert!(report.target().contains("0 events"));
    }

    #[test]
    fn one_index_serves_many_policies() {
        let log = sample_log();
        let index = EventLogIndex::build(&log);
        let forbid = PrivacyPolicy::new("p1").with_statement(Statement::forbid(
            "F1",
            "nobody reads",
            ActorMatcher::Any,
            Some(ActionKind::Read),
            FieldMatcher::Any,
        ));
        let erasure = PrivacyPolicy::new("p2").with_statement(Statement::require_erasure(
            "E1",
            "erasable",
            FieldMatcher::Any,
        ));
        for policy in [&forbid, &erasure] {
            assert_eq!(check_log_indexed(&log, &index, policy), check_log_scan(&log, policy));
        }
    }
}
