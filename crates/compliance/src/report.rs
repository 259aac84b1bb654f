//! Compliance reports: the outcome of checking a policy against a model or
//! an observed execution.
//!
//! A report is built on every check and read far less often, so building
//! it costs the probes, not the text: a [`ComplianceReport`] shares its
//! policy's statements through one handle (outcomes refer to them by
//! position), and a [`Violation`] keeps the facts of a breach — the
//! transition and its shared label, the event, the field, the exposed
//! actors — and formats its text only when it is read. Report `==`
//! therefore compares structure: the same statements, verdicts and
//! violation facts in the same order, which is exactly when two reports
//! render the same text.

use crate::policy::PrivacyPolicy;
use crate::statement::Statement;
use privacy_lts::{Transition, TransitionId, TransitionLabel};
use privacy_model::{ActorId, FieldId, UserId};
use privacy_runtime::Event;
use std::fmt;
use std::sync::Arc;

/// One detected breach of a policy statement. It holds what it needs to
/// render; [`Violation::subject`], [`Violation::detail`] and `Display`
/// format the text on each call.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation(Breach);

#[derive(Debug, Clone, PartialEq)]
enum Breach {
    /// An LTS transition a prohibition forbids.
    ForbiddenTransition { id: TransitionId, label: Arc<TransitionLabel> },
    /// An LTS transition over purpose-limited fields with an undeclared
    /// purpose, or none.
    UndeclaredPurpose { id: TransitionId, label: Arc<TransitionLabel> },
    /// A field the model processes but no delete action covers.
    UnerasableField(FieldId),
    /// More actors than allowed can identify the field in the model.
    Identifiable { field: FieldId, limit: usize, actors: Vec<ActorId> },
    /// A permitted event a prohibition forbids.
    ForbiddenEvent(Event),
    /// A permitted event that processed limited fields outside the allowed
    /// services.
    OutsideServices(Event),
    /// A user's field that was stored and never deleted afterwards.
    Unerased { user: UserId, field: FieldId },
    /// More actors than allowed observed the field at runtime.
    Observed { field: FieldId, limit: usize, actors: Vec<ActorId> },
}

impl Violation {
    pub(crate) fn forbidden_transition(id: TransitionId, transition: Transition<'_>) -> Self {
        Violation(Breach::ForbiddenTransition { id, label: Arc::clone(transition.shared_label()) })
    }

    pub(crate) fn undeclared_purpose(id: TransitionId, transition: Transition<'_>) -> Self {
        Violation(Breach::UndeclaredPurpose { id, label: Arc::clone(transition.shared_label()) })
    }

    pub(crate) fn unerasable_field(field: &FieldId) -> Self {
        Violation(Breach::UnerasableField(field.clone()))
    }

    /// `actors` must arrive in the variable space's actor order.
    pub(crate) fn identifiable(field: &FieldId, limit: usize, actors: Vec<ActorId>) -> Self {
        Violation(Breach::Identifiable { field: field.clone(), limit, actors })
    }

    pub(crate) fn forbidden_event(event: &Event) -> Self {
        Violation(Breach::ForbiddenEvent(event.clone()))
    }

    pub(crate) fn outside_services(event: &Event) -> Self {
        Violation(Breach::OutsideServices(event.clone()))
    }

    pub(crate) fn unerased(user: &UserId, field: &FieldId) -> Self {
        Violation(Breach::Unerased { user: user.clone(), field: field.clone() })
    }

    /// `actors` must arrive sorted by actor id.
    pub(crate) fn observed(field: &FieldId, limit: usize, actors: Vec<ActorId>) -> Self {
        Violation(Breach::Observed { field: field.clone(), limit, actors })
    }

    /// What violated the statement (a transition, an event, a field...).
    pub fn subject(&self) -> String {
        let mut out = String::new();
        self.write_subject(&mut out).expect("writing to a String cannot fail");
        out
    }

    /// Why it is a violation.
    pub fn detail(&self) -> String {
        let mut out = String::new();
        self.write_detail(&mut out).expect("writing to a String cannot fail");
        out
    }

    fn write_subject(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match &self.0 {
            Breach::ForbiddenTransition { id, .. } | Breach::UndeclaredPurpose { id, .. } => {
                write!(out, "transition #{}", id.0)
            }
            Breach::UnerasableField(field)
            | Breach::Identifiable { field, .. }
            | Breach::Observed { field, .. } => write!(out, "field `{field}`"),
            Breach::ForbiddenEvent(event) | Breach::OutsideServices(event) => {
                write!(out, "event #{}", event.sequence())
            }
            Breach::Unerased { user, field } => write!(out, "user `{user}`, field `{field}`"),
        }
    }

    fn write_detail(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match &self.0 {
            Breach::ForbiddenTransition { label, .. } => write!(
                out,
                "{:?} on {{{}}} by `{}` is forbidden by the policy",
                label.action(),
                Joined(label.fields()),
                label.actor()
            ),
            Breach::UndeclaredPurpose { label, .. } => match label.purpose() {
                Some(purpose) => write!(
                    out,
                    "purpose `{purpose}` is not among the declared purposes for {{{}}}",
                    Joined(label.fields())
                ),
                None => {
                    out.write_str("the transition states no purpose for purpose-limited fields")
                }
            },
            Breach::UnerasableField(_) => {
                out.write_str("the model contains no delete action covering this field")
            }
            Breach::Identifiable { limit, actors, .. } => write!(
                out,
                "{} actors can identify the field (limit {limit}): {}",
                actors.len(),
                Joined(actors)
            ),
            Breach::ForbiddenEvent(event) => write!(
                out,
                "{:?} on {{{}}} by `{}` during `{}` is forbidden by the policy",
                event.action(),
                Joined(event.fields()),
                event.actor(),
                event.service()
            ),
            Breach::OutsideServices(event) => write!(
                out,
                "fields {{{}}} were processed by service `{}`, outside the allowed set",
                Joined(event.fields()),
                event.service()
            ),
            Breach::Unerased { .. } => {
                out.write_str("the field was stored but never deleted in the observed execution")
            }
            Breach::Observed { limit, actors, .. } => write!(
                out,
                "{} actors observed the field at runtime (limit {limit}): {}",
                actors.len(),
                Joined(actors)
            ),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_subject(f)?;
        f.write_str(": ")?;
        self.write_detail(f)
    }
}

/// Comma-separated names, rendered without collecting them first.
struct Joined<'a, T>(&'a T);

impl<'a, T> fmt::Display for Joined<'a, T>
where
    &'a T: IntoIterator,
    <&'a T as IntoIterator>::Item: fmt::Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, name) in self.0.into_iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{name}")?;
        }
        Ok(())
    }
}

/// Why a statement could not be evaluated against an artefact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Skip {
    /// A service limit against an LTS.
    NoServiceInLts,
    /// A statement kind the LTS checker does not know.
    UnsupportedByLts,
    /// A purpose limit against an event log.
    NoPurposeInLog,
    /// A statement kind the event-log checker does not know.
    UnsupportedByLog,
}

impl Skip {
    fn reason(self) -> &'static str {
        match self {
            Skip::NoServiceInLts => {
                "LTS transitions carry no service information; check the event log instead"
            }
            Skip::UnsupportedByLts => "statement kind is not supported by the LTS checker",
            Skip::NoPurposeInLog => {
                "runtime events record the service but not a per-action purpose"
            }
            Skip::UnsupportedByLog => "statement kind is not supported by the event-log checker",
        }
    }
}

/// What a report was checked against; rendered only on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    Lts { states: usize, transitions: usize },
    Log { events: usize },
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Lts { states, transitions } => {
                write!(f, "LTS ({states} states, {transitions} transitions)")
            }
            Target::Log { events } => write!(f, "event log ({events} events)"),
        }
    }
}

/// One statement's verdict: its violations are `violations[previous
/// end..end]`, and a skipped statement has none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    end: usize,
    skip: Option<Skip>,
}

/// The outcome of checking one statement: a view into its report.
#[derive(Debug, Clone, Copy)]
pub struct StatementOutcome<'a> {
    statement: &'a Statement,
    violations: &'a [Violation],
    skip: Option<Skip>,
}

impl<'a> StatementOutcome<'a> {
    /// The statement this outcome refers to.
    pub fn statement(&self) -> &'a Statement {
        self.statement
    }

    /// The violations found (empty for skipped statements).
    pub fn violations(&self) -> &'a [Violation] {
        self.violations
    }

    /// Whether the statement was checked and holds.
    pub fn holds(&self) -> bool {
        self.skip.is_none() && self.violations.is_empty()
    }

    /// Whether the statement was skipped: it cannot be evaluated against
    /// this artifact (e.g. a service-limit statement against an LTS, which
    /// carries no service information).
    pub fn is_skipped(&self) -> bool {
        self.skip.is_some()
    }

    /// Why the statement was skipped, if it was.
    pub fn skip_reason(&self) -> Option<&'static str> {
        self.skip.map(Skip::reason)
    }
}

/// The result of checking a whole [`crate::PrivacyPolicy`] against one
/// artifact (an LTS or an event log).
#[derive(Debug, Clone)]
pub struct ComplianceReport {
    target: Target,
    /// The checked policy's statements, shared with it.
    statements: Arc<Vec<Statement>>,
    /// One verdict per statement, in policy order.
    slots: Vec<Slot>,
    /// Every statement's violations, concatenated in policy order.
    violations: Vec<Violation>,
}

impl PartialEq for ComplianceReport {
    fn eq(&self, other: &Self) -> bool {
        self.target == other.target
            && (Arc::ptr_eq(&self.statements, &other.statements)
                || self.statements == other.statements)
            && self.slots == other.slots
            && self.violations == other.violations
    }
}

impl ComplianceReport {
    /// A short description of what was checked (e.g.
    /// `"LTS (7 states, 6 transitions)"`).
    pub fn target(&self) -> String {
        self.target.to_string()
    }

    /// The checked policy's statements, in policy order.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// Per-statement outcomes in policy order.
    pub fn outcomes(&self) -> impl ExactSizeIterator<Item = StatementOutcome<'_>> + '_ {
        (0..self.slots.len()).map(|position| self.outcome_at(position))
    }

    fn outcome_at(&self, position: usize) -> StatementOutcome<'_> {
        let start = position.checked_sub(1).map_or(0, |previous| self.slots[previous].end);
        let slot = self.slots[position];
        StatementOutcome {
            statement: &self.statements[position],
            violations: &self.violations[start..slot.end],
            skip: slot.skip,
        }
    }

    /// Every violation across all statements, in policy order.
    pub fn violations(&self) -> impl ExactSizeIterator<Item = &Violation> {
        self.violations.iter()
    }

    /// Total number of violations.
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// Statements that could not be evaluated against this artifact.
    pub fn skipped(&self) -> impl Iterator<Item = StatementOutcome<'_>> + '_ {
        self.outcomes().filter(StatementOutcome::is_skipped)
    }

    /// Whether every checked statement holds (skipped statements do not count
    /// against compliance).
    pub fn is_compliant(&self) -> bool {
        self.violations.is_empty()
    }

    /// The outcome for a particular statement identifier.
    pub fn outcome(&self, statement_id: &str) -> Option<StatementOutcome<'_>> {
        let position = self.statements.iter().position(|s| s.id() == statement_id)?;
        Some(self.outcome_at(position))
    }

    /// Renders a human-readable multi-line summary.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for ComplianceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compliance report for {} — {} statement(s), {} violation(s)",
            self.target,
            self.slots.len(),
            self.violations.len()
        )?;
        for outcome in self.outcomes() {
            let statement = outcome.statement;
            if let Some(reason) = outcome.skip_reason() {
                writeln!(f, "  SKIP  {statement} ({reason})")?;
            } else if outcome.violations.is_empty() {
                writeln!(f, "  PASS  {statement}")?;
            } else {
                writeln!(f, "  FAIL  {statement}")?;
                for violation in outcome.violations {
                    writeln!(f, "        - {violation}")?;
                }
            }
        }
        Ok(())
    }
}

/// Builds a report by checking `policy`'s statements in order: `check`
/// gets each statement with its position and appends its violations to the
/// sink, or returns why it skipped the statement.
pub(crate) fn check_each(
    policy: &PrivacyPolicy,
    target: Target,
    mut check: impl FnMut(usize, &Statement, &mut Vec<Violation>) -> Result<(), Skip>,
) -> ComplianceReport {
    let mut slots = Vec::with_capacity(policy.len());
    let mut violations = Vec::new();
    for (position, statement) in policy.iter().enumerate() {
        let start = violations.len();
        let skip = check(position, statement, &mut violations).err();
        if skip.is_some() {
            violations.truncate(start);
        }
        slots.push(Slot { end: violations.len(), skip });
    }
    ComplianceReport {
        target,
        statements: Arc::clone(policy.shared_statements()),
        slots,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::FieldMatcher;

    fn policy() -> PrivacyPolicy {
        ["A", "B", "C"]
            .into_iter()
            .map(|id| Statement::require_erasure(id, "erasable", FieldMatcher::Any))
            .collect()
    }

    /// A passes, B fails on one field, C is skipped.
    fn sample_report(policy: &PrivacyPolicy) -> ComplianceReport {
        check_each(policy, Target::Lts { states: 3, transitions: 2 }, |position, _, out| {
            match position {
                0 => Ok(()),
                1 => {
                    out.push(Violation::unerasable_field(&FieldId::new("Weight")));
                    Ok(())
                }
                _ => Err(Skip::NoServiceInLts),
            }
        })
    }

    #[test]
    fn report_counts_violations_across_statements() {
        let report = sample_report(&policy());
        assert_eq!(report.violation_count(), 1);
        assert!(!report.is_compliant());
        assert_eq!(report.skipped().count(), 1);
        assert_eq!(report.outcomes().len(), 3);
        assert_eq!(report.target(), "LTS (3 states, 2 transitions)");
    }

    #[test]
    fn statement_outcomes_expose_holds_and_skipped() {
        let report = sample_report(&policy());
        assert!(report.outcome("A").unwrap().holds());
        assert!(!report.outcome("B").unwrap().holds());
        assert_eq!(report.outcome("B").unwrap().violations().len(), 1);
        let skipped = report.outcome("C").unwrap();
        assert!(skipped.is_skipped() && !skipped.holds());
        assert!(skipped.skip_reason().unwrap().contains("service information"));
        assert!(report.outcome("Z").is_none());
    }

    #[test]
    fn empty_report_is_compliant() {
        let report =
            check_each(&PrivacyPolicy::new("nothing"), Target::Log { events: 0 }, |_, _, _| Ok(()));
        assert!(report.is_compliant());
        assert_eq!(report.violation_count(), 0);
        assert_eq!(report.target(), "event log (0 events)");
    }

    #[test]
    fn render_marks_pass_fail_and_skip_lines() {
        let text = sample_report(&policy()).render();
        assert!(text.starts_with("compliance report for LTS (3 states, 2 transitions)"));
        assert!(text.contains("PASS  [A]"));
        assert!(text.contains("FAIL  [B]"));
        assert!(text.contains("SKIP  [C] erasable (LTS transitions carry no service"));
        assert!(text.contains("- field `Weight`: the model contains no delete action"));
        assert_eq!(text, sample_report(&policy()).to_string());
    }

    #[test]
    fn reports_share_their_policy_statements_and_compare_by_content() {
        let policy = policy();
        let report = sample_report(&policy);
        assert!(std::ptr::eq(report.statements(), policy.statements()));
        // A second policy with equal statements is a different allocation,
        // yet the reports are equal.
        assert_eq!(sample_report(&policy), sample_report(&self::policy()));
        let passing =
            check_each(&policy, Target::Lts { states: 3, transitions: 2 }, |_, _, _| Ok(()));
        assert_ne!(passing, report);
    }

    #[test]
    fn violations_render_on_read() {
        let violation = Violation::identifiable(
            &FieldId::new("Name"),
            1,
            vec![ActorId::new("Doctor"), ActorId::new("Nurse")],
        );
        assert_eq!(violation.subject(), "field `Name`");
        assert_eq!(violation.detail(), "2 actors can identify the field (limit 1): Doctor, Nurse");
        assert_eq!(
            violation.to_string(),
            "field `Name`: 2 actors can identify the field (limit 1): Doctor, Nurse"
        );
        let unerased = Violation::unerased(&UserId::new("u-1"), &FieldId::new("Weight"));
        assert_eq!(unerased.subject(), "user `u-1`, field `Weight`");
    }
}
