//! Transition labels.
//!
//! Section II-B: transitions *"are labelled according to i) an action, ii)
//! the set of data fields, iii) the data schema that the data field is a
//! part of, iv) the actor performing the action. There are two optional
//! fields: i) a purpose ... and ii) a privacy risk measure ... (whose value
//! is calculated and annotated during risk analysis)"*.

use privacy_model::{ActorId, FieldId, Likelihood, Purpose, RiskLevel, SchemaId, Severity};
use std::collections::BTreeSet;
use std::fmt;

/// The privacy actions that can label a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ActionKind {
    /// An actor collects personal data directly from the data subject.
    Collect,
    /// An actor creates personal data in a datastore.
    Create,
    /// An actor reads personal data from a datastore.
    Read,
    /// An actor discloses personal data to another actor.
    Disclose,
    /// An actor writes pseudonymised data to an anonymised datastore.
    Anon,
    /// An actor deletes personal data from a datastore.
    Delete,
}

impl ActionKind {
    /// All action kinds.
    pub const ALL: [ActionKind; 6] = [
        ActionKind::Collect,
        ActionKind::Create,
        ActionKind::Read,
        ActionKind::Disclose,
        ActionKind::Anon,
        ActionKind::Delete,
    ];

    /// The position of this kind in [`ActionKind::ALL`] — the dense table
    /// index the columnar indexes (the LTS analysis index and the runtime
    /// event-log index) key their per-action arrays with.
    #[inline]
    pub fn table_index(self) -> usize {
        match self {
            ActionKind::Collect => 0,
            ActionKind::Create => 1,
            ActionKind::Read => 2,
            ActionKind::Disclose => 3,
            ActionKind::Anon => 4,
            ActionKind::Delete => 5,
        }
    }
}

impl fmt::Display for ActionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ActionKind::Collect => "collect",
            ActionKind::Create => "create",
            ActionKind::Read => "read",
            ActionKind::Disclose => "disclose",
            ActionKind::Anon => "anon",
            ActionKind::Delete => "delete",
        };
        f.write_str(name)
    }
}

/// The risk measure attached to a transition by the risk analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskAnnotation {
    level: RiskLevel,
    severity: Option<Severity>,
    likelihood: Option<Likelihood>,
    score: Option<f64>,
    note: String,
}

impl RiskAnnotation {
    /// Creates an annotation with just a risk level.
    pub fn level(level: RiskLevel) -> Self {
        RiskAnnotation { level, severity: None, likelihood: None, score: None, note: String::new() }
    }

    /// Creates an annotation from the two risk dimensions plus the combined
    /// level.
    pub fn dimensions(severity: Severity, likelihood: Likelihood, level: RiskLevel) -> Self {
        RiskAnnotation {
            level,
            severity: Some(severity),
            likelihood: Some(likelihood),
            score: None,
            note: String::new(),
        }
    }

    /// Attaches a numeric score (e.g. a pseudonymisation value-risk score).
    pub fn with_score(mut self, score: f64) -> Self {
        self.score = Some(score);
        self
    }

    /// Attaches a free-text note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The combined risk level.
    pub fn risk_level(&self) -> RiskLevel {
        self.level
    }

    /// The impact dimension, if recorded.
    pub fn severity(&self) -> Option<Severity> {
        self.severity
    }

    /// The likelihood dimension, if recorded.
    pub fn likelihood(&self) -> Option<Likelihood> {
        self.likelihood
    }

    /// The numeric score, if recorded.
    pub fn score(&self) -> Option<f64> {
        self.score
    }

    /// The note (may be empty).
    pub fn note(&self) -> &str {
        &self.note
    }
}

impl fmt::Display for RiskAnnotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "risk={}", self.level)?;
        if let (Some(sev), Some(lik)) = (self.severity, self.likelihood) {
            write!(f, " (impact={sev}, likelihood={lik})")?;
        }
        if let Some(score) = self.score {
            write!(f, " score={score:.3}")?;
        }
        if !self.note.is_empty() {
            write!(f, " [{}]", self.note)?;
        }
        Ok(())
    }
}

/// The full label of one transition.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionLabel {
    action: ActionKind,
    fields: BTreeSet<FieldId>,
    schema: Option<SchemaId>,
    actor: ActorId,
    purpose: Option<Purpose>,
    risk: Option<RiskAnnotation>,
}

impl TransitionLabel {
    /// Creates a label with the four mandatory elements.
    pub fn new(
        action: ActionKind,
        actor: impl Into<ActorId>,
        fields: impl IntoIterator<Item = FieldId>,
        schema: Option<SchemaId>,
    ) -> Self {
        TransitionLabel {
            action,
            fields: fields.into_iter().collect(),
            schema,
            actor: actor.into(),
            purpose: None,
            risk: None,
        }
    }

    /// Builder-style: attaches the optional purpose.
    pub fn with_purpose(mut self, purpose: Purpose) -> Self {
        self.purpose = Some(purpose);
        self
    }

    /// Builder-style: attaches the optional risk annotation.
    pub fn with_risk(mut self, risk: RiskAnnotation) -> Self {
        self.risk = Some(risk);
        self
    }

    /// The action.
    pub fn action(&self) -> ActionKind {
        self.action
    }

    /// The fields the action operates on.
    pub fn fields(&self) -> &BTreeSet<FieldId> {
        &self.fields
    }

    /// The schema the fields belong to, if the action involves a datastore.
    pub fn schema(&self) -> Option<&SchemaId> {
        self.schema.as_ref()
    }

    /// The actor performing the action.
    pub fn actor(&self) -> &ActorId {
        &self.actor
    }

    /// The purpose, if declared.
    pub fn purpose(&self) -> Option<&Purpose> {
        self.purpose.as_ref()
    }

    /// The risk annotation, if the risk analysis has attached one.
    pub fn risk(&self) -> Option<&RiskAnnotation> {
        self.risk.as_ref()
    }

    /// Returns `true` if the transition involves the given field.
    pub fn involves_field(&self, field: &FieldId) -> bool {
        self.fields.contains(field)
    }
}

impl fmt::Display for TransitionLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<&str> = self.fields.iter().map(FieldId::as_str).collect();
        write!(f, "{}({}, {{{}}}", self.action, self.actor, fields.join(", "))?;
        if let Some(schema) = &self.schema {
            write!(f, ", {schema}")?;
        }
        f.write_str(")")?;
        if let Some(purpose) = &self.purpose {
            write!(f, " for `{purpose}`")?;
        }
        if let Some(risk) = &self.risk {
            write!(f, " {risk}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_kind_display_and_all() {
        assert_eq!(ActionKind::Collect.to_string(), "collect");
        assert_eq!(ActionKind::Anon.to_string(), "anon");
        assert_eq!(ActionKind::ALL.len(), 6);
    }

    #[test]
    fn table_index_matches_the_all_order() {
        for (position, action) in ActionKind::ALL.iter().enumerate() {
            assert_eq!(action.table_index(), position, "{action} misaligned with ALL");
        }
    }

    #[test]
    fn label_mandatory_and_optional_elements() {
        let label = TransitionLabel::new(
            ActionKind::Read,
            "Administrator",
            [FieldId::new("Diagnosis")],
            Some(SchemaId::new("EHR")),
        )
        .with_purpose(Purpose::new("maintenance").unwrap());

        assert_eq!(label.action(), ActionKind::Read);
        assert_eq!(label.actor().as_str(), "Administrator");
        assert_eq!(label.fields().len(), 1);
        assert!(label.involves_field(&FieldId::new("Diagnosis")));
        assert!(!label.involves_field(&FieldId::new("Name")));
        assert_eq!(label.schema().unwrap().as_str(), "EHR");
        assert_eq!(label.purpose().unwrap().as_str(), "maintenance");
        assert!(label.risk().is_none());
    }

    #[test]
    fn risk_annotation_lifecycle() {
        let plain = TransitionLabel::new(
            ActionKind::Read,
            "Administrator",
            [FieldId::new("Diagnosis")],
            None,
        );
        let label = plain.clone().with_risk(RiskAnnotation::dimensions(
            Severity::High,
            Likelihood::Medium,
            RiskLevel::Medium,
        ));
        let risk = label.risk().unwrap();
        assert_eq!(risk.risk_level(), RiskLevel::Medium);
        assert_eq!(risk.severity(), Some(Severity::High));
        assert_eq!(risk.likelihood(), Some(Likelihood::Medium));
        assert!(plain.risk().is_none());
        assert_ne!(plain, label);
    }

    #[test]
    fn risk_annotation_with_score_and_note() {
        let annotation =
            RiskAnnotation::level(RiskLevel::High).with_score(0.9).with_note("value risk over 90%");
        assert_eq!(annotation.score(), Some(0.9));
        assert_eq!(annotation.note(), "value risk over 90%");
        let text = annotation.to_string();
        assert!(text.contains("risk=High"));
        assert!(text.contains("score=0.900"));
        assert!(text.contains("value risk over 90%"));
    }

    #[test]
    fn label_display_reads_like_the_paper() {
        let label = TransitionLabel::new(
            ActionKind::Collect,
            "Receptionist",
            [FieldId::new("Name"), FieldId::new("DOB")],
            None,
        )
        .with_purpose(Purpose::new("book appointment").unwrap());
        assert_eq!(label.to_string(), "collect(Receptionist, {DOB, Name}) for `book appointment`");

        let label = label.with_risk(RiskAnnotation::level(RiskLevel::Low));
        assert!(label.to_string().contains("risk=Low"));
    }
}
