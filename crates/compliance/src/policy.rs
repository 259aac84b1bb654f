//! Privacy policies: named, ordered collections of [`Statement`]s.

use crate::statement::{ActorMatcher, FieldMatcher, Statement, StatementKind};
use privacy_model::{Catalog, FieldKind, Purpose};
use std::fmt;
use std::sync::Arc;

/// A privacy policy: the promises a service makes about how personal data is
/// handled, in machine-checkable form.
///
/// The statements sit behind one shared handle: every
/// [`crate::ComplianceReport`] checked against the policy shares it, so a
/// check copies no statement, and a cloned policy shares it until either
/// copy is edited.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrivacyPolicy {
    name: String,
    statements: Arc<Vec<Statement>>,
}

impl PrivacyPolicy {
    /// Creates an empty policy with the given name.
    ///
    /// # Examples
    ///
    /// ```
    /// use privacy_compliance::{FieldMatcher, PrivacyPolicy, Statement};
    ///
    /// let policy = PrivacyPolicy::new("clinic policy")
    ///     .with_statement(Statement::require_erasure("E1", "erasable", FieldMatcher::Any));
    /// assert_eq!(policy.len(), 1);
    /// ```
    pub fn new(name: impl Into<String>) -> Self {
        PrivacyPolicy { name: name.into(), statements: Arc::default() }
    }

    /// Adds a statement (builder style).
    pub fn with_statement(mut self, statement: Statement) -> Self {
        self.add_statement(statement);
        self
    }

    /// Adds a statement in place.
    pub fn add_statement(&mut self, statement: Statement) -> &mut Self {
        Arc::make_mut(&mut self.statements).push(statement);
        self
    }

    /// The policy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The statements in declaration order.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// The shared handle reports keep to the statements.
    pub(crate) fn shared_statements(&self) -> &Arc<Vec<Statement>> {
        &self.statements
    }

    /// Looks up a statement by identifier.
    pub fn statement(&self, id: &str) -> Option<&Statement> {
        self.statements.iter().find(|s| s.id() == id)
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// Whether the policy has no statements.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Iterates over the statements.
    pub fn iter(&self) -> impl Iterator<Item = &Statement> {
        self.statements.iter()
    }
}

impl FromIterator<Statement> for PrivacyPolicy {
    fn from_iter<T: IntoIterator<Item = Statement>>(iter: T) -> Self {
        PrivacyPolicy {
            name: "privacy policy".into(),
            statements: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl Extend<Statement> for PrivacyPolicy {
    fn extend<T: IntoIterator<Item = Statement>>(&mut self, iter: T) {
        Arc::make_mut(&mut self.statements).extend(iter);
    }
}

impl fmt::Display for PrivacyPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "privacy policy `{}` ({} statements)", self.name, self.statements.len())?;
        for statement in self.statements.iter() {
            writeln!(f, "  {statement}")?;
        }
        Ok(())
    }
}

/// Derives a baseline "data-protection hygiene" policy from a catalog, in the
/// spirit of GDPR-style obligations:
///
/// * every *sensitive* field must be erasable (right to erasure);
/// * every *sensitive* field may only be processed for the given purposes
///   (purpose limitation), when `allowed_purposes` is non-empty;
/// * every *identifier* field gets a bounded-exposure statement limiting how
///   many distinct actors may be able to identify it (data minimisation).
///
/// The generated statement identifiers are `ERASE-<field>`, `PURPOSE-<field>`
/// and `EXPOSE-<field>`.
///
/// # Examples
///
/// ```
/// use privacy_compliance::baseline_policy;
/// use privacy_model::{Catalog, DataField};
///
/// # fn main() -> Result<(), privacy_model::ModelError> {
/// let mut catalog = Catalog::new();
/// catalog.add_field(DataField::sensitive("Diagnosis"))?;
/// catalog.add_field(DataField::identifier("Name"))?;
/// let policy = baseline_policy(&catalog, [], 3);
/// assert_eq!(policy.len(), 2); // ERASE-Diagnosis + EXPOSE-Name
/// # Ok(())
/// # }
/// ```
pub fn baseline_policy(
    catalog: &Catalog,
    allowed_purposes: impl IntoIterator<Item = Purpose>,
    max_identifier_exposure: usize,
) -> PrivacyPolicy {
    let allowed: Vec<Purpose> = allowed_purposes.into_iter().collect();
    let mut policy = PrivacyPolicy::new("baseline data-protection policy");
    for field in catalog.fields() {
        if field.is_pseudonymised() {
            continue;
        }
        match field.kind() {
            FieldKind::Sensitive => {
                policy.add_statement(Statement::require_erasure(
                    format!("ERASE-{}", field.id()),
                    format!("`{}` must be erasable on request", field.id()),
                    FieldMatcher::only([field.id().clone()]),
                ));
                if !allowed.is_empty() {
                    policy.add_statement(Statement::purpose_limit(
                        format!("PURPOSE-{}", field.id()),
                        format!("`{}` is processed only for declared purposes", field.id()),
                        FieldMatcher::only([field.id().clone()]),
                        allowed.iter().cloned(),
                    ));
                }
            }
            FieldKind::Identifier => {
                policy.add_statement(Statement::max_exposure(
                    format!("EXPOSE-{}", field.id()),
                    format!(
                        "at most {max_identifier_exposure} actors may be able to identify `{}`",
                        field.id()
                    ),
                    field.id().clone(),
                    max_identifier_exposure,
                ));
            }
            _ => {}
        }
    }
    policy
}

/// A convenience statement forbidding every non-allowed actor from every
/// action on the given fields — the compliance counterpart of the paper's
/// "non-allowed actor" notion.
pub fn forbid_non_allowed(
    id: impl Into<String>,
    allowed_actors: impl IntoIterator<Item = privacy_model::ActorId>,
    fields: FieldMatcher,
) -> Statement {
    let allowed: Vec<privacy_model::ActorId> = allowed_actors.into_iter().collect();
    let description = format!(
        "only {{{}}} may act on {fields}",
        allowed.iter().map(|a| a.as_str()).collect::<Vec<_>>().join(", ")
    );
    Statement::new(
        id,
        description,
        StatementKind::Forbid { actors: ActorMatcher::except(allowed), action: None, fields },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use privacy_model::{ActorId, DataField, FieldId};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add_field(DataField::identifier("Name")).unwrap();
        catalog.add_field(DataField::quasi_identifier("Age")).unwrap();
        catalog.add_field_with_anonymised(DataField::sensitive("Diagnosis")).unwrap();
        catalog.add_field(DataField::sensitive("Weight")).unwrap();
        catalog
    }

    #[test]
    fn policy_builder_accumulates_statements_in_order() {
        let policy = PrivacyPolicy::new("p")
            .with_statement(Statement::require_erasure("A", "a", FieldMatcher::Any))
            .with_statement(Statement::max_exposure("B", "b", FieldId::new("Name"), 2));
        assert_eq!(policy.len(), 2);
        assert_eq!(policy.statements()[0].id(), "A");
        assert_eq!(policy.statement("B").unwrap().description(), "b");
        assert!(policy.statement("C").is_none());
        assert!(!policy.is_empty());
    }

    #[test]
    fn policy_collects_from_iterator_and_extends() {
        let mut policy: PrivacyPolicy =
            [Statement::require_erasure("A", "a", FieldMatcher::Any)].into_iter().collect();
        policy.extend([Statement::require_erasure("B", "b", FieldMatcher::Any)]);
        assert_eq!(policy.len(), 2);
    }

    #[test]
    fn baseline_policy_covers_sensitive_and_identifier_fields() {
        let policy = baseline_policy(&catalog(), [Purpose::new("treatment").unwrap()], 3);
        // Diagnosis + Weight get ERASE and PURPOSE, Name gets EXPOSE.
        assert!(policy.statement("ERASE-Diagnosis").is_some());
        assert!(policy.statement("PURPOSE-Diagnosis").is_some());
        assert!(policy.statement("ERASE-Weight").is_some());
        assert!(policy.statement("EXPOSE-Name").is_some());
        assert!(policy.statement("ERASE-Age").is_none());
        assert_eq!(policy.len(), 5);
    }

    #[test]
    fn baseline_policy_skips_pseudonymised_fields() {
        let policy = baseline_policy(&catalog(), [], 3);
        assert!(policy.iter().all(|s| !s.id().contains(privacy_model::FieldId::ANON_SUFFIX)));
    }

    #[test]
    fn baseline_policy_without_purposes_omits_purpose_statements() {
        let policy = baseline_policy(&catalog(), [], 3);
        assert!(policy.statement("PURPOSE-Diagnosis").is_none());
        assert!(policy.statement("ERASE-Diagnosis").is_some());
    }

    #[test]
    fn forbid_non_allowed_excludes_exactly_the_allowed_actors() {
        let statement = forbid_non_allowed(
            "F1",
            [ActorId::new("Doctor"), ActorId::new("Nurse")],
            FieldMatcher::only([FieldId::new("Diagnosis")]),
        );
        match statement.kind() {
            StatementKind::Forbid { actors, action, fields } => {
                assert!(action.is_none());
                assert!(!actors.matches(&ActorId::new("Doctor")));
                assert!(actors.matches(&ActorId::new("Researcher")));
                assert!(fields.matches(&FieldId::new("Diagnosis")));
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn policy_display_lists_every_statement() {
        let policy = PrivacyPolicy::new("p").with_statement(Statement::require_erasure(
            "A",
            "erasable",
            FieldMatcher::Any,
        ));
        let text = policy.to_string();
        assert!(text.contains("privacy policy `p`"));
        assert!(text.contains("[A] erasable"));
    }
}
