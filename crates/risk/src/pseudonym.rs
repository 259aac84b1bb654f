//! Pseudonymisation (value) risk analysis (Section III-B, Table I, Fig. 4).
//!
//! The analysis considers an adversary actor (the paper's Researcher) that
//! has access rights to the pseudonymised version `f_anon` of a sensitive
//! field `f` but not to `f` itself. For every combination of
//! quasi-identifiers the adversary can see, the per-record value risk
//! `risk(r, f) = frequency(f)/size(s)` is computed over the released data and
//! the number of **violations** of the designer's value-risk policy is
//! counted (Table I). A copy of the LTS gains a risk-transition from every
//! state where the adversary has accessed `f_anon`, labelled with the
//! violation count of the quasi-identifiers visible in that state (the
//! dotted edges of Fig. 4); the input LTS is never changed.

use privacy_access::{AccessPolicy, Permission};
use privacy_anonymity::{value_risk, ValueRiskPolicy, ValueRiskReport};
use privacy_lts::{ActionKind, Lts, LtsBuilder, RiskAnnotation, TransitionId, TransitionLabel};
use privacy_model::{ActorId, Catalog, Dataset, FieldId, ModelError, RiskLevel};
use std::fmt;

/// The violation count for one visible quasi-identifier combination — one
/// column of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct PseudonymFinding {
    visible: Vec<FieldId>,
    report: ValueRiskReport,
}

impl PseudonymFinding {
    /// The quasi-identifiers assumed visible.
    pub fn visible(&self) -> &[FieldId] {
        &self.visible
    }

    /// The underlying per-record value-risk report.
    pub fn report(&self) -> &ValueRiskReport {
        &self.report
    }

    /// The number of policy violations.
    pub fn violations(&self) -> usize {
        self.report.violation_count()
    }

    /// The fraction of records violating the policy.
    pub fn violation_rate(&self) -> f64 {
        self.report.violation_rate()
    }

    /// A label for the combination, e.g. `"Age+Height"` or `"(none)"`.
    pub fn label(&self) -> String {
        if self.visible.is_empty() {
            "(none)".to_owned()
        } else {
            self.visible.iter().map(FieldId::as_str).collect::<Vec<_>>().join("+")
        }
    }
}

impl fmt::Display for PseudonymFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "visible {}: {} violations", self.label(), self.violations())
    }
}

/// The result of the pseudonymisation risk analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PseudonymReport {
    adversary: ActorId,
    policy: ValueRiskPolicy,
    findings: Vec<PseudonymFinding>,
    risk_transitions: Vec<TransitionId>,
    violation_threshold: Option<f64>,
}

impl PseudonymReport {
    /// The adversary actor the analysis was run against.
    pub fn adversary(&self) -> &ActorId {
        &self.adversary
    }

    /// The value-risk policy.
    pub fn policy(&self) -> &ValueRiskPolicy {
        &self.policy
    }

    /// One finding per analysed quasi-identifier combination, in the order
    /// they were supplied.
    pub fn findings(&self) -> &[PseudonymFinding] {
        &self.findings
    }

    /// The risk-transitions the analysis added to its copy (the dotted edges of Fig. 4).
    pub fn risk_transitions(&self) -> &[TransitionId] {
        &self.risk_transitions
    }

    /// The violation counts in supply order — the paper's `0, 2, 4` series.
    pub fn violation_series(&self) -> Vec<usize> {
        self.findings.iter().map(PseudonymFinding::violations).collect()
    }

    /// The worst violation rate across the findings.
    pub fn max_violation_rate(&self) -> f64 {
        self.findings.iter().map(PseudonymFinding::violation_rate).fold(0.0, f64::max)
    }

    /// Returns `true` if the configured violation threshold is exceeded — the
    /// paper's *"a system designer could declare that a number of violations
    /// above 50 % is unacceptable"*.
    pub fn is_unacceptable(&self) -> bool {
        match self.violation_threshold {
            Some(threshold) => self.max_violation_rate() > threshold,
            None => false,
        }
    }
}

impl fmt::Display for PseudonymReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pseudonymisation risk for adversary {}: {}", self.adversary, self.policy)?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        writeln!(f, "  {} risk transitions added to the LTS", self.risk_transitions.len())?;
        if self.is_unacceptable() {
            writeln!(f, "  VERDICT: pseudonymisation technique is NOT acceptable")?;
        }
        Ok(())
    }
}

/// The pseudonymisation risk analysis.
#[derive(Debug, Clone)]
pub struct PseudonymAnalysis<'a> {
    catalog: &'a Catalog,
    policy: &'a AccessPolicy,
    value_policy: ValueRiskPolicy,
    violation_threshold: Option<f64>,
}

impl<'a> PseudonymAnalysis<'a> {
    /// Creates an analysis for the given value-risk policy.
    pub fn new(
        catalog: &'a Catalog,
        policy: &'a AccessPolicy,
        value_policy: ValueRiskPolicy,
    ) -> Self {
        PseudonymAnalysis { catalog, policy, value_policy, violation_threshold: None }
    }

    /// Builder-style: declare the violation rate above which the
    /// pseudonymisation technique is unacceptable (the analysis then reports
    /// [`PseudonymReport::is_unacceptable`] and
    /// [`PseudonymAnalysis::analyse_strict`] turns it into an error).
    pub fn with_violation_threshold(mut self, threshold: f64) -> Self {
        self.violation_threshold = Some(threshold);
        self
    }

    /// Runs the analysis and returns its report together with the annotated
    /// LTS, a new value; `lts` is left as it is:
    ///
    /// * computes one [`PseudonymFinding`] per visible quasi-identifier
    ///   combination in `visible_sets` (the columns of Table I);
    /// * adds a risk-transition to the copy from every reachable state of
    ///   `lts` in which the adversary has accessed the pseudonymised target
    ///   field but lacks read access to the original field, annotated with
    ///   the violation count of the quasi-identifiers visible in that state.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`]s from the underlying value-risk computation
    /// (e.g. the target field missing from the release).
    pub fn analyse(
        &self,
        lts: &Lts,
        adversary: &ActorId,
        release: &Dataset,
        visible_sets: &[Vec<FieldId>],
    ) -> Result<(PseudonymReport, Lts), ModelError> {
        let mut findings = Vec::new();
        for visible in visible_sets {
            let report = value_risk(release, visible, &self.value_policy)?;
            findings.push(PseudonymFinding { visible: visible.clone(), report });
        }

        let (risk_transitions, annotated) = self.annotate_lts(lts, adversary, release)?;

        let report = PseudonymReport {
            adversary: adversary.clone(),
            policy: self.value_policy.clone(),
            findings,
            risk_transitions,
            violation_threshold: self.violation_threshold,
        };
        Ok((report, annotated))
    }

    /// Like [`PseudonymAnalysis::analyse`] but fails when the violation
    /// threshold is exceeded — the design-time "throw an error" behaviour
    /// described in Case Study B.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Invalid`] when the violation threshold is
    /// exceeded, in addition to the errors of [`PseudonymAnalysis::analyse`].
    pub fn analyse_strict(
        &self,
        lts: &Lts,
        adversary: &ActorId,
        release: &Dataset,
        visible_sets: &[Vec<FieldId>],
    ) -> Result<(PseudonymReport, Lts), ModelError> {
        let (report, annotated) = self.analyse(lts, adversary, release, visible_sets)?;
        if report.is_unacceptable() {
            return Err(ModelError::invalid(format!(
                "pseudonymisation violates the value-risk policy for {:.0}% of records \
                 (threshold {:.0}%)",
                report.max_violation_rate() * 100.0,
                self.violation_threshold.unwrap_or(1.0) * 100.0
            )));
        }
        Ok((report, annotated))
    }

    /// A copy of the LTS with the Fig. 4 risk-transitions for the adversary
    /// added, and their ids.
    fn annotate_lts(
        &self,
        lts: &Lts,
        adversary: &ActorId,
        release: &Dataset,
    ) -> Result<(Vec<TransitionId>, Lts), ModelError> {
        let space = lts.space();
        let target = self.value_policy.target().clone();
        let target_anon = target.anonymised();

        // The adversary must have rights to the anonymised field somewhere
        // but not to the original field anywhere; otherwise there is nothing
        // to analyse. Access grants are checked against the datastores whose
        // schema actually contains the original field.
        let has_original_access = self.catalog.datastores().any(|d| {
            self.catalog
                .datastore_schema(d.id())
                .map(|schema| schema.contains(&target))
                .unwrap_or(false)
                && self.policy.can(adversary, Permission::Read, d.id(), &target)
        });
        if has_original_access {
            return Ok((Vec::new(), lts.clone()));
        }

        // Candidate visible quasi-identifiers: release columns other than the
        // target field.
        let qi_columns: Vec<FieldId> =
            release.columns().iter().filter(|c| *c != &target).cloned().collect();

        let mut added = Vec::new();
        // The at-risk states: every reachable state in which the adversary
        // has accessed the pseudonymised target. One reachability scan is
        // cheaper than building an index for this single query.
        let at_risk: Vec<_> = lts
            .reachable()
            .into_iter()
            .filter(|id| lts.state(*id).has(space, adversary, &target_anon))
            .collect();

        let mut annotated = LtsBuilder::from_lts(lts);
        for state_id in at_risk {
            let state = lts.state(state_id);
            // The quasi-identifiers visible to the adversary in this state:
            // those whose pseudonymised counterpart it has accessed.
            let visible: Vec<FieldId> = qi_columns
                .iter()
                .filter(|qi| state.has(space, adversary, &qi.anonymised()))
                .cloned()
                .collect();
            let report = value_risk(release, &visible, &self.value_policy)?;
            let violations = report.violation_count();
            let rate = report.violation_rate();

            let level = if self
                .violation_threshold
                .map(|threshold| rate > threshold)
                .unwrap_or(violations > 0)
            {
                RiskLevel::High
            } else if violations > 0 {
                RiskLevel::Medium
            } else {
                RiskLevel::Low
            };

            let target_id = annotated.intern(state.with_has(space, adversary, &target));
            let label =
                TransitionLabel::new(ActionKind::Read, adversary.clone(), [target.clone()], None)
                    .with_risk(
                        RiskAnnotation::level(level).with_score(report.max_risk()).with_note(
                            format!(
                        "{violations} value-risk violations with visible quasi-identifiers \
                         {:?}",
                        visible.iter().map(FieldId::as_str).collect::<Vec<_>>()
                    ),
                        ),
                    );
            added.push(annotated.add_risk_transition(state_id, target_id, label));
        }
        Ok((added, annotated.build()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privacy_access::{AccessControlList, Grant};
    use privacy_lts::{PrivacyState, VarSpace};
    use privacy_model::{Actor, DataField, DataSchema, DatastoreDecl, Record, Value};

    fn age() -> FieldId {
        FieldId::new("Age")
    }

    fn height() -> FieldId {
        FieldId::new("Height")
    }

    fn weight() -> FieldId {
        FieldId::new("Weight")
    }

    /// The six 2-anonymised records of Table I.
    fn table1_release() -> Dataset {
        let rows: [(f64, f64, f64, f64, f64); 6] = [
            (30.0, 40.0, 180.0, 200.0, 100.0),
            (30.0, 40.0, 180.0, 200.0, 102.0),
            (20.0, 30.0, 180.0, 200.0, 110.0),
            (20.0, 30.0, 180.0, 200.0, 111.0),
            (20.0, 30.0, 160.0, 180.0, 80.0),
            (20.0, 30.0, 160.0, 180.0, 110.0),
        ];
        Dataset::from_records(
            [age(), height(), weight()],
            rows.iter().map(|(alo, ahi, hlo, hhi, w)| {
                Record::new()
                    .with("Age", Value::interval(*alo, *ahi))
                    .with("Height", Value::interval(*hlo, *hhi))
                    .with("Weight", *w)
            }),
        )
    }

    /// Catalog and policy for Case Study B: the researcher may read the
    /// anonymised store only.
    fn fixture() -> (Catalog, AccessPolicy) {
        let mut catalog = Catalog::new();
        catalog.add_actor(Actor::role("Researcher")).unwrap();
        catalog.add_actor(Actor::role("Administrator")).unwrap();
        for field in ["Age", "Height", "Weight"] {
            catalog.add_field_with_anonymised(DataField::quasi_identifier(field)).unwrap();
        }
        catalog.add_schema(DataSchema::new("EHRSchema", [age(), height(), weight()])).unwrap();
        catalog
            .add_schema(DataSchema::new(
                "AnonSchema",
                [
                    FieldId::new("Age_anon"),
                    FieldId::new("Height_anon"),
                    FieldId::new("Weight_anon"),
                ],
            ))
            .unwrap();
        catalog.add_datastore(DatastoreDecl::new("EHR", "EHRSchema")).unwrap();
        catalog.add_datastore(DatastoreDecl::anonymised("AnonEHR", "AnonSchema")).unwrap();

        let acl = AccessControlList::new()
            .with_grant(Grant::read_all("Researcher", "AnonEHR"))
            .with_grant(Grant::read_all("Administrator", "EHR"));
        (catalog, AccessPolicy::from_parts(acl, Default::default()))
    }

    /// An LTS in which the researcher progressively accesses the anonymised
    /// weight, then also the anonymised height and age.
    fn researcher_lts(catalog: &Catalog) -> Lts {
        let space = VarSpace::from_catalog(catalog);
        let researcher = ActorId::new("Researcher");
        let mut builder = LtsBuilder::new(space.clone());
        let s0 = builder.initial();
        let s1_state = PrivacyState::absolute(&space).with_has(
            &space,
            &researcher,
            &FieldId::new("Weight_anon"),
        );
        let s1 = builder.intern(s1_state.clone());
        let s2_state = s1_state.with_has(&space, &researcher, &FieldId::new("Height_anon"));
        let s2 = builder.intern(s2_state.clone());
        let s3_state = s2_state.with_has(&space, &researcher, &FieldId::new("Age_anon"));
        let s3 = builder.intern(s3_state);
        for (from, to, field) in
            [(s0, s1, "Weight_anon"), (s1, s2, "Height_anon"), (s2, s3, "Age_anon")]
        {
            builder.add_transition(
                from,
                to,
                TransitionLabel::new(
                    ActionKind::Read,
                    researcher.clone(),
                    [FieldId::new(field)],
                    None,
                ),
            );
        }
        builder.build()
    }

    #[test]
    fn table_one_violation_series_is_0_2_4() {
        let (catalog, policy) = fixture();
        let lts = researcher_lts(&catalog);
        let analysis = PseudonymAnalysis::new(
            &catalog,
            &policy,
            ValueRiskPolicy::weight_within_5kg_at_90_percent(),
        );
        let (report, _) = analysis
            .analyse(
                &lts,
                &ActorId::new("Researcher"),
                &table1_release(),
                &[vec![height()], vec![age()], vec![age(), height()]],
            )
            .unwrap();
        assert_eq!(report.violation_series(), vec![0, 2, 4]);
        assert_eq!(report.findings()[0].label(), "Height");
        assert_eq!(report.findings()[2].label(), "Age+Height");
        assert!(!report.risk_transitions().is_empty());
    }

    #[test]
    fn risk_transitions_are_added_from_every_at_risk_state() {
        let (catalog, policy) = fixture();
        let lts = researcher_lts(&catalog);
        let before = lts.stats();
        let analysis = PseudonymAnalysis::new(
            &catalog,
            &policy,
            ValueRiskPolicy::weight_within_5kg_at_90_percent(),
        );
        let (report, annotated) =
            analysis.analyse(&lts, &ActorId::new("Researcher"), &table1_release(), &[]).unwrap();
        // Three states have Weight_anon accessed (s1, s2, s3); each receives
        // a dotted risk transition, in the copy only.
        assert_eq!(report.risk_transitions().len(), 3);
        let after = annotated.stats();
        assert_eq!(after.risk_transitions, before.risk_transitions + 3);
        assert_eq!(lts.stats(), before);

        // The annotation on the transition out of the fully-informed state
        // carries four violations and High risk.
        let last = *report.risk_transitions().last().unwrap();
        let annotation = annotated.transition(last).label().risk().unwrap();
        assert!(annotation.note().contains("4 value-risk violations"));
        assert_eq!(annotation.risk_level(), RiskLevel::High);
        assert_eq!(annotation.score(), Some(1.0));
    }

    #[test]
    fn adversary_with_access_to_the_original_field_is_not_analysed() {
        let (catalog, policy) = fixture();
        let lts = researcher_lts(&catalog);
        // The administrator can read the raw EHR (including Weight), so the
        // value-risk machinery does not apply to them.
        let analysis = PseudonymAnalysis::new(
            &catalog,
            &policy,
            ValueRiskPolicy::weight_within_5kg_at_90_percent(),
        );
        let (report, annotated) =
            analysis.analyse(&lts, &ActorId::new("Administrator"), &table1_release(), &[]).unwrap();
        assert!(report.risk_transitions().is_empty());
        assert_eq!(annotated, lts);
    }

    #[test]
    fn strict_analysis_rejects_unacceptable_pseudonymisation() {
        let (catalog, policy) = fixture();
        let lts = researcher_lts(&catalog);
        let analysis = PseudonymAnalysis::new(
            &catalog,
            &policy,
            ValueRiskPolicy::weight_within_5kg_at_90_percent(),
        )
        .with_violation_threshold(0.5);

        // With age and height visible, 4 of 6 records (67 %) violate the
        // policy, which exceeds the 50 % threshold.
        let err = analysis
            .analyse_strict(
                &lts,
                &ActorId::new("Researcher"),
                &table1_release(),
                &[vec![age(), height()]],
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::Invalid { .. }));

        // With only height visible there are no violations and the strict
        // analysis passes.
        let (report, _) = analysis
            .analyse_strict(&lts, &ActorId::new("Researcher"), &table1_release(), &[vec![height()]])
            .unwrap();
        assert!(!report.findings().is_empty());
    }

    #[test]
    fn report_display_mentions_violations_and_verdict() {
        let (catalog, policy) = fixture();
        let lts = researcher_lts(&catalog);
        let analysis = PseudonymAnalysis::new(
            &catalog,
            &policy,
            ValueRiskPolicy::weight_within_5kg_at_90_percent(),
        )
        .with_violation_threshold(0.5);
        let (report, _) = analysis
            .analyse(
                &lts,
                &ActorId::new("Researcher"),
                &table1_release(),
                &[vec![], vec![age(), height()]],
            )
            .unwrap();
        assert!(report.is_unacceptable());
        let text = report.to_string();
        assert!(text.contains("pseudonymisation risk for adversary Researcher"));
        assert!(text.contains("visible (none): 0 violations"));
        assert!(text.contains("visible Age+Height: 4 violations"));
        assert!(text.contains("NOT acceptable"));
        assert_eq!(report.adversary().as_str(), "Researcher");
        assert!(report.max_violation_rate() > 0.5);
        assert_eq!(report.policy().target().as_str(), "Weight");
    }

    #[test]
    fn missing_target_column_is_an_error() {
        let (catalog, policy) = fixture();
        let lts = researcher_lts(&catalog);
        let bad_policy = ValueRiskPolicy::new("BloodPressure", 5.0, 0.9).unwrap();
        let analysis = PseudonymAnalysis::new(&catalog, &policy, bad_policy);
        // The release has no BloodPressure column.
        let result =
            analysis.analyse(&lts, &ActorId::new("Researcher"), &table1_release(), &[vec![age()]]);
        assert!(matches!(result, Err(ModelError::Unknown { .. })));
    }
}
