//! Unwanted-disclosure risk analysis (Section III-A, Case Study A).
//!
//! For one user, the analysis determines the **non-allowed actors** (those
//! not involved in any service the user consented to), finds every field of
//! every datastore such an actor has read access to once the user's data is
//! stored there, computes the impact (the relative sensitivity `σ(d, a)`) and
//! the likelihood (the summed scenario probabilities) of the actor actually
//! reading the field, combines them through the risk matrix, and builds an
//! annotated copy of the LTS: existing `read` transitions by non-allowed
//! actors receive a risk label, and a *potential-read* risk transition is
//! added from every state where the actor could (but has not yet)
//! identified the field. The input LTS is never changed; the annotated one
//! is returned next to the report.
//!
//! Two interchangeable execution strategies exist for every entry point:
//!
//! * **Index probes** ([`DisclosureAnalysis::analyse`],
//!   [`DisclosureAnalysis::assess`], [`DisclosureAnalysis::analyse_users_batch`])
//!   — the default. The exposed-state set of each (actor, field) pair is a
//!   per-variable list of an [`LtsIndex`], and the existing reads are
//!   [`LtsIndex::reads_involving`]: a per-(actor, field) list the index
//!   merges from the matching label groups on first request and then shares. The list depends only on the
//!   pair, never on the user, so every report over one index holds the same
//!   allocation — an assessment costs O(findings), not O(listed
//!   transitions), and only the first assessment on a fresh index pays for
//!   the fill. The memo is bounded by Σ over `read` transitions of their
//!   field count, 8 B per entry. One index build is amortised over every
//!   (datastore, field, actor) triple — and, with the batch API, over every
//!   user of a population.
//! * **Label scans** ([`DisclosureAnalysis::analyse_scan`],
//!   [`DisclosureAnalysis::assess_scan`]) — the original implementation,
//!   retained for differential testing. It walks reachable states and
//!   transition labels per triple and shares with the index path only the
//!   triple enumeration and the risk arithmetic. Both strategies produce
//!   identical reports (and, for the annotating entry points, identical
//!   annotated LTSs); the property tests in `tests/index_differential.rs`
//!   pin that equivalence over random models.

use crate::likelihood::LikelihoodModel;
use crate::matrix::RiskMatrix;
use crate::sensitivity::SensitivityModel;
use privacy_access::{AccessPolicy, Permission};
use privacy_lts::{
    ActionKind, Lts, LtsBuilder, LtsIndex, RiskAnnotation, StateId, TransitionId, TransitionLabel,
};
use privacy_model::{
    ActorId, Catalog, DatastoreDecl, DatastoreId, FieldId, Likelihood, RiskLevel, Severity,
    UserProfile,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One unwanted-disclosure finding: a non-allowed actor that can identify a
/// field of a datastore the user's data reaches.
#[derive(Debug, Clone, PartialEq)]
pub struct DisclosureFinding {
    actor: ActorId,
    field: FieldId,
    datastore: DatastoreId,
    severity: Severity,
    likelihood: Likelihood,
    probability: f64,
    level: RiskLevel,
    /// Shared with the index's per-pair memo on the read-only paths.
    annotated_transitions: Arc<[TransitionId]>,
    exposed_states: usize,
}

impl DisclosureFinding {
    /// The non-allowed actor.
    pub fn actor(&self) -> &ActorId {
        &self.actor
    }

    /// The field at risk.
    pub fn field(&self) -> &FieldId {
        &self.field
    }

    /// The datastore through which the actor can reach the field.
    pub fn datastore(&self) -> &DatastoreId {
        &self.datastore
    }

    /// The impact category.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// The likelihood category.
    pub fn likelihood(&self) -> Likelihood {
        self.likelihood
    }

    /// The raw likelihood probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// The combined risk level.
    pub fn level(&self) -> RiskLevel {
        self.level
    }

    /// The transitions (existing reads and added potential reads) that were
    /// annotated with this finding's risk. The read-only entry points
    /// ([`DisclosureAnalysis::assess`] and the batch API) list the matching
    /// existing reads without annotating them and add no potential reads.
    pub fn annotated_transitions(&self) -> &[TransitionId] {
        &self.annotated_transitions
    }

    /// The number of reachable states in which the actor could identify the
    /// field.
    pub fn exposed_states(&self) -> usize {
        self.exposed_states
    }
}

impl fmt::Display for DisclosureFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: non-allowed actor {} can read {} from {} \
             (impact {}, likelihood {} [p={:.3}], {} exposed states)",
            self.level,
            self.actor,
            self.field,
            self.datastore,
            self.severity,
            self.likelihood,
            self.probability,
            self.exposed_states
        )
    }
}

/// The result of the unwanted-disclosure analysis for one user.
#[derive(Debug, Clone, PartialEq)]
pub struct DisclosureReport {
    user: UserProfile,
    allowed: BTreeSet<ActorId>,
    non_allowed: BTreeSet<ActorId>,
    findings: Vec<DisclosureFinding>,
}

impl DisclosureReport {
    /// The user the analysis was run for.
    pub fn user(&self) -> &UserProfile {
        &self.user
    }

    /// The allowed actors derived from the user's consent.
    pub fn allowed_actors(&self) -> &BTreeSet<ActorId> {
        &self.allowed
    }

    /// The non-allowed actors.
    pub fn non_allowed_actors(&self) -> &BTreeSet<ActorId> {
        &self.non_allowed
    }

    /// All findings, sorted by descending risk level.
    pub fn findings(&self) -> &[DisclosureFinding] {
        &self.findings
    }

    /// The findings at or above the given level.
    pub fn findings_at_least(&self, level: RiskLevel) -> Vec<&DisclosureFinding> {
        self.findings.iter().filter(|f| f.level().at_least(level)).collect()
    }

    /// The highest risk level found (Low when there are no findings).
    pub fn max_level(&self) -> RiskLevel {
        self.findings.iter().map(DisclosureFinding::level).max().unwrap_or(RiskLevel::Low)
    }

    /// The risk level for a specific actor and field (Low if no finding
    /// exists — no exposure means no unwanted-disclosure risk).
    pub fn risk_for(&self, actor: &ActorId, field: &FieldId) -> RiskLevel {
        self.findings
            .iter()
            .filter(|f| f.actor() == actor && f.field() == field)
            .map(DisclosureFinding::level)
            .max()
            .unwrap_or(RiskLevel::Low)
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// Returns `true` if no unwanted disclosure was found.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for DisclosureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "disclosure risk for {}: {} findings (max level {})",
            self.user.id(),
            self.findings.len(),
            self.max_level()
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// The unwanted-disclosure analysis.
#[derive(Debug, Clone)]
pub struct DisclosureAnalysis<'a> {
    catalog: &'a Catalog,
    policy: &'a AccessPolicy,
    matrix: RiskMatrix,
    likelihood: LikelihoodModel,
}

/// The risk dimensions of one (datastore, field, actor) triple, computed
/// identically by every strategy.
struct TripleRisk {
    severity: Severity,
    likelihood: Likelihood,
    probability: f64,
    level: RiskLevel,
    /// The annotation score: the larger of impact and probability.
    score: f64,
}

impl TripleRisk {
    /// The risk label the annotating paths attach to transitions. The
    /// read-only paths attach nothing, so they never build it.
    fn annotation(&self, field: &FieldId, actor: &ActorId) -> RiskAnnotation {
        RiskAnnotation::dimensions(self.severity, self.likelihood, self.level)
            .with_score(self.score)
            .with_note(format!("unwanted disclosure of {field} to non-allowed actor {actor}"))
    }

    /// The finding this risk makes for the triple.
    fn finding(
        &self,
        (datastore, field, actor): (&DatastoreDecl, &FieldId, &ActorId),
        annotated_transitions: Arc<[TransitionId]>,
        exposed_states: usize,
    ) -> DisclosureFinding {
        DisclosureFinding {
            actor: actor.clone(),
            field: field.clone(),
            datastore: datastore.id().clone(),
            severity: self.severity,
            likelihood: self.likelihood,
            probability: self.probability,
            level: self.level,
            annotated_transitions,
            exposed_states,
        }
    }
}

impl<'a> DisclosureAnalysis<'a> {
    /// Creates an analysis with the standard risk matrix and likelihood
    /// model.
    pub fn new(catalog: &'a Catalog, policy: &'a AccessPolicy) -> Self {
        DisclosureAnalysis {
            catalog,
            policy,
            matrix: RiskMatrix::standard(),
            likelihood: LikelihoodModel::standard(),
        }
    }

    /// Builder-style: overrides the risk matrix.
    pub fn with_matrix(mut self, matrix: RiskMatrix) -> Self {
        self.matrix = matrix;
        self
    }

    /// Builder-style: overrides the likelihood model.
    pub fn with_likelihood(mut self, likelihood: LikelihoodModel) -> Self {
        self.likelihood = likelihood;
        self
    }

    /// The allowed / non-allowed actor partition for one user.
    fn actor_partition(
        &self,
        sensitivity: &SensitivityModel,
    ) -> (BTreeSet<ActorId>, BTreeSet<ActorId>) {
        let allowed: BTreeSet<ActorId> = sensitivity.allowed_actors().clone();
        let non_allowed: BTreeSet<ActorId> = self
            .catalog
            .identifying_actors()
            .map(|a| a.id().clone())
            .filter(|a| !allowed.contains(a))
            .collect();
        (allowed, non_allowed)
    }

    /// Every (datastore, field, non-allowed actor) triple the access policy
    /// lets the actor read, in the order every strategy visits them.
    fn readable_triples<'s>(
        &'s self,
        non_allowed: &'s BTreeSet<ActorId>,
    ) -> impl Iterator<Item = (&'s DatastoreDecl, &'s FieldId, &'s ActorId)> + 's {
        self.catalog
            .datastores()
            .filter_map(|datastore| {
                self.catalog.schema(datastore.schema()).map(|schema| (datastore, schema))
            })
            .flat_map(move |(datastore, schema)| {
                schema.fields().iter().flat_map(move |field| {
                    non_allowed
                        .iter()
                        .filter(move |actor| {
                            self.policy.can(actor, Permission::Read, datastore.id(), field)
                        })
                        .map(move |actor| (datastore, field, actor))
                })
            })
    }

    /// Computes the impact/likelihood dimensions of one (datastore, field,
    /// actor) triple.
    fn triple_risk(
        &self,
        sensitivity: &SensitivityModel,
        (datastore, field, actor): (&DatastoreDecl, &FieldId, &ActorId),
    ) -> TripleRisk {
        let impact = sensitivity.relative_sensitivity(field, actor);
        let probability = self.likelihood.probability(actor, datastore.id());
        let severity = self.matrix.categorise_impact(impact);
        let likelihood = self.matrix.categorise_likelihood(probability);
        let level = self.matrix.level(severity, likelihood);
        TripleRisk {
            severity,
            likelihood,
            probability,
            level,
            score: impact.value().max(probability),
        }
    }

    /// Runs the analysis for one user and returns its report together with
    /// the annotated LTS, a new value; `lts` is left as it is. Probes
    /// `index`, which must have been built over `lts`; behaviourally
    /// identical to [`DisclosureAnalysis::analyse_scan`]. Both the
    /// exposed-state sets and the existing-read probes describe `lts` (risk
    /// transitions this call adds are tracked separately so later triples
    /// still observe them, exactly as the scan path's repeated scans would).
    pub fn analyse(
        &self,
        lts: &Lts,
        index: &LtsIndex,
        user: &UserProfile,
    ) -> (DisclosureReport, Lts) {
        debug_assert_eq!(index.transition_count(), lts.transition_count(), "index of another LTS");
        let sensitivity = SensitivityModel::new(self.catalog, user);
        let (allowed, non_allowed) = self.actor_partition(&sensitivity);

        let mut findings = Vec::new();
        let mut builder = LtsBuilder::from_lts(lts);
        // Risk transitions added by *this* analysis, with the (actor, field)
        // pair their label carries: the scan path re-discovers them in its
        // per-triple transition scans, so the index path must too.
        let mut delta: Vec<(ActorId, FieldId, TransitionId)> = Vec::new();

        for triple @ (_, field, actor) in self.readable_triples(&non_allowed) {
            // Which reachable states expose the field to this actor? (Index
            // probe over the input LTS — the scan path equally takes
            // `reachable()` of the input up front.)
            let exposed = index.states_where_could(actor, field);
            if exposed.is_empty() {
                continue;
            }

            let risk = self.triple_risk(&sensitivity, triple);
            let annotation = risk.annotation(field, actor);
            let mut annotated = Vec::new();

            // Annotate existing read transitions by this actor on this
            // field: the index's shared list, then any risk transition this
            // analysis already added for the pair.
            let added =
                delta.iter().filter_map(|(a, f, id)| (a == actor && f == field).then_some(*id));
            for id in index.reads_involving(actor, field).iter().copied().chain(added) {
                builder.annotate(id, annotation.clone());
                annotated.push(id);
            }

            // Potential reads this triple appends (not ones an earlier
            // triple added) join the delta.
            let (first_new, start) = (builder.transition_count(), annotated.len());
            add_potential_reads(&mut builder, lts, exposed, triple, &annotation, &mut annotated);
            let new = annotated[start..].iter().filter(|id| id.0 >= first_new);
            delta.extend(new.map(|id| (actor.clone(), field.clone(), *id)));

            findings.push(risk.finding(triple, annotated.into(), exposed.len()));
        }

        sort_findings(&mut findings);
        let report = DisclosureReport { user: user.clone(), allowed, non_allowed, findings };
        (report, builder.build())
    }

    /// Read-only disclosure assessment over a prebuilt index: identical
    /// findings (actors, fields, datastores, risk dimensions, exposed-state
    /// counts) to [`DisclosureAnalysis::analyse`], except that existing read
    /// transitions are *listed* rather than annotated and no potential-read
    /// risk transitions are added. This is the per-user unit of the batch
    /// API, where many users share one immutable index — the snapshot
    /// answers every probe, so no LTS reference is needed. Each finding's
    /// list is the index's shared per-pair memo, so a report costs
    /// O(findings) once the memo is warm.
    pub fn assess(&self, index: &LtsIndex, user: &UserProfile) -> DisclosureReport {
        let sensitivity = SensitivityModel::new(self.catalog, user);
        let (allowed, non_allowed) = self.actor_partition(&sensitivity);

        let mut findings = Vec::new();
        for triple @ (_, field, actor) in self.readable_triples(&non_allowed) {
            // Only the exposed-state *count* is reported, so the O(1)
            // per-variable counter suffices — no list materialises.
            let exposed =
                index.count_states_of_variable(actor, field, privacy_lts::space::VarKind::Could);
            if exposed == 0 {
                continue;
            }
            let risk = self.triple_risk(&sensitivity, triple);
            findings.push(risk.finding(triple, index.reads_involving(actor, field), exposed));
        }

        sort_findings(&mut findings);
        DisclosureReport { user: user.clone(), allowed, non_allowed, findings }
    }

    /// The scan-strategy counterpart of [`DisclosureAnalysis::assess`],
    /// retained for differential testing: walks reachable states and the
    /// transition relation per (datastore, field, actor) triple.
    pub fn assess_scan(&self, lts: &Lts, user: &UserProfile) -> DisclosureReport {
        let sensitivity = SensitivityModel::new(self.catalog, user);
        let (allowed, non_allowed) = self.actor_partition(&sensitivity);

        let mut findings = Vec::new();
        let space = lts.space().clone();
        let reachable = lts.reachable();

        for triple @ (_, field, actor) in self.readable_triples(&non_allowed) {
            let exposed =
                reachable.iter().filter(|id| lts.state(**id).could(&space, actor, field)).count();
            if exposed == 0 {
                continue;
            }
            let risk = self.triple_risk(&sensitivity, triple);
            let annotated = lts
                .transitions()
                .filter(|(_, t)| {
                    t.label().action() == ActionKind::Read
                        && t.label().actor() == actor
                        && t.label().involves_field(field)
                })
                .map(|(id, _)| id)
                .collect();
            findings.push(risk.finding(triple, annotated, exposed));
        }

        sort_findings(&mut findings);
        DisclosureReport { user: user.clone(), allowed, non_allowed, findings }
    }

    /// Assesses many user profiles over **one** LTS + index, fanning the
    /// population out over `threads` crossbeam scoped threads (`None` runs
    /// on the calling thread). Reports come back in user order and are
    /// identical to calling [`DisclosureAnalysis::assess`] per user — the
    /// parallelism only partitions the user list.
    pub fn analyse_users_batch(
        &self,
        index: &LtsIndex,
        users: &[UserProfile],
        threads: Option<usize>,
    ) -> Vec<DisclosureReport> {
        privacy_lts::batch::parallel_map(users, threads, |user| self.assess(index, user))
    }

    /// The original full-scan annotating analysis, retained for
    /// differential testing and as the reference semantics of
    /// [`DisclosureAnalysis::analyse`]: returns the report and the
    /// annotated LTS, and leaves `lts` as it is.
    pub fn analyse_scan(&self, lts: &Lts, user: &UserProfile) -> (DisclosureReport, Lts) {
        let sensitivity = SensitivityModel::new(self.catalog, user);
        let (allowed, non_allowed) = self.actor_partition(&sensitivity);

        let mut findings = Vec::new();
        let space = lts.space();
        let reachable = lts.reachable();
        let mut builder = LtsBuilder::from_lts(lts);

        for triple @ (_, field, actor) in self.readable_triples(&non_allowed) {
            // Which reachable states expose the field to this actor?
            let exposed: Vec<_> = reachable
                .iter()
                .copied()
                .filter(|id| lts.state(*id).could(space, actor, field))
                .collect();
            if exposed.is_empty() {
                continue;
            }

            let risk = self.triple_risk(&sensitivity, triple);
            let annotation = risk.annotation(field, actor);
            let mut annotated = Vec::new();

            // Annotate existing read transitions by this actor on this
            // field, the ones this analysis added included.
            let existing: Vec<TransitionId> = (0..builder.transition_count())
                .map(TransitionId)
                .filter(|id| {
                    let label = builder.transition(*id).label();
                    label.action() == ActionKind::Read
                        && label.actor() == actor
                        && label.involves_field(field)
                })
                .collect();
            for id in existing {
                builder.annotate(id, annotation.clone());
                annotated.push(id);
            }

            add_potential_reads(&mut builder, lts, &exposed, triple, &annotation, &mut annotated);

            findings.push(risk.finding(triple, annotated.into(), exposed.len()));
        }

        sort_findings(&mut findings);
        let report = DisclosureReport { user: user.clone(), allowed, non_allowed, findings };
        (report, builder.build())
    }
}

/// Adds a potential-read risk-transition, labelled with `annotation`, from
/// every state of `exposed` where the actor has not yet identified the
/// field, and appends their ids to `annotated`.
fn add_potential_reads(
    builder: &mut LtsBuilder,
    lts: &Lts,
    exposed: &[StateId],
    (datastore, field, actor): (&DatastoreDecl, &FieldId, &ActorId),
    annotation: &RiskAnnotation,
    annotated: &mut Vec<TransitionId>,
) {
    let space = lts.space();
    for &state_id in exposed {
        let state = lts.state(state_id);
        if state.has(space, actor, field) {
            continue;
        }
        let target = builder.intern(state.with_has(space, actor, field));
        let schema = Some(datastore.schema().clone());
        let label = TransitionLabel::new(ActionKind::Read, actor.clone(), [field.clone()], schema)
            .with_risk(annotation.clone());
        annotated.push(builder.add_risk_transition(state_id, target, label));
    }
}

fn sort_findings(findings: &mut [DisclosureFinding]) {
    findings.sort_by(|a, b| {
        b.level
            .cmp(&a.level)
            .then_with(|| a.actor.cmp(&b.actor))
            .then_with(|| a.field.cmp(&b.field))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use privacy_access::{AccessControlList, Grant, PolicyDelta};
    use privacy_dataflow::{DiagramBuilder, SystemDataFlows};
    use privacy_lts::{generate_lts, GeneratorConfig};
    use privacy_model::{
        Actor, DataField, DataSchema, DatastoreDecl, SensitivityCategory, ServiceDecl, ServiceId,
    };

    /// The doctors'-surgery fixture of Case Study A, reduced to the elements
    /// the analysis needs.
    fn fixture() -> (Catalog, SystemDataFlows, AccessPolicy) {
        let mut catalog = Catalog::new();
        catalog.add_actor(Actor::role("Receptionist")).unwrap();
        catalog.add_actor(Actor::role("Doctor")).unwrap();
        catalog.add_actor(Actor::role("Administrator")).unwrap();
        catalog.add_actor(Actor::role("Researcher")).unwrap();
        catalog.add_field(DataField::identifier("Name")).unwrap();
        catalog.add_field(DataField::sensitive("Diagnosis")).unwrap();
        catalog
            .add_schema(DataSchema::new(
                "EHRSchema",
                [FieldId::new("Name"), FieldId::new("Diagnosis")],
            ))
            .unwrap();
        catalog.add_datastore(DatastoreDecl::new("EHR", "EHRSchema")).unwrap();
        catalog
            .add_service(ServiceDecl::new(
                "MedicalService",
                [ActorId::new("Receptionist"), ActorId::new("Doctor")],
            ))
            .unwrap();
        catalog
            .add_service(ServiceDecl::new(
                "MedicalResearchService",
                [ActorId::new("Administrator"), ActorId::new("Researcher")],
            ))
            .unwrap();

        let medical = DiagramBuilder::new("MedicalService")
            .collect("Doctor", ["Name", "Diagnosis"], "consultation", 1)
            .unwrap()
            .create("Doctor", "EHR", ["Name", "Diagnosis"], "record", 2)
            .unwrap()
            .build();
        let system = SystemDataFlows::new().with_diagram(medical).unwrap();

        let acl = AccessControlList::new()
            .with_grant(Grant::read_write_all("Doctor", "EHR"))
            .with_grant(Grant::read_all("Administrator", "EHR"));
        let policy = AccessPolicy::from_parts(acl, Default::default());
        (catalog, system, policy)
    }

    fn case_a_user() -> UserProfile {
        UserProfile::new("patient-1")
            .consents_to(ServiceId::new("MedicalService"))
            .with_category_sensitivity(FieldId::new("Diagnosis"), SensitivityCategory::High)
    }

    /// Runs the indexed and scan analyses over one LTS and asserts both the
    /// reports and the annotated LTSs agree and the input is unchanged.
    fn analyse_both(
        lts: &Lts,
        analysis: &DisclosureAnalysis<'_>,
        user: &UserProfile,
    ) -> (DisclosureReport, Lts) {
        let before = lts.clone();
        let (report, annotated) = analysis.analyse(lts, &LtsIndex::build(lts), user);
        let (scan_report, scan_annotated) = analysis.analyse_scan(lts, user);
        assert_eq!(report, scan_report, "indexed and scan reports diverge");
        assert_eq!(annotated, scan_annotated, "indexed and scan LTSs diverge");
        assert_eq!(*lts, before, "the analyses left their input as it was");
        (report, annotated)
    }

    #[test]
    fn case_study_a_administrator_read_is_medium_risk() {
        let (catalog, system, policy) = fixture();
        let lts = generate_lts(&catalog, &system, &policy, &GeneratorConfig::default()).unwrap();
        let analysis = DisclosureAnalysis::new(&catalog, &policy);
        let (report, lts) = analyse_both(&lts, &analysis, &case_a_user());

        // The non-allowed actors are exactly the Administrator and the
        // Researcher, as in the paper.
        assert_eq!(
            report.non_allowed_actors().iter().map(ActorId::as_str).collect::<Vec<_>>(),
            vec!["Administrator", "Researcher"]
        );

        // The Administrator's potential read of the Diagnosis is Medium.
        assert_eq!(
            report.risk_for(&ActorId::new("Administrator"), &FieldId::new("Diagnosis")),
            RiskLevel::Medium
        );
        assert_eq!(report.max_level(), RiskLevel::Medium);

        // The Name is not sensitive for this user, so its disclosure to the
        // administrator is Low.
        assert_eq!(
            report.risk_for(&ActorId::new("Administrator"), &FieldId::new("Name")),
            RiskLevel::Low
        );

        // The researcher has no access to the EHR, so no finding exists.
        assert_eq!(
            report.risk_for(&ActorId::new("Researcher"), &FieldId::new("Diagnosis")),
            RiskLevel::Low
        );

        // The LTS now carries annotated risk transitions.
        assert!(lts.stats().risk_transitions > 0);
        assert!(lts.transitions().any(|(_, t)| t
            .label()
            .risk()
            .is_some_and(|risk| risk.risk_level() == RiskLevel::Medium)));
        let medium_findings = report.findings_at_least(RiskLevel::Medium);
        assert_eq!(medium_findings.len(), 1);
        assert!(!medium_findings[0].annotated_transitions().is_empty());
        assert!(medium_findings[0].exposed_states() > 0);
    }

    #[test]
    fn case_study_a_policy_change_reduces_the_risk_to_low() {
        let (catalog, system, policy) = fixture();
        // The designer revokes the Administrator's read access to the EHR.
        let delta = PolicyDelta::new().revoke("Administrator", Permission::Read, "EHR");
        let revised = policy.with_applied(&delta);

        let lts = generate_lts(&catalog, &system, &revised, &GeneratorConfig::default()).unwrap();
        let analysis = DisclosureAnalysis::new(&catalog, &revised);
        let (report, lts) = analyse_both(&lts, &analysis, &case_a_user());

        assert_eq!(
            report.risk_for(&ActorId::new("Administrator"), &FieldId::new("Diagnosis")),
            RiskLevel::Low
        );
        assert_eq!(report.max_level(), RiskLevel::Low);
        assert!(report.is_empty());
        assert_eq!(lts.stats().risk_transitions, 0);
    }

    #[test]
    fn consenting_to_every_service_removes_all_findings() {
        let (catalog, system, policy) = fixture();
        let lts = generate_lts(&catalog, &system, &policy, &GeneratorConfig::default()).unwrap();
        let user = case_a_user().consents_to(ServiceId::new("MedicalResearchService"));
        let analysis = DisclosureAnalysis::new(&catalog, &policy);
        let (report, _) = analyse_both(&lts, &analysis, &user);
        // The administrator is now an allowed actor, so σ(d, a) = 0 and no
        // finding is produced.
        assert!(report.is_empty());
        assert_eq!(report.non_allowed_actors().len(), 0);
    }

    #[test]
    fn higher_likelihood_escalates_the_risk_level() {
        let (catalog, system, policy) = fixture();
        let lts = generate_lts(&catalog, &system, &policy, &GeneratorConfig::default()).unwrap();
        let mut likelihood = LikelihoodModel::standard();
        likelihood.set_override(
            "Administrator",
            "EHR",
            [crate::likelihood::Scenario::new(
                crate::likelihood::ScenarioKind::NonAgreedService,
                0.5,
            )
            .unwrap()],
        );
        let analysis = DisclosureAnalysis::new(&catalog, &policy).with_likelihood(likelihood);
        let (report, _) = analyse_both(&lts, &analysis, &case_a_user());
        assert_eq!(
            report.risk_for(&ActorId::new("Administrator"), &FieldId::new("Diagnosis")),
            RiskLevel::High
        );
    }

    #[test]
    fn report_display_lists_findings() {
        let (catalog, system, policy) = fixture();
        let lts = generate_lts(&catalog, &system, &policy, &GeneratorConfig::default()).unwrap();
        let (report, _) = DisclosureAnalysis::new(&catalog, &policy).analyse(
            &lts,
            &LtsIndex::build(&lts),
            &case_a_user(),
        );
        let text = report.to_string();
        assert!(text.contains("disclosure risk for patient-1"));
        assert!(text.contains("Administrator"));
        assert!(text.contains("Medium"));
        assert!(!report.is_empty());
    }

    #[test]
    fn assess_matches_assess_scan_and_does_not_mutate() {
        let (catalog, system, policy) = fixture();
        let lts = generate_lts(&catalog, &system, &policy, &GeneratorConfig::default()).unwrap();
        let index = LtsIndex::build(&lts);
        let analysis = DisclosureAnalysis::new(&catalog, &policy);
        let before = lts.clone();
        let assessed = analysis.assess(&index, &case_a_user());
        let scanned = analysis.assess_scan(&lts, &case_a_user());
        assert_eq!(assessed, scanned);
        assert_eq!(lts, before, "read-only assessment must not mutate the LTS");

        // The read-only findings agree with the annotating analysis on every
        // risk dimension (only the annotated-transition lists differ, since
        // no potential reads are added).
        let (full, _) = analysis.analyse(&lts, &index, &case_a_user());
        assert_eq!(assessed.len(), full.len());
        for (a, b) in assessed.findings().iter().zip(full.findings()) {
            assert_eq!(
                (a.actor(), a.field(), a.datastore()),
                (b.actor(), b.field(), b.datastore())
            );
            assert_eq!(a.level(), b.level());
            assert_eq!(a.severity(), b.severity());
            assert_eq!(a.likelihood(), b.likelihood());
            assert_eq!(a.exposed_states(), b.exposed_states());
        }
    }

    #[test]
    fn batch_reports_match_per_user_assessments_in_order() {
        let (catalog, system, policy) = fixture();
        let lts = generate_lts(&catalog, &system, &policy, &GeneratorConfig::default()).unwrap();
        let index = LtsIndex::build(&lts);
        let analysis = DisclosureAnalysis::new(&catalog, &policy);
        let users = vec![
            case_a_user(),
            case_a_user().consents_to(ServiceId::new("MedicalResearchService")),
            UserProfile::new("patient-2"),
        ];
        let expected: Vec<DisclosureReport> =
            users.iter().map(|user| analysis.assess(&index, user)).collect();
        for threads in [None, Some(1), Some(2), Some(4)] {
            assert_eq!(analysis.analyse_users_batch(&index, &users, threads), expected);
        }
        assert!(analysis.analyse_users_batch(&index, &[], Some(2)).is_empty());
    }
}
