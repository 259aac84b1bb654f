//! The end-to-end analysis pipeline.

use crate::system::PrivacySystem;
use privacy_anonymity::ValueRiskPolicy;
use privacy_lts::{GeneratorConfig, Lts, LtsIndex, LtsQuery};
use privacy_model::{ActorId, Dataset, FieldId, ModelError, UserProfile};
use privacy_risk::{
    DisclosureAnalysis, DisclosureReport, LikelihoodModel, PseudonymAnalysis, RiskMatrix,
    RiskReport,
};
use std::fmt;
use std::sync::Arc;

/// The result of running the pipeline for one user: the annotated LTS and the
/// combined risk report.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The generated LTS with risk annotations and risk-transitions applied.
    pub lts: Lts,
    /// The combined risk report.
    pub report: RiskReport,
}

impl fmt::Display for PipelineOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.lts.stats())?;
        write!(f, "{}", self.report)
    }
}

/// The result of assessing a whole user population over **one** generated
/// LTS and **one** shared analysis index: the read-only batch counterpart of
/// [`Pipeline::analyse_user`]. No risk-transitions are added, so the LTS and
/// index describe the generated model — downstream consumers (compliance
/// checks, queries, the runtime monitor) can keep probing it via
/// [`PopulationOutcome::query`]. The index is reference-counted so the
/// operation-time layer can hold on to it beyond the outcome's lifetime:
/// [`PopulationOutcome::shared_index`] is what a fresh *or resumed*
/// `privacy_runtime::IndexedMonitor` is constructed over, and
/// [`PopulationOutcome::index_fingerprint`] is the value a persisted monitor
/// snapshot is validated against on restart.
#[derive(Debug, Clone)]
pub struct PopulationOutcome {
    /// The generated (unannotated) LTS.
    pub lts: Lts,
    /// The columnar analysis index built once over [`PopulationOutcome::lts`],
    /// shared with any monitors constructed (or resumed) over it.
    pub index: Arc<LtsIndex>,
    /// One read-only disclosure report per user, in input order.
    pub reports: Vec<DisclosureReport>,
}

impl PopulationOutcome {
    /// An index-backed query over the generated LTS.
    pub fn query(&self) -> LtsQuery<'_> {
        LtsQuery::new(&self.lts, &self.index)
    }

    /// A shared handle on the analysis index — the design-time build a
    /// streaming monitor probes, and the one a monitor snapshot taken
    /// against it can be resumed over after a restart.
    pub fn shared_index(&self) -> Arc<LtsIndex> {
        Arc::clone(&self.index)
    }

    /// The fingerprint of the shared index (see
    /// [`LtsIndex::fingerprint`]): persisted monitor snapshots record it,
    /// and resuming validates it, so state accumulated against one model
    /// generation can never be silently reinterpreted under another.
    pub fn index_fingerprint(&self) -> u64 {
        self.index.fingerprint()
    }
}

impl fmt::Display for PopulationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.lts.stats())?;
        write!(f, "population risk: {} users assessed over one shared index", self.reports.len())
    }
}

/// The model-driven analysis pipeline over one [`PrivacySystem`].
#[derive(Debug, Clone)]
pub struct Pipeline<'a> {
    system: &'a PrivacySystem,
    generator: GeneratorConfig,
    matrix: RiskMatrix,
    likelihood: LikelihoodModel,
}

impl<'a> Pipeline<'a> {
    /// Creates a pipeline with default generator configuration, risk matrix
    /// and likelihood model.
    pub fn new(system: &'a PrivacySystem) -> Self {
        Pipeline {
            system,
            generator: GeneratorConfig::default(),
            matrix: RiskMatrix::standard(),
            likelihood: LikelihoodModel::standard(),
        }
    }

    /// Builder-style: overrides the generator configuration.
    pub fn with_generator(mut self, config: GeneratorConfig) -> Self {
        self.generator = config;
        self
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

    /// The system under analysis.
    pub fn system(&self) -> &PrivacySystem {
        self.system
    }

    /// Generates the LTS and runs the unwanted-disclosure analysis for one
    /// user (Case Study A).
    ///
    /// Unless the generator configuration already restricts the services,
    /// the LTS is generated for the services the user consented to — the
    /// paper assumes that *"the disclose action will only occur during the
    /// course of a service, and hence if a user has not agreed to use that
    /// service, the disclose action will not be engaged"*; accesses outside
    /// those services are what the likelihood scenarios and the added
    /// potential-read risk transitions account for.
    ///
    /// # Errors
    ///
    /// Propagates LTS generation errors.
    pub fn analyse_user(&self, user: &UserProfile) -> Result<PipelineOutcome, ModelError> {
        let mut config = self.generator.clone();
        if config.services.is_none() {
            let consented: std::collections::BTreeSet<_> = user
                .consent()
                .services()
                .filter(|s| self.system.dataflows().diagram(s).is_some())
                .cloned()
                .collect();
            config.services = Some(consented);
        }
        let lts = self.system.generate_lts_with(&config)?;
        let (disclosure, lts) = self.disclosure().analyse(&lts, &LtsIndex::build(&lts), user);
        Ok(PipelineOutcome { lts, report: RiskReport::new().with_disclosure(disclosure) })
    }

    /// The unwanted-disclosure analysis with this pipeline's risk matrix and
    /// likelihood model.
    fn disclosure(&self) -> DisclosureAnalysis<'a> {
        DisclosureAnalysis::new(self.system.catalog(), self.system.policy())
            .with_matrix(self.matrix.clone())
            .with_likelihood(self.likelihood.clone())
    }

    /// Assesses a whole user population over one generated LTS and one
    /// shared analysis index, fanning the users out over `threads` worker
    /// threads (`None` runs on the calling thread). Reports are read-only
    /// (no risk transitions are added) and identical — per user, in order —
    /// to the findings of [`Pipeline::analyse_user`] minus the annotations;
    /// the returned [`PopulationOutcome`] keeps the LTS and index together
    /// so downstream checks reuse the same snapshot instead of rebuilding
    /// it.
    ///
    /// Unless the generator configuration already restricts the services,
    /// the LTS covers every modelled service: a population-wide model must
    /// serve users with differing consent, so per-user service restriction
    /// happens through each user's allowed-actor set rather than the state
    /// space.
    ///
    /// # Errors
    ///
    /// Propagates LTS generation errors.
    pub fn analyse_population(
        &self,
        users: &[UserProfile],
        threads: Option<usize>,
    ) -> Result<PopulationOutcome, ModelError> {
        let lts = self.system.generate_lts_with(&self.generator)?;
        let index = Arc::new(LtsIndex::build(&lts));
        let reports = self.disclosure().analyse_users_batch(&index, users, threads);
        Ok(PopulationOutcome { lts, index, reports })
    }

    /// Generates the LTS and runs both analyses: unwanted disclosure for the
    /// user and pseudonymisation value risk for the given adversary over the
    /// released dataset (Case Study B / Table I). The pseudonymisation
    /// analysis reads the disclosure's annotated LTS, added states included.
    ///
    /// # Errors
    ///
    /// Propagates LTS generation and value-risk errors.
    #[allow(clippy::too_many_arguments)]
    pub fn analyse_user_and_release(
        &self,
        user: &UserProfile,
        adversary: &ActorId,
        release: &Dataset,
        value_policy: ValueRiskPolicy,
        visible_sets: &[Vec<FieldId>],
        violation_threshold: Option<f64>,
    ) -> Result<PipelineOutcome, ModelError> {
        let lts = self.system.generate_lts_with(&self.generator)?;
        let (disclosure, lts) = self.disclosure().analyse(&lts, &LtsIndex::build(&lts), user);

        let mut pseudonym_analysis =
            PseudonymAnalysis::new(self.system.catalog(), self.system.policy(), value_policy);
        if let Some(threshold) = violation_threshold {
            pseudonym_analysis = pseudonym_analysis.with_violation_threshold(threshold);
        }
        let (pseudonym, lts) =
            pseudonym_analysis.analyse(&lts, adversary, release, visible_sets)?;

        Ok(PipelineOutcome {
            lts,
            report: RiskReport::new().with_disclosure(disclosure).with_pseudonym(pseudonym),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy;
    use privacy_access::{Permission, PolicyDelta};
    use privacy_lts::GeneratorConfig;
    use privacy_model::{RiskLevel, ServiceId};
    use privacy_synth::table1_release;

    #[test]
    fn case_study_a_risk_is_medium_then_low_after_the_policy_change() {
        let system = casestudy::healthcare().unwrap();
        let pipeline = Pipeline::new(&system);
        let outcome = pipeline.analyse_user(&casestudy::case_a_user()).unwrap();
        let disclosure = outcome.report.disclosure().unwrap();
        assert_eq!(
            disclosure
                .risk_for(&casestudy::actors::administrator(), &casestudy::fields::diagnosis()),
            RiskLevel::Medium
        );
        assert!(outcome.report.requires_action());

        // Apply the paper's remedy: revoke the administrator's EHR read.
        let revised = system.with_policy(system.policy().with_applied(&PolicyDelta::new().revoke(
            "Administrator",
            Permission::Read,
            "EHR",
        )));
        let pipeline = Pipeline::new(&revised);
        let outcome = pipeline.analyse_user(&casestudy::case_a_user()).unwrap();
        let disclosure = outcome.report.disclosure().unwrap();
        assert_eq!(
            disclosure
                .risk_for(&casestudy::actors::administrator(), &casestudy::fields::diagnosis()),
            RiskLevel::Low
        );
        assert!(!outcome.report.requires_action());
    }

    #[test]
    fn population_assessment_shares_one_index_and_matches_per_user_findings() {
        let system = casestudy::healthcare().unwrap();
        let pipeline = Pipeline::new(&system);
        let users = vec![
            casestudy::case_a_user(),
            casestudy::case_a_user().consents_to(ServiceId::new("MedicalResearchService")),
        ];
        let outcome = pipeline.analyse_population(&users, Some(2)).unwrap();
        assert_eq!(outcome.reports.len(), 2);
        // The index-backed query answers from the same shared snapshot.
        assert!(std::ptr::eq(outcome.query().index(), &*outcome.index));
        assert!(outcome.query().can_actor_identify(
            &casestudy::actors::administrator(),
            &casestudy::fields::diagnosis()
        ));
        // Case A: the administrator/diagnosis finding is Medium; a user who
        // consented to everything has no findings at all.
        assert_eq!(
            outcome.reports[0]
                .risk_for(&casestudy::actors::administrator(), &casestudy::fields::diagnosis()),
            RiskLevel::Medium
        );
        assert!(outcome.reports[1].is_empty());
        // Identical for every thread count, and the LTS is unannotated.
        assert_eq!(outcome.lts.stats().risk_transitions, 0);
        let sequential = pipeline.analyse_population(&users, Some(1)).unwrap();
        assert_eq!(outcome.reports, sequential.reports);
        assert!(outcome.to_string().contains("2 users assessed"));
    }

    #[test]
    fn case_study_b_reproduces_the_violation_series() {
        let system = casestudy::healthcare().unwrap();
        let pipeline = Pipeline::new(&system)
            .with_generator(GeneratorConfig::default().with_max_states(500_000));
        let outcome = pipeline
            .analyse_user_and_release(
                &casestudy::case_a_user(),
                &casestudy::case_b_adversary(),
                &table1_release(),
                ValueRiskPolicy::weight_within_5kg_at_90_percent(),
                &casestudy::table1_visible_sets(),
                Some(0.5),
            )
            .unwrap();
        let pseudonym = outcome.report.pseudonym().unwrap();
        assert_eq!(pseudonym.violation_series(), vec![0, 2, 4]);
        assert!(pseudonym.is_unacceptable());
        assert_eq!(outcome.report.overall_level(), RiskLevel::High);
        // The annotated LTS carries dotted risk transitions for the
        // researcher (Fig. 4).
        assert!(outcome.lts.stats().risk_transitions > 0);
        assert!(outcome.to_string().contains("privacy risk report"));
    }
}
