//! Automatic generation of the privacy LTS from the design artefacts.
//!
//! This is the heart of the model-driven method (Section II-B): from the
//! per-service data-flow diagrams and the access-control policy, the
//! extraction rules produce a labelled transition system whose states are
//! privacy states and whose transitions are the privacy actions implied by
//! the flows:
//!
//! * user → actor flow: `collect` — the actor *has identified* the fields;
//! * actor → actor flow: `disclose` — the receiving actor has identified the
//!   fields;
//! * actor → datastore flow: `create` (or `anon` for anonymised stores) —
//!   every actor the access policy allows to read those fields *could
//!   identify* them;
//! * datastore → actor flow: `read` — the reading actor has identified the
//!   fields it is permitted to read.
//!
//! *"If there are multiple flows within a service, the flows can be executed
//! independently, provided the start node has the correct data to flow"* —
//! the generator therefore explores the interleavings of the per-service
//! flow sequences (each service's own flows stay in their declared order)
//! and merges composite states that share the same privacy state, which is
//! what keeps the generated LTS small compared to the `2^60` theoretical
//! state space.
//!
//! [`generate_lts`] is a thin wrapper over the optimised engine: the
//! artefacts are first compiled to a dense-index flow program (the private
//! `compile` module) and then explored by a parallel frontier BFS (the
//! private `engine` module). The original string-resolving single-threaded path
//! is retained as [`crate::reference::generate_lts_reference`] and is held
//! equal to the engine by differential tests; `docs/PERFORMANCE.md` in the
//! repository root describes the design and the measured speedups.

use crate::compile::CompiledModel;
use crate::engine;
use crate::lts::Lts;
use privacy_access::AccessPolicy;
use privacy_dataflow::SystemDataFlows;
use privacy_model::{Catalog, ModelError, ServiceId};
use std::collections::BTreeSet;

/// Configuration of the LTS generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Restrict generation to these services (`None` = all services with a
    /// diagram). Fig. 3 of the paper shows the LTS of the Medical Service
    /// process alone.
    pub services: Option<BTreeSet<ServiceId>>,
    /// Explore the full interleaving of services (`true`, the default) or
    /// execute the services one after another in service-id order (`false`).
    pub interleave_services: bool,
    /// Additionally generate `read` transitions for every actor that the
    /// access policy allows to read data present in a datastore, even where
    /// no declared flow performs that read. This exposes *potential* reads
    /// (the accesses the disclosure-risk analysis worries about) directly in
    /// the LTS at the cost of a larger state space.
    pub explore_potential_reads: bool,
    /// Safety bound on the number of composite states explored.
    ///
    /// The bound is enforced when a composite state is *inserted* into the
    /// visited set: generation fails deterministically while inserting
    /// composite state number `max_states + 1` (the initial state counts),
    /// so the exploration queue can never outgrow the bound.
    pub max_states: usize,
    /// Number of worker threads for frontier expansion (`None` = one per
    /// available CPU). The generated LTS is identical for every thread
    /// count; `Some(1)` forces the fully inline single-threaded path.
    pub threads: Option<usize>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            services: None,
            interleave_services: true,
            explore_potential_reads: false,
            max_states: 250_000,
            threads: None,
        }
    }
}

impl GeneratorConfig {
    /// A configuration restricted to a single service.
    pub fn for_service(service: impl Into<ServiceId>) -> Self {
        GeneratorConfig {
            services: Some([service.into()].into_iter().collect()),
            ..GeneratorConfig::default()
        }
    }

    /// Builder-style: enable exploration of potential reads.
    pub fn with_potential_reads(mut self) -> Self {
        self.explore_potential_reads = true;
        self
    }

    /// Builder-style: set the composite-state safety bound.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Builder-style: set the number of frontier-expansion worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// Generates the privacy LTS for a system model.
///
/// Identifier resolution happens once, at compile time; exploration then
/// operates on packed `u64` words and is parallelised across frontier
/// generations. The result is deterministic: independent of thread count,
/// and equal — state numbering included — to what the retained reference
/// implementation ([`crate::reference::generate_lts_reference`]) produces.
///
/// # Errors
///
/// Returns [`ModelError::Invalid`] if the state bound of the configuration is
/// exceeded, and [`ModelError::Unknown`] if a requested service has no
/// diagram.
pub fn generate_lts(
    catalog: &Catalog,
    system: &SystemDataFlows,
    policy: &AccessPolicy,
    config: &GeneratorConfig,
) -> Result<Lts, ModelError> {
    let compiled = CompiledModel::compile(catalog, system, policy, config)?;
    engine::explore(&compiled, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::ActionKind;
    use crate::reference::generate_lts_reference;
    use privacy_access::{AccessControlList, Grant};
    use privacy_dataflow::DiagramBuilder;
    use privacy_model::{
        Actor, ActorId, DataField, DataSchema, DatastoreDecl, FieldId, ServiceDecl,
    };

    /// A small two-service model: a doctor collects and stores a diagnosis
    /// (medical service); an administrator has read access to the store but
    /// no flow of the medical service reads it.
    fn fixture() -> (Catalog, SystemDataFlows, AccessPolicy) {
        let mut catalog = Catalog::new();
        catalog.add_actor(Actor::data_subject("Patient")).unwrap();
        catalog.add_actor(Actor::role("Doctor")).unwrap();
        catalog.add_actor(Actor::role("Administrator")).unwrap();
        catalog.add_actor(Actor::role("Researcher")).unwrap();
        catalog.add_field(DataField::identifier("Name")).unwrap();
        catalog.add_field(DataField::sensitive("Diagnosis")).unwrap();
        catalog.add_field(DataField::sensitive("Diagnosis_anon")).unwrap();
        catalog
            .add_schema(DataSchema::new(
                "EHRSchema",
                [FieldId::new("Name"), FieldId::new("Diagnosis")],
            ))
            .unwrap();
        catalog
            .add_schema(DataSchema::new("AnonSchema", [FieldId::new("Diagnosis_anon")]))
            .unwrap();
        catalog.add_datastore(DatastoreDecl::new("EHR", "EHRSchema")).unwrap();
        catalog.add_datastore(DatastoreDecl::anonymised("AnonEHR", "AnonSchema")).unwrap();
        catalog.add_service(ServiceDecl::new("MedicalService", [ActorId::new("Doctor")])).unwrap();
        catalog
            .add_service(ServiceDecl::new(
                "ResearchService",
                [ActorId::new("Administrator"), ActorId::new("Researcher")],
            ))
            .unwrap();

        let medical = DiagramBuilder::new("MedicalService")
            .collect("Doctor", ["Name", "Diagnosis"], "consultation", 1)
            .unwrap()
            .create("Doctor", "EHR", ["Name", "Diagnosis"], "record", 2)
            .unwrap()
            .read("Doctor", "EHR", ["Diagnosis"], "review", 3)
            .unwrap()
            .build();
        let research = DiagramBuilder::new("ResearchService")
            .read("Administrator", "EHR", ["Diagnosis"], "prepare", 1)
            .unwrap()
            .anonymise("Administrator", "AnonEHR", ["Diagnosis_anon"], "anonymise", 2)
            .unwrap()
            .read("Researcher", "AnonEHR", ["Diagnosis_anon"], "research", 3)
            .unwrap()
            .build();
        let system =
            SystemDataFlows::new().with_diagram(medical).unwrap().with_diagram(research).unwrap();

        let acl = AccessControlList::new()
            .with_grant(Grant::read_write_all("Doctor", "EHR"))
            .with_grant(Grant::read_all("Administrator", "EHR"))
            .with_grant(Grant::read_write_all("Administrator", "AnonEHR"))
            .with_grant(Grant::read_all("Researcher", "AnonEHR"));
        let policy = AccessPolicy::from_parts(acl, Default::default());
        (catalog, system, policy)
    }

    #[test]
    fn single_service_generation_follows_the_flow_order() {
        let (catalog, system, policy) = fixture();
        let config = GeneratorConfig::for_service("MedicalService");
        let lts = generate_lts(&catalog, &system, &policy, &config).unwrap();

        // Three flows executed linearly: collect, create, read.
        assert_eq!(lts.transition_count(), 3);
        // collect and create produce new states; the final read re-reads a
        // field the doctor already identified, so it loops back onto the same
        // privacy state: 3 distinct states.
        assert_eq!(lts.state_count(), 3);

        let space = lts.space().clone();
        let doctor = ActorId::new("Doctor");
        let admin = ActorId::new("Administrator");
        let diagnosis = FieldId::new("Diagnosis");

        // After the create, the administrator could identify the diagnosis
        // because the ACL grants them read access to the EHR.
        let reachable_exposure = lts.states().any(|(_, s)| s.could(&space, &admin, &diagnosis));
        assert!(reachable_exposure, "administrator exposure must be represented");
        assert!(lts.states().any(|(_, s)| s.has(&space, &doctor, &diagnosis)));

        // Actions are labelled as the paper prescribes.
        let actions: Vec<ActionKind> = lts.transitions().map(|(_, t)| t.label().action()).collect();
        assert_eq!(actions, vec![ActionKind::Collect, ActionKind::Create, ActionKind::Read]);
    }

    #[test]
    fn anon_flows_are_labelled_anon() {
        let (catalog, system, policy) = fixture();
        let config = GeneratorConfig::for_service("ResearchService");
        let lts = generate_lts(&catalog, &system, &policy, &config).unwrap();
        let actions: Vec<ActionKind> = lts.transitions().map(|(_, t)| t.label().action()).collect();
        assert!(actions.contains(&ActionKind::Anon));
        assert!(actions.contains(&ActionKind::Read));
    }

    #[test]
    fn interleaved_services_share_privacy_states() {
        let (catalog, system, policy) = fixture();
        let config = GeneratorConfig::default();
        let lts = generate_lts(&catalog, &system, &policy, &config).unwrap();
        // Interleaving generates more transitions than the 6 flows because
        // the same flow fires from different privacy states.
        assert!(lts.transition_count() >= 6);
        assert!(lts.state_count() >= 4);
        // The researcher ends up having identified the anonymised diagnosis
        // on some path.
        let space = lts.space().clone();
        let researcher = ActorId::new("Researcher");
        let anon_field = FieldId::new("Diagnosis_anon");
        assert!(lts.states().any(|(_, s)| s.has(&space, &researcher, &anon_field)));
    }

    #[test]
    fn sequential_mode_produces_a_smaller_or_equal_lts() {
        let (catalog, system, policy) = fixture();
        let interleaved =
            generate_lts(&catalog, &system, &policy, &GeneratorConfig::default()).unwrap();
        let sequential = generate_lts(
            &catalog,
            &system,
            &policy,
            &GeneratorConfig { interleave_services: false, ..GeneratorConfig::default() },
        )
        .unwrap();
        assert!(sequential.transition_count() <= interleaved.transition_count());
        assert!(sequential.state_count() <= interleaved.state_count());
    }

    #[test]
    fn potential_reads_add_read_transitions_for_policy_holders() {
        let (catalog, system, policy) = fixture();
        let base = generate_lts(
            &catalog,
            &system,
            &policy,
            &GeneratorConfig::for_service("MedicalService"),
        )
        .unwrap();
        let with_reads = generate_lts(
            &catalog,
            &system,
            &policy,
            &GeneratorConfig::for_service("MedicalService").with_potential_reads(),
        )
        .unwrap();
        assert!(with_reads.transition_count() > base.transition_count());

        // Now the administrator actually *has identified* the diagnosis on
        // some path, via a potential read that is not part of any flow.
        let space = with_reads.space().clone();
        let admin = ActorId::new("Administrator");
        let diagnosis = FieldId::new("Diagnosis");
        assert!(with_reads.states().any(|(_, s)| s.has(&space, &admin, &diagnosis)));
        assert!(!base.states().any(|(_, s)| s.has(&space, &admin, &diagnosis)));
    }

    #[test]
    fn read_without_permission_does_not_identify() {
        let (catalog, system, _) = fixture();
        // Empty policy: nobody can read anything, so creates expose nothing
        // and reads identify nothing.
        let policy = AccessPolicy::new();
        let lts = generate_lts(
            &catalog,
            &system,
            &policy,
            &GeneratorConfig::for_service("MedicalService"),
        )
        .unwrap();
        let space = lts.space().clone();
        let admin = ActorId::new("Administrator");
        let diagnosis = FieldId::new("Diagnosis");
        assert!(!lts.states().any(|(_, s)| s.could(&space, &admin, &diagnosis)));
        // The doctor still identifies the diagnosis by collecting it.
        assert!(lts.states().any(|(_, s)| s.has(&space, &ActorId::new("Doctor"), &diagnosis)));
    }

    #[test]
    fn unknown_service_selection_is_an_error() {
        let (catalog, system, policy) = fixture();
        let config = GeneratorConfig::for_service("NoSuchService");
        let err = generate_lts(&catalog, &system, &policy, &config).unwrap_err();
        assert!(matches!(err, ModelError::Unknown { .. }));
    }

    #[test]
    fn state_bound_is_enforced() {
        let (catalog, system, policy) = fixture();
        let config = GeneratorConfig::default().with_max_states(1);
        let err = generate_lts(&catalog, &system, &policy, &config).unwrap_err();
        assert!(matches!(err, ModelError::Invalid { .. }));
    }

    #[test]
    fn state_bound_fails_at_insertion_time_with_the_documented_count() {
        let (catalog, system, policy) = fixture();
        // The full interleaved exploration needs well over 8 composite
        // states; the bound must fail while *inserting* composite state
        // number 9 (the initial state counts), naming the bound, and both
        // engines must agree on the error.
        for max_states in [1usize, 4, 8] {
            let config = GeneratorConfig::default().with_max_states(max_states);
            let err = generate_lts(&catalog, &system, &policy, &config).unwrap_err();
            let message = err.to_string();
            assert!(
                message.contains(&format!("bound of {max_states} composite states")),
                "unexpected message: {message}"
            );
            let ref_err = generate_lts_reference(&catalog, &system, &policy, &config).unwrap_err();
            assert_eq!(message, ref_err.to_string());
        }
        // A bound exactly equal to the number of composite states explored
        // succeeds: the bound is inclusive.
        let exact = composite_state_count(&catalog, &system, &policy);
        let config = GeneratorConfig::default().with_max_states(exact);
        assert!(generate_lts(&catalog, &system, &policy, &config).is_ok());
        let config = GeneratorConfig::default().with_max_states(exact - 1);
        assert!(generate_lts(&catalog, &system, &policy, &config).is_err());
    }

    /// The number of composite states of the fixture's default exploration,
    /// found by growing the bound until generation succeeds.
    fn composite_state_count(
        catalog: &Catalog,
        system: &SystemDataFlows,
        policy: &AccessPolicy,
    ) -> usize {
        (1..10_000)
            .find(|&bound| {
                let config = GeneratorConfig::default().with_max_states(bound);
                generate_lts(catalog, system, policy, &config).is_ok()
            })
            .expect("fixture exploration fits in 10k composite states")
    }

    #[test]
    fn thread_count_does_not_change_the_generated_lts() {
        let (catalog, system, policy) = fixture();
        let config = GeneratorConfig::default().with_potential_reads();
        let single =
            generate_lts(&catalog, &system, &policy, &config.clone().with_threads(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let parallel =
                generate_lts(&catalog, &system, &policy, &config.clone().with_threads(threads))
                    .unwrap();
            assert_eq!(single, parallel, "thread count {threads} changed the LTS");
        }
    }

    #[test]
    fn engine_equals_reference_on_the_fixture() {
        let (catalog, system, policy) = fixture();
        for config in [
            GeneratorConfig::default(),
            GeneratorConfig::default().with_potential_reads(),
            GeneratorConfig { interleave_services: false, ..GeneratorConfig::default() },
            GeneratorConfig::for_service("MedicalService").with_potential_reads(),
        ] {
            let engine = generate_lts(&catalog, &system, &policy, &config).unwrap();
            let reference = generate_lts_reference(&catalog, &system, &policy, &config).unwrap();
            assert_eq!(engine, reference, "config {config:?} diverged");
        }
    }

    #[test]
    fn generated_space_matches_catalog_variables() {
        let (catalog, system, policy) = fixture();
        let lts = generate_lts(&catalog, &system, &policy, &GeneratorConfig::default()).unwrap();
        assert_eq!(lts.space().variable_count(), catalog.state_variable_count());
        // 3 identifying actors x 3 fields x 2 = 18.
        assert_eq!(lts.space().variable_count(), 18);
    }
}
