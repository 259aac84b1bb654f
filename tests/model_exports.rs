//! Integration tests for the exported artefacts a developer actually looks
//! at: DOT renderings of the data-flow diagrams and of the annotated LTS, the
//! exposure summary, and the textual risk report.

use privacy_mde::core::{casestudy, Pipeline};
use privacy_mde::dataflow::dot::{diagram_to_dot, system_to_dot};
use privacy_mde::lts::dot::{lts_to_dot_with, DotOptions};
use privacy_mde::lts::{GeneratorConfig, LtsIndex, LtsQuery};
use privacy_mde::model::FieldId;

#[test]
fn figure_one_dot_export_contains_both_services_and_all_stores() {
    let system = casestudy::healthcare().unwrap();
    let dot = system_to_dot(system.dataflows());
    for needle in [
        "MedicalService",
        "MedicalResearchService",
        "Appointments",
        "EHR",
        "AnonEHR",
        "book appointment",
        "medical research",
        "subgraph cluster_0",
        "subgraph cluster_1",
    ] {
        assert!(dot.contains(needle), "missing `{needle}` in system DOT");
    }

    // Per-diagram export for the medical service alone.
    let diagram = system.dataflows().diagram(&casestudy::medical_service()).unwrap();
    let single = diagram_to_dot(diagram);
    assert!(single.contains("Receptionist"));
    assert!(single.contains("administer treatment"));
    assert!(!single.contains("Researcher"));
}

#[test]
fn figure_three_dot_export_can_show_or_suppress_state_variables() {
    let system = casestudy::healthcare().unwrap();
    let lts = system.generate_lts_with(&GeneratorConfig::for_service("MedicalService")).unwrap();

    let compact = lts_to_dot_with(&lts, &DotOptions::default());
    // The paper suppresses state variables in Fig. 3 for readability.
    assert!(!compact.contains("has("));
    assert!(compact.contains("doublecircle"));

    let verbose = lts_to_dot_with(
        &lts,
        &DotOptions { show_state_variables: true, title: "Fig. 3".to_owned() },
    );
    assert!(verbose.contains("Fig. 3"));
    assert!(verbose.contains("has(Doctor,"));
}

#[test]
fn exposure_summary_names_exactly_the_actors_that_can_identify_data() {
    let system = casestudy::healthcare().unwrap();
    let lts = system.generate_lts_with(&GeneratorConfig::for_service("MedicalService")).unwrap();
    // One columnar index backs every query below (the scan strategy is
    // exercised — and pinned identical — by the crates' differential tests).
    let index = LtsIndex::build(&lts);
    let query = LtsQuery::new(&lts, &index);
    let summary = query.exposure_summary();

    // The receptionist collects the name, the doctor the diagnosis, the
    // nurse reads the treatment, the administrator could read what the EHR
    // stores. The researcher never appears for the medical service alone.
    assert!(summary.contains(&(casestudy::actors::receptionist(), casestudy::fields::name())));
    assert!(summary.contains(&(casestudy::actors::doctor(), casestudy::fields::diagnosis())));
    assert!(summary.contains(&(casestudy::actors::nurse(), casestudy::fields::treatment())));
    assert!(summary.contains(&(casestudy::actors::administrator(), casestudy::fields::diagnosis())));
    assert!(!summary.iter().any(|(actor, _)| actor == &casestudy::actors::researcher()));

    // The trace explains how the doctor comes to identify the medical issues
    // (collected directly from the patient during the consultation).
    let trace = query
        .trace_to_identification(&casestudy::actors::doctor(), &casestudy::fields::medical_issues())
        .expect("a trace exists");
    assert!(trace.iter().any(|step| step.starts_with("collect")));
    // The diagnosis, by contrast, is authored by the doctor rather than
    // collected, so no collect/read trace sets the `has` variable for it.
    assert!(query
        .trace_to_identification(&casestudy::actors::doctor(), &casestudy::fields::diagnosis())
        .is_none());
}

#[test]
fn rendered_risk_report_is_suitable_for_a_privacy_notice() {
    // The paper suggests the analysis output could "form part of the privacy
    // policy explained to users"; the rendered report must therefore name the
    // actors, the fields and the levels in plain text.
    let system = casestudy::healthcare().unwrap();
    let outcome = Pipeline::new(&system).analyse_user(&casestudy::case_a_user()).unwrap();
    let text = outcome.report.render();
    assert!(text.contains("privacy risk report"));
    assert!(text.contains("Administrator"));
    assert!(text.contains("Diagnosis"));
    assert!(text.contains("Medium"));
    assert!(text.contains("pseudonymisation analysis: not run"));
}

#[test]
fn field_identifier_conventions_hold_across_the_case_study() {
    // Every pseudonymised field registered by the case study links back to a
    // registered original field — the invariant the pseudonymisation risk
    // analysis relies on when it maps `f_anon` back to `f`.
    let system = casestudy::healthcare().unwrap();
    for field in system.catalog().fields() {
        if field.is_pseudonymised() {
            let original: FieldId = field.original().expect("anon fields have an original");
            assert!(
                system.catalog().field(&original).is_some(),
                "pseudonymised field {} has no original",
                field.id()
            );
        }
    }
}
