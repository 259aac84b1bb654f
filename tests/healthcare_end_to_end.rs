//! End-to-end integration tests spanning every crate: the full doctors'-
//! surgery case study of the paper, exercised through the public API of the
//! umbrella crate only.

use privacy_mde::access::{Permission, PolicyDelta};
use privacy_mde::anonymity::{l_diversity_of, utility_report, ValueRiskPolicy};
use privacy_mde::baselines::{prosecutor_risk, threat_catalogue_pass};
use privacy_mde::core::{casestudy, Pipeline};
use privacy_mde::lts::dot::lts_to_dot;
use privacy_mde::lts::{ActionKind, GeneratorConfig, LtsIndex, LtsQuery};
use privacy_mde::model::{FieldId, RiskLevel};
use privacy_mde::synth::{table1_raw_records, table1_release};

#[test]
fn the_healthcare_model_validates_and_generates_a_small_lts() {
    let system = casestudy::healthcare().expect("fixture builds");
    let validation = system.validate().expect("catalog is consistent");
    assert!(validation.is_ok(), "validation issues: {validation}");

    // Fig. 3: the Medical Service on its own generates a compact LTS even
    // though the theoretical state space is astronomically large.
    let medical = system
        .generate_lts_with(&GeneratorConfig::for_service("MedicalService"))
        .expect("generation succeeds");
    let stats = medical.stats();
    assert_eq!(stats.transitions, 6, "one transition per Fig. 1 flow");
    assert!(stats.states <= 7);
    assert!(stats.theoretical_states > 1e9);

    // The whole system (both services interleaved) is still small.
    let full = system.generate_lts().expect("generation succeeds");
    assert!(full.state_count() < 200);
    assert!(full.transition_count() < 400);
}

#[test]
fn case_study_a_medium_risk_is_found_and_removed_by_the_policy_change() {
    let system = casestudy::healthcare().unwrap();
    let user = casestudy::case_a_user();

    let outcome = Pipeline::new(&system).analyse_user(&user).unwrap();
    let disclosure = outcome.report.disclosure().unwrap();

    // The paper: the non-allowed actors are the Administrator and the
    // Researcher; the Administrator's read of the EHR is Medium risk.
    let non_allowed: Vec<&str> =
        disclosure.non_allowed_actors().iter().map(|a| a.as_str()).collect();
    assert_eq!(non_allowed, vec!["Administrator", "Researcher"]);
    assert_eq!(
        disclosure.risk_for(&casestudy::actors::administrator(), &casestudy::fields::diagnosis()),
        RiskLevel::Medium
    );

    // The annotated LTS draws the risky read as a dashed, coloured edge.
    let dot = lts_to_dot(&outcome.lts);
    assert!(dot.contains("style=dashed"));
    assert!(dot.contains("Administrator"));

    // The query interface can explain how the exposure arises — probing a
    // fresh index of the annotated LTS (the pipeline's own index describes
    // the pre-annotation snapshot).
    let index = LtsIndex::build(&outcome.lts);
    let query = LtsQuery::new(&outcome.lts, &index);
    assert!(query
        .can_actor_identify(&casestudy::actors::administrator(), &casestudy::fields::diagnosis()));

    // After the policy change the risk disappears.
    let revised = system.with_policy(system.policy().with_applied(&PolicyDelta::new().revoke(
        "Administrator",
        Permission::Read,
        "EHR",
    )));
    let outcome = Pipeline::new(&revised).analyse_user(&user).unwrap();
    assert_eq!(
        outcome
            .report
            .disclosure()
            .unwrap()
            .risk_for(&casestudy::actors::administrator(), &casestudy::fields::diagnosis()),
        RiskLevel::Low
    );
    assert_eq!(outcome.lts.stats().risk_transitions, 0);
}

#[test]
fn case_study_b_reproduces_table_one_and_fig_four() {
    let system = casestudy::healthcare().unwrap();
    let release = table1_release();
    let outcome = Pipeline::new(&system)
        .analyse_user_and_release(
            &casestudy::case_a_user(),
            &casestudy::case_b_adversary(),
            &release,
            ValueRiskPolicy::weight_within_5kg_at_90_percent(),
            &casestudy::table1_visible_sets(),
            Some(0.5),
        )
        .unwrap();
    let pseudonym = outcome.report.pseudonym().unwrap();

    // Table I's violations row.
    assert_eq!(pseudonym.violation_series(), vec![0, 2, 4]);
    // The 50 % violation threshold makes the technique unacceptable.
    assert!(pseudonym.is_unacceptable());
    assert_eq!(outcome.report.overall_level(), RiskLevel::High);
    // Fig. 4's dotted risk transitions exist and point at the Weight field.
    assert!(!pseudonym.risk_transitions().is_empty());
    for tid in pseudonym.risk_transitions() {
        let transition = outcome.lts.transition(*tid);
        assert!(transition.is_risk_transition());
        assert_eq!(transition.label().action(), ActionKind::Read);
        assert!(transition.label().involves_field(&FieldId::new("Weight")));
    }
}

#[test]
fn anonymisation_utility_and_diversity_metrics_support_the_designer_decision() {
    let raw = table1_raw_records();
    let release = table1_release();
    let weight = FieldId::new("Weight");

    // The release keeps the weight column untouched, so its utility is
    // perfect — the risk, not the utility, is what rules the technique out.
    let utility = utility_report(&raw, &release, &weight);
    assert_eq!(utility.mean_shift(), 0.0);
    assert_eq!(utility.loss_rate(), 0.0);

    // The release is not 2-diverse for weight (±5 kg), which is exactly why
    // the value risk flags it.
    let l = l_diversity_of(&release, &[FieldId::new("Age"), FieldId::new("Height")], &weight, 5.0);
    assert_eq!(l, 1);
}

#[test]
fn baselines_report_different_information_than_the_model_driven_analysis() {
    let system = casestudy::healthcare().unwrap();

    // The LINDDUN-style pass produces many unquantified candidate threats.
    let threats = threat_catalogue_pass(system.catalog(), system.dataflows());
    assert!(threats.len() >= 10);

    // The ARX prosecutor model is satisfied with k = 2 (risk 0.5), even
    // though the value risk of Table I shows 4 of 6 records violating the
    // weight-inference policy — the gap the paper's method closes.
    let release = table1_release();
    let reident = prosecutor_risk(&release, &[FieldId::new("Age"), FieldId::new("Height")]);
    assert!(reident.max_risk <= 0.5 + f64::EPSILON);
}
