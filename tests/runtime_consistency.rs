//! Integration tests checking that the runtime monitoring path agrees with
//! the design-time analysis: executing the modelled service produces exactly
//! the exposures the generated LTS predicts.

use privacy_mde::access::{Permission, PolicyDelta};
use privacy_mde::core::{casestudy, Pipeline};
use privacy_mde::lts::VarSpace;
use privacy_mde::model::{Record, RiskLevel, UserId};
use privacy_mde::runtime::monitor::RuntimeMonitor;
use privacy_mde::runtime::ServiceEngine;

fn patient_record(name: &str) -> Record {
    Record::new()
        .with("Name", name)
        .with("Medical Issues", "chest pain")
        .with("Diagnosis", "hypertension")
        .with("Treatment Information", "medication")
}

#[test]
fn runtime_alerts_match_the_design_time_finding() {
    let system = casestudy::healthcare().unwrap();
    let user = casestudy::case_a_user();

    // Design time: Medium risk for the administrator reading the diagnosis.
    let design = Pipeline::new(&system).analyse_user(&user).unwrap();
    let design_level = design
        .report
        .disclosure()
        .unwrap()
        .risk_for(&casestudy::actors::administrator(), &casestudy::fields::diagnosis());
    assert_eq!(design_level, RiskLevel::Medium);

    // Run time: execute the medical service for the same user and watch the
    // monitor.
    let mut engine = ServiceEngine::new(
        system.catalog().clone(),
        system.dataflows().clone(),
        system.policy().clone(),
    );
    let mut monitor = RuntimeMonitor::new(system.catalog().clone(), system.policy().clone());
    monitor.register_user(&user);
    let outcome = engine
        .execute(
            &UserId::new(user.id().as_str()),
            &casestudy::medical_service(),
            &patient_record("case-a-user"),
        )
        .unwrap();
    assert!(outcome.fully_permitted());
    let alerts = monitor.observe_all(outcome.events());

    // The monitor raises at least one alert about the administrator and the
    // diagnosis, at the same Medium level the design-time analysis reported.
    let diagnosis_alerts: Vec<_> = alerts
        .iter()
        .filter(|a| a.message().contains("Administrator") && a.message().contains("Diagnosis"))
        .collect();
    assert_eq!(diagnosis_alerts.len(), 1);
    assert_eq!(diagnosis_alerts[0].level(), design_level);

    // The tracked runtime privacy state is consistent with some reachable
    // design-time LTS state.
    let space = VarSpace::from_catalog(system.catalog());
    let runtime_state = monitor.state_of(&UserId::new("case-a-user")).unwrap();
    assert!(runtime_state.could(
        &space,
        &casestudy::actors::administrator(),
        &casestudy::fields::diagnosis()
    ));
    let design_space = design.lts.space().clone();
    assert!(design.lts.states().any(|(_, s)| {
        s.could(&design_space, &casestudy::actors::administrator(), &casestudy::fields::diagnosis())
    }));
}

#[test]
fn runtime_enforcement_reflects_the_policy_change() {
    let system = casestudy::healthcare().unwrap();
    let revised = system.with_policy(system.policy().with_applied(&PolicyDelta::new().revoke(
        "Administrator",
        Permission::Read,
        "EHR",
    )));
    let user = casestudy::case_a_user();

    let mut engine = ServiceEngine::new(
        revised.catalog().clone(),
        revised.dataflows().clone(),
        revised.policy().clone(),
    );
    let mut monitor = RuntimeMonitor::new(revised.catalog().clone(), revised.policy().clone());
    monitor.register_user(&user);

    // The medical service is unaffected.
    let medical = engine
        .execute(
            &UserId::new("case-a-user"),
            &casestudy::medical_service(),
            &patient_record("case-a-user"),
        )
        .unwrap();
    assert!(medical.fully_permitted());
    assert!(monitor.observe_all(medical.events()).is_empty());

    // The research service's first flow (the administrator reading the EHR)
    // is now denied by the enforcement point.
    let research = engine
        .execute(&UserId::new("case-a-user"), &casestudy::research_service(), &Record::new())
        .unwrap();
    assert!(research.denied() >= 1);
    assert!(engine.log().denied().iter().any(|e| e.actor() == &casestudy::actors::administrator()));
}

#[test]
fn denied_events_never_change_the_monitored_privacy_state() {
    let system = casestudy::healthcare().unwrap();
    let revised = system.with_policy(system.policy().with_applied(&PolicyDelta::new().revoke(
        "Administrator",
        Permission::Read,
        "EHR",
    )));
    let user = casestudy::case_a_user();
    let mut engine = ServiceEngine::new(
        revised.catalog().clone(),
        revised.dataflows().clone(),
        revised.policy().clone(),
    );
    let mut monitor = RuntimeMonitor::new(revised.catalog().clone(), revised.policy().clone());
    monitor.register_user(&user);

    let research = engine
        .execute(&UserId::new("case-a-user"), &casestudy::research_service(), &Record::new())
        .unwrap();
    monitor.observe_all(research.events());

    let space = VarSpace::from_catalog(revised.catalog());
    let state = monitor.state_of(&UserId::new("case-a-user")).unwrap();
    assert!(!state.has(
        &space,
        &casestudy::actors::administrator(),
        &casestudy::fields::diagnosis()
    ));
}
