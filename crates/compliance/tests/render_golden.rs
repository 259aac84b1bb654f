//! Golden rendering: the text of a compliance report over the plain
//! healthcare LTS (declared flows, no potential reads) under the
//! `analysis_scaling` hygiene policy. Violations are kept structured and
//! rendered on read, so this pins that the rendered text — every PASS, FAIL
//! and SKIP line, every violation's subject and detail, and the target line
//! — stays byte for byte what the eagerly formatted reports produced.
//!
//! To re-capture after a deliberate wording change, write
//! `check_lts(&lts, &policy).render()` to `tests/golden/healthcare_hygiene.txt`.

use privacy_compliance::{
    check_lts, check_lts_scan, ActorMatcher, FieldMatcher, PrivacyPolicy, Statement,
};
use privacy_core::casestudy;
use privacy_lts::ActionKind;
use privacy_model::{ActorId, Catalog, FieldId, Purpose};

const GOLDEN: &str = include_str!("golden/healthcare_hygiene.txt");

/// `analysis_scaling`'s hygiene policy for a declared-flow LTS (the variant
/// that includes the purpose limitation).
fn hygiene_policy(catalog: &Catalog) -> PrivacyPolicy {
    let actors: Vec<ActorId> = catalog.identifying_actors().map(|a| a.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let mut policy = PrivacyPolicy::new("analysis-scaling hygiene policy");
    for (i, actor) in actors.iter().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("NO-DELETE-{i}"),
            format!("{actor} never deletes records"),
            ActorMatcher::only([actor.clone()]),
            Some(ActionKind::Delete),
            FieldMatcher::Any,
        ));
        policy.add_statement(Statement::forbid(
            format!("NO-DELETE-CORE-{i}"),
            format!("{actor} never deletes the core record"),
            ActorMatcher::only([actor.clone()]),
            Some(ActionKind::Delete),
            FieldMatcher::only(fields.iter().take(3).cloned()),
        ));
    }
    for (i, action) in ActionKind::ALL.iter().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("NO-AUDITOR-{i}"),
            format!("the external auditor never performs {action}"),
            ActorMatcher::only([ActorId::new("ExternalAuditor")]),
            Some(*action),
            FieldMatcher::Any,
        ));
    }
    policy.add_statement(Statement::require_erasure(
        "ERASE-ALL",
        "every processed field must be erasable",
        FieldMatcher::Any,
    ));
    for (i, field) in fields.iter().enumerate() {
        policy.add_statement(Statement::require_erasure(
            format!("ERASE-{i}"),
            format!("{field} must be erasable on request"),
            FieldMatcher::only([field.clone()]),
        ));
    }
    policy.add_statement(Statement::purpose_limit(
        "PURPOSE-CORE",
        "the core record is only processed for declared purposes",
        FieldMatcher::only(fields.iter().take(1).cloned()),
        ["intake", "persist", "process", "collect", "disclose"].map(|p| Purpose::new(p).unwrap()),
    ));
    for (i, field) in fields.iter().enumerate() {
        policy.add_statement(Statement::max_exposure(
            format!("EXPOSE-{i}"),
            format!("at most two actors may identify {field}"),
            field.clone(),
            2,
        ));
    }
    policy
}

#[test]
fn healthcare_hygiene_report_renders_byte_for_byte() {
    let system = casestudy::healthcare().unwrap();
    let lts = system.generate_lts().unwrap();
    let policy = hygiene_policy(system.catalog());
    let indexed = check_lts(&lts, &policy);
    assert_eq!(indexed.render(), GOLDEN);
    assert_eq!(indexed.to_string(), GOLDEN);
    assert_eq!(check_lts_scan(&lts, &policy).render(), GOLDEN);
}
