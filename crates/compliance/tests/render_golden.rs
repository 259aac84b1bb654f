//! Golden rendering: the text of compliance reports over the plain
//! healthcare LTS (declared flows, no potential reads).
//!
//! * Under the `analysis_scaling` hygiene policy. Violations are kept
//!   structured and rendered on read, so this pins that the rendered text —
//!   every PASS, FAIL and SKIP line, every violation's subject and detail,
//!   and the target line — stays byte for byte what the eagerly formatted
//!   reports produced.
//! * Under two prohibitions whose violations come from several label groups
//!   that interleave in transition-id order (Administrator reads and Doctor
//!   creates of the diagnosis; every actor's reads). Every violation of the
//!   hygiene report comes from a single label group, so this case is the
//!   one that pins the index's group merge to ascending transition order.
//!
//! To re-capture after a deliberate wording change, write
//! `check_lts_scan(&lts, &policy).render()` to the case's file under
//! `tests/golden/`.

use privacy_compliance::{
    check_lts, check_lts_scan, ActorMatcher, FieldMatcher, PrivacyPolicy, Statement,
};
use privacy_core::casestudy;
use privacy_lts::ActionKind;
use privacy_model::{ActorId, Catalog, FieldId, Purpose};

const GOLDEN: &str = include_str!("golden/healthcare_hygiene.txt");
const PROHIBITIONS_GOLDEN: &str = include_str!("golden/healthcare_prohibitions.txt");

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

#[test]
fn interleaved_label_groups_render_in_transition_order() {
    let system = casestudy::healthcare().unwrap();
    let lts = system.generate_lts().unwrap();
    let policy = PrivacyPolicy::new("p")
        .with_statement(Statement::forbid(
            "NO-READ",
            "nobody reads",
            ActorMatcher::Any,
            Some(ActionKind::Read),
            FieldMatcher::Any,
        ))
        .with_statement(Statement::forbid(
            "NO-DIAG",
            "nobody processes the diagnosis",
            ActorMatcher::Any,
            None,
            FieldMatcher::only([casestudy::fields::diagnosis()]),
        ));
    assert_eq!(check_lts(&lts, &policy).render(), PROHIBITIONS_GOLDEN);
    assert_eq!(check_lts_scan(&lts, &policy).render(), PROHIBITIONS_GOLDEN);
}
