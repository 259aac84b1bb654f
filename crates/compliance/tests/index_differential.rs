//! Differential property tests: the indexed compliance checker against the
//! retained scan-path checker, over seeded random `privacy-synth` system
//! models.
//!
//! The indexed strategy must agree with the scan strategy on *everything*:
//! the same statements checked/skipped and the same violations in the same
//! order. [`ComplianceReport`] equality compares that structure (violations
//! keep their facts and render on read), so every comparison here also
//! asserts the rendered texts are equal. The policies exercised here cover
//! every statement kind the LTS checker supports, with matchers that hit
//! and miss on purpose.

use privacy_compliance::{
    check_lts, check_lts_batch_indexed, check_lts_scan, ActorMatcher, ComplianceReport,
    FieldMatcher, PrivacyPolicy, Statement,
};
use privacy_core::casestudy;
use privacy_lts::{generate_lts, ActionKind, GeneratorConfig, Lts, LtsIndex};
use privacy_model::{ActorId, Catalog, FieldId, Purpose};
use privacy_synth::{random_model, ModelGeneratorConfig};
use proptest::prelude::*;

/// Builds a deterministic multi-statement policy stressing every statement
/// kind against the catalog's own vocabulary (plus deliberately unknown
/// actors/fields/purposes).
fn exercise_policy(catalog: &Catalog) -> PrivacyPolicy {
    let actors: Vec<ActorId> = catalog.identifying_actors().map(|a| a.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let mut policy = PrivacyPolicy::new("index-differential exercise");

    // Forbids: per-actor any-action, per-action first-actor, unknown actor.
    for (i, actor) in actors.iter().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("F-{i}"),
            format!("{actor} may do nothing"),
            ActorMatcher::only([actor.clone()]),
            None,
            FieldMatcher::Any,
        ));
    }
    for (i, action) in ActionKind::ALL.iter().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("FA-{i}"),
            format!("nobody performs {action}"),
            ActorMatcher::Any,
            Some(*action),
            fields.first().map_or(FieldMatcher::Any, |f| FieldMatcher::only([f.clone()])),
        ));
    }
    policy.add_statement(Statement::forbid(
        "F-ghost",
        "a ghost actor may do nothing",
        ActorMatcher::only([ActorId::new("Ghost")]),
        None,
        FieldMatcher::Any,
    ));
    policy.add_statement(Statement::forbid(
        "F-except",
        "everyone except the first actor is forbidden",
        ActorMatcher::except(actors.first().cloned()),
        Some(ActionKind::Read),
        FieldMatcher::Any,
    ));

    // Purpose limits: declared purposes, a narrow set, and an unknown one.
    policy.add_statement(Statement::purpose_limit(
        "P-known",
        "fields only for the generator's purposes",
        FieldMatcher::Any,
        ["collect", "disclose", "persist", "process"].map(|p| Purpose::new(p).unwrap()),
    ));
    policy.add_statement(Statement::purpose_limit(
        "P-narrow",
        "fields only for collection",
        fields.first().map_or(FieldMatcher::Any, |f| FieldMatcher::only([f.clone()])),
        [Purpose::new("collect").unwrap()],
    ));
    policy.add_statement(Statement::purpose_limit(
        "P-ghost",
        "a never-declared purpose",
        FieldMatcher::Any,
        [Purpose::new("ghost purpose").unwrap()],
    ));

    // Erasure: everything, a single field, an unknown field.
    policy.add_statement(Statement::require_erasure("E-any", "all erasable", FieldMatcher::Any));
    if let Some(field) = fields.first() {
        policy.add_statement(Statement::require_erasure(
            "E-one",
            "first field erasable",
            FieldMatcher::only([field.clone()]),
        ));
    }
    policy.add_statement(Statement::require_erasure(
        "E-ghost",
        "ghost field erasable",
        FieldMatcher::only([FieldId::new("GhostField")]),
    ));

    // Exposure bounds: tight and loose, plus an unknown field.
    for (i, field) in fields.iter().enumerate() {
        policy.add_statement(Statement::max_exposure(
            format!("M-{i}"),
            format!("{field} tightly bounded"),
            field.clone(),
            i % 2,
        ));
    }
    policy.add_statement(Statement::max_exposure(
        "M-ghost",
        "ghost field bounded",
        FieldId::new("GhostField"),
        0,
    ));

    // Service limits are always skipped by the LTS checker — include one to
    // pin the skip outcome.
    policy.add_statement(Statement::service_limit(
        "S-1",
        "fields stay in the first service",
        FieldMatcher::Any,
        [privacy_model::ServiceId::new("Service00")],
    ));

    policy
}

fn generate(seed: u64, actors: usize, fields: usize, potential_reads: bool) -> (Catalog, Lts) {
    let model_config =
        ModelGeneratorConfig { actors, fields, seed, ..ModelGeneratorConfig::default() };
    let (catalog, system, policy) = random_model(&model_config).expect("generated model is valid");
    let mut config = GeneratorConfig::default().with_max_states(20_000);
    config.explore_potential_reads = potential_reads;
    let lts = generate_lts(&catalog, &system, &policy, &config).expect("generation in bounds");
    (catalog, lts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn indexed_reports_equal_scan_reports_on_random_models(
        seed in 0u64..1_000_000,
        actors in 1usize..5,
        fields in 1usize..5,
        potential_reads in proptest::bool::ANY,
    ) {
        let (catalog, lts) = generate(seed, actors, fields, potential_reads);
        let policy = exercise_policy(&catalog);
        let indexed = check_lts(&lts, &policy);
        let scanned = check_lts_scan(&lts, &policy);
        prop_assert_eq!(indexed.render(), scanned.render());
        prop_assert_eq!(indexed, scanned);
    }

    #[test]
    fn batch_reports_equal_per_policy_scan_reports(
        seed in 0u64..1_000_000,
        threads in 1usize..5,
    ) {
        let (catalog, lts) = generate(seed, 3, 4, false);
        let full = exercise_policy(&catalog);
        // Split the exercise policy into single-statement policies so the
        // batch has many units to distribute.
        let policies: Vec<PrivacyPolicy> = full
            .iter()
            .map(|statement| PrivacyPolicy::new("unit").with_statement(statement.clone()))
            .collect();
        let index = LtsIndex::build(&lts);
        let batch = check_lts_batch_indexed(&lts, &index, &policies, Some(threads));
        let expected: Vec<ComplianceReport> =
            policies.iter().map(|policy| check_lts_scan(&lts, policy)).collect();
        prop_assert_eq!(render_all(&batch), render_all(&expected));
        prop_assert_eq!(batch, expected);
    }
}

fn render_all(reports: &[ComplianceReport]) -> Vec<String> {
    reports.iter().map(ComplianceReport::render).collect()
}

/// The batch API over one shared index of the healthcare case study, at 1,
/// 2 and 4 threads, equals per-policy scans: the full exercise policy (so a
/// report carries every violation kind), one policy per statement, and the
/// full policy again, whose reports share one statement handle across
/// threads.
#[test]
fn healthcare_batch_reports_equal_per_policy_scans_at_every_thread_count() {
    let system = casestudy::healthcare().unwrap();
    let lts = system.generate_lts().unwrap();
    let full = exercise_policy(system.catalog());
    let mut policies = vec![full.clone()];
    policies.extend(
        full.iter().map(|statement| PrivacyPolicy::new("unit").with_statement(statement.clone())),
    );
    policies.extend(std::iter::repeat_n(full, 4));
    let expected: Vec<ComplianceReport> =
        policies.iter().map(|policy| check_lts_scan(&lts, policy)).collect();
    assert!(expected[0].violation_count() > 0 && expected[0].skipped().count() == 1);
    let index = LtsIndex::build(&lts);
    for threads in [1, 2, 4] {
        let batch = check_lts_batch_indexed(&lts, &index, &policies, Some(threads));
        assert_eq!(render_all(&batch), render_all(&expected), "{threads} threads");
        assert_eq!(batch, expected, "{threads} threads");
    }
}
