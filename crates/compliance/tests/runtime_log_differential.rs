//! Differential property tests: the indexed event-log checker against the
//! retained scan-path checker, over seeded random `privacy-synth` models
//! and random event streams.
//!
//! [`check_log`] (one `EventLogIndex` build, label-group probes per
//! statement) must agree with [`check_log_scan`] (every statement
//! re-walks the log) on everything: the same statements checked/skipped
//! and the same violations in the same order. Report equality compares
//! that structure (violations keep their facts and render on read), so
//! every comparison here also asserts the rendered texts are equal. The
//! streams mix engine
//! executions with raw synthetic events — deletes, denied attempts,
//! fieldless events, ghost identifiers — and the policies cover every
//! statement kind the log checker supports, with matchers that hit and
//! miss on purpose.

use privacy_compliance::{
    check_log, check_log_checkpointed, check_log_scan, ActorMatcher, AuditCheckpoint, AuditError,
    FieldMatcher, PrivacyPolicy, Statement,
};
use privacy_lts::ActionKind;
use privacy_model::{ActorId, Catalog, DatastoreId, FieldId, Record, ServiceId, UserId};
use privacy_runtime::{Event, EventLog, EventLogIndex, ServiceEngine};
use privacy_synth::{random_model, random_workload, ModelGeneratorConfig, WorkloadConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform pick from a non-empty slice.
fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// An event log mixing engine executions with a raw synthetic tail, plus
/// the catalog the exercised policies draw their vocabulary from.
fn random_log(seed: u64, raw_events: usize) -> (EventLog, Catalog) {
    let config =
        ModelGeneratorConfig { actors: 3, fields: 4, seed, ..ModelGeneratorConfig::default() };
    let (catalog, dataflows, policy) = random_model(&config).expect("generated model is valid");
    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();
    let field_ids: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let users: Vec<UserId> = (0..4).map(|i| UserId::new(format!("user-{i:02}"))).collect();

    let mut engine = ServiceEngine::new(catalog.clone(), dataflows, policy);
    let workload = random_workload(&WorkloadConfig {
        length: 30,
        seed,
        users: users.clone(),
        services: services.iter().map(|s| (s.clone(), 1.0)).collect(),
    });
    for request in &workload {
        let record = field_ids
            .iter()
            .fold(Record::new(), |record, field| record.with(field.clone(), format!("v-{field}")));
        let _ = engine.execute(request.user(), request.service(), &record);
    }

    let mut log = EventLog::new();
    log.extend(engine.log().events().to_vec());

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(3));
    let mut actor_pool: Vec<ActorId> =
        catalog.identifying_actors().map(|a| a.id().clone()).collect();
    actor_pool.push(ActorId::new("GhostActor"));
    let mut field_pool = field_ids.clone();
    field_pool.push(FieldId::new("GhostField"));
    let mut service_pool = services.clone();
    service_pool.push(ServiceId::new("GhostService"));
    let actions = ActionKind::ALL;
    let next_sequence = log.next_sequence();
    for offset in 0..raw_events {
        let field_count = rng.gen_range(0..3usize);
        let fields: Vec<FieldId> =
            (0..field_count).map(|_| pick(&mut rng, &field_pool).clone()).collect();
        log.append(Event::new(
            next_sequence + offset as u64,
            pick(&mut rng, &users).clone(),
            pick(&mut rng, &service_pool).clone(),
            pick(&mut rng, &actor_pool).clone(),
            *pick(&mut rng, &actions),
            fields,
            rng.gen_bool(0.75).then(|| DatastoreId::new("Store00")),
            rng.gen_bool(0.8),
        ));
    }
    (log, catalog)
}

/// A deterministic multi-statement policy stressing every statement kind
/// against the catalog's own vocabulary plus deliberately unknown
/// actors/fields/services.
fn exercise_policy(catalog: &Catalog) -> PrivacyPolicy {
    let actors: Vec<ActorId> = catalog.identifying_actors().map(|a| a.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();
    let mut policy = PrivacyPolicy::new("runtime-log differential exercise");

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
            format!("nobody performs {action} on the first field"),
            ActorMatcher::Any,
            Some(*action),
            fields.first().map_or(FieldMatcher::Any, |f| FieldMatcher::only([f.clone()])),
        ));
    }
    policy.add_statement(Statement::forbid(
        "F-ghost",
        "a ghost actor may do nothing",
        ActorMatcher::only([ActorId::new("NeverSeenActor")]),
        None,
        FieldMatcher::Any,
    ));
    policy.add_statement(Statement::forbid(
        "F-except",
        "everyone except the first actor is forbidden to read",
        ActorMatcher::except(actors.first().cloned()),
        Some(ActionKind::Read),
        FieldMatcher::Any,
    ));

    // Service limits: the first service only, every service, none.
    policy.add_statement(Statement::service_limit(
        "S-first",
        "fields stay in the first service",
        FieldMatcher::Any,
        services.first().cloned(),
    ));
    if let Some(field) = fields.first() {
        policy.add_statement(Statement::service_limit(
            "S-field",
            "the first field stays in the declared services",
            FieldMatcher::only([field.clone()]),
            services.iter().cloned(),
        ));
    }
    policy.add_statement(Statement::service_limit(
        "S-none",
        "a ghost field is never processed anywhere",
        FieldMatcher::only([FieldId::new("NeverSeenField")]),
        [] as [ServiceId; 0],
    ));

    // Purpose limits are always skipped by the log checker — pin the skip.
    policy.add_statement(Statement::purpose_limit(
        "P-1",
        "purpose limited",
        FieldMatcher::Any,
        [privacy_model::Purpose::new("treatment").unwrap()],
    ));

    // Erasure: everything, one field, an unknown field.
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
        FieldMatcher::only([FieldId::new("NeverSeenField")]),
    ));

    // Exposure bounds: tight and loose, plus an unknown field.
    for (i, field) in fields.iter().enumerate() {
        policy.add_statement(Statement::max_exposure(
            format!("M-{i}"),
            format!("{field} tightly bounded"),
            field.clone(),
            i % 3,
        ));
    }
    policy.add_statement(Statement::max_exposure(
        "M-ghost",
        "ghost field bounded",
        FieldId::new("NeverSeenField"),
        0,
    ));

    policy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn indexed_log_reports_equal_scan_reports_on_random_streams(
        seed in 0u64..1_000_000,
        raw_events in 0usize..60,
    ) {
        let (log, catalog) = random_log(seed, raw_events);
        let policy = exercise_policy(&catalog);
        let probed = check_log(&log, &policy);
        let scanned = check_log_scan(&log, &policy);
        prop_assert_eq!(probed.render(), scanned.render());
        prop_assert_eq!(probed, scanned);
    }

    #[test]
    fn one_index_build_serves_every_single_statement_policy(
        seed in 0u64..1_000_000,
    ) {
        let (log, catalog) = random_log(seed, 30);
        let full = exercise_policy(&catalog);
        let index = EventLogIndex::build(&log);
        for statement in full.iter() {
            let unit = PrivacyPolicy::new("unit").with_statement(statement.clone());
            let (probed, _) = check_log_checkpointed(&log, &index, &unit, None)
                .expect("a fresh index covers its log");
            let scanned = check_log_scan(&log, &unit);
            prop_assert_eq!(probed.render(), scanned.render());
            prop_assert_eq!(probed, scanned);
        }
    }

    /// The log split at two arbitrary cut points and fed to
    /// [`EventLogIndex::append`] segment by segment equals one from-scratch
    /// build over the whole log — every label group and erasure timeline
    /// (`EventLogIndex` equality is structural).
    #[test]
    fn appended_index_equals_from_scratch_build(
        seed in 0u64..1_000_000,
        raw_events in 0usize..60,
        cut_a in 0.0f64..=1.0,
        cut_b in 0.0f64..=1.0,
    ) {
        let (log, _) = random_log(seed, raw_events);
        let events = log.events();
        let mut cuts = [
            ((events.len() as f64) * cut_a) as usize,
            ((events.len() as f64) * cut_b) as usize,
        ];
        cuts.sort_unstable();
        let (first, second) = (cuts[0].min(events.len()), cuts[1].min(events.len()));

        let mut index = {
            let mut prefix = EventLog::new();
            prefix.extend(events[..first].iter().cloned());
            EventLogIndex::build(&prefix)
        };
        index.append(&events[first..second]);
        index.append(&events[second..]);
        prop_assert_eq!(index, EventLogIndex::build(&log));
    }

    /// A chain of checkpointed audits over the growing log — one
    /// `EventLogIndex::append` plus one `check_log_checkpointed` per period
    /// — reports exactly what a from-scratch `check_log_scan` over each
    /// prefix reports, at every period boundary.
    #[test]
    fn checkpointed_audit_chain_equals_scan_at_every_period(
        seed in 0u64..1_000_000,
        raw_events in 0usize..60,
        periods in 1usize..6,
    ) {
        let (log, catalog) = random_log(seed, raw_events);
        let policy = exercise_policy(&catalog);
        let events = log.events();
        let step = events.len().div_ceil(periods).max(1);

        let mut index = EventLogIndex::build(&EventLog::new());
        let mut checkpoint: Option<AuditCheckpoint> = None;
        let mut covered = 0usize;
        loop {
            let bound = (covered + step).min(events.len());
            index.append(&events[covered..bound]);
            covered = bound;
            let mut prefix = EventLog::new();
            prefix.extend(events[..bound].iter().cloned());
            let (report, next) =
                check_log_checkpointed(&prefix, &index, &policy, checkpoint.take())
                    .expect("audit invariants hold");
            let scanned = check_log_scan(&prefix, &policy);
            prop_assert_eq!(report.render(), scanned.render());
            prop_assert_eq!(&report, &scanned);
            prop_assert_eq!(next.events_checked(), bound);
            prop_assert_eq!(next.statement_count(), policy.len());
            checkpoint = Some(next);
            if covered == events.len() {
                break;
            }
        }
    }
}

/// Broken audit invariants surface as typed [`AuditError`]s, never as a
/// silently wrong report.
#[test]
fn checkpointed_audit_rejects_broken_invariants() {
    let (log, catalog) = random_log(9, 25);
    let policy = exercise_policy(&catalog);
    let index = EventLogIndex::build(&log);

    // An index lagging the log (caller forgot to append).
    let stale = {
        let mut prefix = EventLog::new();
        prefix.extend(log.events()[..log.len() / 2].iter().cloned());
        EventLogIndex::build(&prefix)
    };
    assert!(matches!(
        check_log_checkpointed(&log, &stale, &policy, None),
        Err(AuditError::IndexLagsLog { .. })
    ));

    // An index ahead of the log (a suffix appended twice, or the wrong log)
    // is the opposite direction and gets the opposite diagnosis.
    let half = {
        let mut prefix = EventLog::new();
        prefix.extend(log.events()[..log.len() / 2].iter().cloned());
        prefix
    };
    assert!(matches!(
        check_log_checkpointed(&half, &index, &policy, None),
        Err(AuditError::IndexAheadOfLog { .. })
    ));

    // A checkpoint ahead of the log (the append-only invariant broke).
    let (_, checkpoint) =
        check_log_checkpointed(&log, &index, &policy, None).expect("fresh audit runs");
    let shorter = {
        let mut prefix = EventLog::new();
        prefix.extend(log.events()[..log.len() / 2].iter().cloned());
        prefix
    };
    let shorter_index = EventLogIndex::build(&shorter);
    assert!(matches!(
        check_log_checkpointed(&shorter, &shorter_index, &policy, Some(checkpoint.clone())),
        Err(AuditError::CheckpointAheadOfLog { .. })
    ));

    // A checkpoint taken against a different policy.
    let other_policy = PrivacyPolicy::new("other").with_statement(Statement::forbid(
        "UNRELATED",
        "nobody does anything",
        ActorMatcher::Any,
        None,
        FieldMatcher::Any,
    ));
    assert!(matches!(
        check_log_checkpointed(&log, &index, &other_policy, Some(checkpoint.clone())),
        Err(AuditError::PolicyMismatch { .. })
    ));
    // Same statement count but a different id also mismatches.
    let mut renamed: Vec<Statement> = policy.iter().cloned().collect();
    if let Some(first) = renamed.first_mut() {
        *first = Statement::forbid(
            "RENAMED",
            "renamed statement",
            ActorMatcher::Any,
            None,
            FieldMatcher::Any,
        );
    }
    let renamed_policy =
        renamed.into_iter().fold(PrivacyPolicy::new("renamed"), |p, s| p.with_statement(s));
    assert!(matches!(
        check_log_checkpointed(&log, &index, &renamed_policy, Some(checkpoint)),
        Err(AuditError::PolicyMismatch { .. })
    ));

    // Same ids but an edited statement: `F1` forbade Doctor reads when the
    // checkpoint was taken and forbids Nurse reads now, so the carried
    // violations belong to another statement.
    let reads_by = |actor: &str| {
        PrivacyPolicy::new("reads").with_statement(Statement::forbid(
            "F1",
            "no reads",
            ActorMatcher::only([ActorId::new(actor)]),
            Some(ActionKind::Read),
            FieldMatcher::Any,
        ))
    };
    let (_, doctor_checkpoint) =
        check_log_checkpointed(&log, &index, &reads_by("Doctor"), None).expect("fresh audit runs");
    match check_log_checkpointed(&log, &index, &reads_by("Nurse"), Some(doctor_checkpoint)) {
        Err(AuditError::PolicyMismatch { detail }) => assert!(detail.contains("`F1`"), "{detail}"),
        other => panic!("an edited statement must mismatch, got {other:?}"),
    }
}
