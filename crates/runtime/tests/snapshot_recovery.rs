//! Crash-recovery property tests for the indexed monitor: a snapshot taken
//! at an *arbitrary* cut point of the stream, serialized, deserialized and
//! resumed — possibly on a different thread count — must continue exactly
//! where the uninterrupted run would be: the same alerts (pending alerts
//! included), the same per-user privacy states, bit for bit.
//!
//! The robustness half pins the failure behaviour: truncated, bit-flipped,
//! wrong-version, wrong-kind and wrong-fingerprint snapshot bytes must all
//! surface as *typed* errors — never a panic, never a silent resume over
//! misread state.

use privacy_interchange::binary::{CodecError, Encoder};
use privacy_lts::{generate_lts, ActionKind, GeneratorConfig, LtsIndex};
use privacy_model::{DatastoreId, FieldId, Record, UserId};
use privacy_runtime::snapshot::{SNAPSHOT_KIND, SNAPSHOT_VERSION, SNAPSHOT_VERSION_V2};
use privacy_runtime::{
    shard_of_user, Event, IndexedMonitor, MonitorSnapshot, ServiceEngine, SnapshotError,
};
use privacy_synth::{
    random_model, random_profiles, random_workload, ModelGeneratorConfig, ProfileGeneratorConfig,
    WorkloadConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Uniform pick from a non-empty slice.
fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

struct Fixture {
    catalog: privacy_model::Catalog,
    policy: privacy_access::AccessPolicy,
    index: Arc<LtsIndex>,
    users: Vec<privacy_model::UserProfile>,
    events: Vec<Event>,
}

/// Builds a random model, an engine-produced event stream plus a raw
/// synthetic tail (the `indexed_monitor_differential` fixture shape), and a
/// user population of which all but the last member is registered.
fn fixture(seed: u64, actors: usize, fields: usize, raw_events: usize) -> Fixture {
    fixture_sized(seed, actors, fields, raw_events, 6)
}

/// [`fixture`] with `user_count` users in the population.
fn fixture_sized(
    seed: u64,
    actors: usize,
    fields: usize,
    raw_events: usize,
    user_count: usize,
) -> Fixture {
    let config = ModelGeneratorConfig { actors, fields, seed, ..ModelGeneratorConfig::default() };
    let (catalog, dataflows, policy) = random_model(&config).expect("generated model is valid");
    let lts = generate_lts(
        &catalog,
        &dataflows,
        &policy,
        &GeneratorConfig::default().with_max_states(20_000),
    )
    .expect("generation in bounds");
    let index = Arc::new(LtsIndex::build(&lts));

    let services: Vec<_> = catalog.services().map(|s| s.id().clone()).collect();
    let field_ids: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let users = random_profiles(&ProfileGeneratorConfig {
        count: user_count,
        seed,
        services: services.clone(),
        consent_probability: 0.5,
        fields: field_ids.clone(),
        sensitivity_probability: 0.7,
    });

    let mut engine = ServiceEngine::new(catalog.clone(), dataflows, policy.clone());
    let workload = random_workload(&WorkloadConfig {
        length: 40,
        seed,
        users: users.iter().map(|u| u.id().clone()).collect(),
        services: services.iter().map(|s| (s.clone(), 1.0)).collect(),
    });
    for request in &workload {
        let record = field_ids
            .iter()
            .fold(Record::new(), |record, field| record.with(field.clone(), format!("v-{field}")));
        let _ = engine.execute(request.user(), request.service(), &record);
    }
    let mut events: Vec<Event> = engine.log().events().to_vec();

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
    let mut actor_pool: Vec<String> =
        catalog.identifying_actors().map(|a| a.id().as_str().to_owned()).collect();
    actor_pool.push("GhostActor".to_owned());
    let mut field_pool = field_ids.clone();
    field_pool.push(FieldId::new("GhostField"));
    let mut store_pool: Vec<DatastoreId> = catalog.datastores().map(|d| d.id().clone()).collect();
    store_pool.push(DatastoreId::new("GhostStore"));
    let mut user_pool: Vec<UserId> = users.iter().map(|u| u.id().clone()).collect();
    user_pool.push(UserId::new("unregistered-user"));
    let actions = [
        ActionKind::Collect,
        ActionKind::Create,
        ActionKind::Read,
        ActionKind::Disclose,
        ActionKind::Anon,
        ActionKind::Delete,
    ];
    let next_sequence = events.len() as u64;
    for offset in 0..raw_events {
        let action = *pick(&mut rng, &actions);
        let field_count = rng.gen_range(0..3usize);
        let fields: Vec<FieldId> =
            (0..field_count).map(|_| pick(&mut rng, &field_pool).clone()).collect();
        let datastore =
            if rng.gen_bool(0.8) { Some(pick(&mut rng, &store_pool).clone()) } else { None };
        events.push(Event::new(
            next_sequence + offset as u64,
            pick(&mut rng, &user_pool).clone(),
            "SyntheticService",
            pick(&mut rng, &actor_pool).as_str(),
            action,
            fields,
            datastore,
            rng.gen_bool(0.85),
        ));
    }

    Fixture { catalog, policy, index, users, events }
}

/// A registered monitor over the fixture's model.
fn monitor_over(fixture: &Fixture) -> IndexedMonitor {
    let mut monitor = IndexedMonitor::new(
        fixture.catalog.clone(),
        fixture.policy.clone(),
        Arc::clone(&fixture.index),
    );
    for user in &fixture.users[..fixture.users.len() - 1] {
        monitor.register_user(user);
    }
    monitor
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sparse-encoded snapshot resume ≡ dense resume: for arbitrary cut
    /// points, resuming from the current sparse (v3) bytes and from the
    /// same state written densely as v2 yields identical monitors — same
    /// pending alerts, same tail alerts, same per-user states. This pins
    /// the sparse row encodings as a pure representation change.
    #[test]
    fn sparse_snapshot_resume_equals_dense_resume(
        seed in 0u64..1_000_000,
        actors in 1usize..5,
        fields in 1usize..5,
        raw_events in 0usize..40,
        cut_fraction in 0.0f64..=1.0,
    ) {
        let fixture = fixture(seed, actors, fields, raw_events);
        let cut = (((fixture.events.len() as f64) * cut_fraction) as usize)
            .min(fixture.events.len());

        let mut first_life = monitor_over(&fixture);
        let _ = first_life.ingest_batch(&fixture.events[..cut]);
        let snapshot = first_life.snapshot();
        let sparse_bytes = snapshot.to_bytes();
        let dense_bytes = snapshot.to_bytes_at(SNAPSHOT_VERSION_V2);
        prop_assert!(sparse_bytes.len() <= dense_bytes.len(),
            "sparse encoding ({}) larger than dense ({})", sparse_bytes.len(), dense_bytes.len());

        let resume = |bytes: &[u8]| -> Result<IndexedMonitor, SnapshotError> {
            IndexedMonitor::resume_from(
                fixture.catalog.clone(),
                fixture.policy.clone(),
                Arc::clone(&fixture.index),
                &MonitorSnapshot::from_bytes(bytes)?,
            )
        };
        let mut from_sparse = resume(&sparse_bytes).expect("sparse bytes resume");
        let mut from_dense = resume(&dense_bytes).expect("dense bytes resume");
        prop_assert_eq!(from_sparse.alerts(), from_dense.alerts());
        let sparse_tail = from_sparse.ingest_batch(&fixture.events[cut..]);
        let dense_tail = from_dense.ingest_batch(&fixture.events[cut..]);
        prop_assert_eq!(&sparse_tail, &dense_tail);
        prop_assert_eq!(from_sparse.user_count(), from_dense.user_count());
        for user in &fixture.users {
            prop_assert_eq!(from_sparse.state_of(user.id()), from_dense.state_of(user.id()));
        }
    }

    /// The headline recovery property: snapshot → serialize → resume →
    /// ingest tail ≡ one uninterrupted run, for arbitrary cut points and
    /// independent snapshot/resume thread counts. Pending (undrained)
    /// alerts survive the restart.
    #[test]
    fn snapshot_resume_ingest_tail_equals_uninterrupted_run(
        seed in 0u64..1_000_000,
        actors in 1usize..5,
        fields in 1usize..5,
        raw_events in 0usize..40,
        cut_fraction in 0.0f64..=1.0,
        snapshot_threads in 1usize..=4,
        resume_threads in 1usize..=4,
    ) {
        let fixture = fixture(seed, actors, fields, raw_events);
        let cut = ((fixture.events.len() as f64) * cut_fraction) as usize;
        let cut = cut.min(fixture.events.len());

        let mut uninterrupted = monitor_over(&fixture);
        let full_alerts = uninterrupted.ingest_batch(&fixture.events);

        // Run to the cut (deliberately without draining: pending alerts are
        // part of the persisted state) and snapshot.
        let mut first_life = monitor_over(&fixture).with_threads(Some(snapshot_threads));
        let prefix_alerts = first_life.ingest_batch(&fixture.events[..cut]);
        let snapshot = first_life.snapshot();
        let bytes = snapshot.to_bytes();

        // The byte round-trip is exact.
        let decoded = MonitorSnapshot::from_bytes(&bytes).expect("own bytes decode");
        prop_assert_eq!(&decoded, &snapshot);

        // Shard-split export merges back into the same snapshot.
        let merged = MonitorSnapshot::merge(&snapshot.split(3)).expect("own parts merge");
        prop_assert_eq!(&merged, &snapshot);

        // Second life: resume on an unrelated thread count, ingest the tail.
        let mut second_life = IndexedMonitor::resume_from(
            fixture.catalog.clone(),
            fixture.policy.clone(),
            Arc::clone(&fixture.index),
            &decoded,
        )
        .expect("matching index resumes")
        .with_threads(Some(resume_threads));
        prop_assert_eq!(second_life.alerts(), &prefix_alerts[..]);
        let tail_alerts = second_life.ingest_batch(&fixture.events[cut..]);

        let mut recovered = prefix_alerts;
        recovered.extend(tail_alerts);
        prop_assert_eq!(&recovered, &full_alerts);
        prop_assert_eq!(second_life.alerts(), &full_alerts[..]);
        prop_assert_eq!(second_life.user_count(), uninterrupted.user_count());
        for user in &fixture.users {
            prop_assert_eq!(second_life.state_of(user.id()), uninterrupted.state_of(user.id()));
        }
    }
}

/// Snapshot at t=4 must rehydrate at t=1 and t=2 (the shard assignment is a
/// stable user-id hash, never a function of the ingestion parallelism).
#[test]
fn snapshot_at_four_threads_rehydrates_at_one_and_two() {
    let fixture = fixture(42, 3, 3, 24);
    let cut = fixture.events.len() / 2;

    let mut uninterrupted = monitor_over(&fixture);
    let full_alerts = uninterrupted.ingest_batch(&fixture.events);

    let mut at_four = monitor_over(&fixture).with_threads(Some(4));
    let prefix_alerts = at_four.ingest_batch(&fixture.events[..cut]);
    let bytes = at_four.snapshot().to_bytes();

    for resume_threads in [1usize, 2] {
        let snapshot = MonitorSnapshot::from_bytes(&bytes).expect("own bytes decode");
        let mut resumed = IndexedMonitor::resume_from(
            fixture.catalog.clone(),
            fixture.policy.clone(),
            Arc::clone(&fixture.index),
            &snapshot,
        )
        .expect("matching index resumes")
        .with_threads(Some(resume_threads));
        let tail = resumed.ingest_batch(&fixture.events[cut..]);
        let mut recovered = prefix_alerts.clone();
        recovered.extend(tail);
        assert_eq!(recovered, full_alerts, "t=4 → t={resume_threads} recovery diverges");
        for user in &fixture.users {
            assert_eq!(resumed.state_of(user.id()), uninterrupted.state_of(user.id()));
        }
    }
}

/// Monitor configuration is a construction-time input, not persisted state:
/// re-applying the first life's non-default configuration after a resume
/// reproduces the uninterrupted run exactly (the builders only affect how
/// future events alert, never the restored state).
#[test]
fn resuming_with_reapplied_configuration_matches_uninterrupted_run() {
    use privacy_model::RiskLevel;
    let fixture = fixture(77, 3, 3, 24);
    let cut = fixture.events.len() / 2;

    // A Low threshold surfaces strictly more alerts than the default
    // Medium, so a resume that silently fell back to defaults would lose
    // alerts on the tail.
    let mut uninterrupted = monitor_over(&fixture).with_alert_threshold(RiskLevel::Low);
    let full_alerts = uninterrupted.ingest_batch(&fixture.events);

    let mut first_life = monitor_over(&fixture).with_alert_threshold(RiskLevel::Low);
    let prefix_alerts = first_life.ingest_batch(&fixture.events[..cut]);
    let bytes = first_life.snapshot().to_bytes();

    let snapshot = MonitorSnapshot::from_bytes(&bytes).expect("own bytes decode");
    let mut second_life = IndexedMonitor::resume_from(
        fixture.catalog.clone(),
        fixture.policy.clone(),
        Arc::clone(&fixture.index),
        &snapshot,
    )
    .expect("matching index resumes")
    .with_alert_threshold(RiskLevel::Low); // same configuration as the first life
    let tail_alerts = second_life.ingest_batch(&fixture.events[cut..]);

    let mut recovered = prefix_alerts;
    recovered.extend(tail_alerts);
    assert_eq!(recovered, full_alerts);
    for user in &fixture.users {
        assert_eq!(second_life.state_of(user.id()), uninterrupted.state_of(user.id()));
    }
}

/// A small fixture whose snapshot is a few hundred bytes, so exhaustive
/// corruption sweeps stay fast.
fn small_snapshot() -> (Fixture, Vec<u8>) {
    let fixture = fixture(7, 2, 2, 12);
    let mut monitor = monitor_over(&fixture);
    let _ = monitor.ingest_batch(&fixture.events);
    let bytes = monitor.snapshot().to_bytes();
    (fixture, bytes)
}

#[test]
fn truncated_snapshot_bytes_return_typed_errors_at_every_length() {
    let (_, bytes) = small_snapshot();
    for len in 0..bytes.len() {
        match MonitorSnapshot::from_bytes(&bytes[..len]) {
            Err(SnapshotError::Codec(_)) => {}
            Err(other) => panic!("prefix of {len} bytes produced a non-codec error: {other}"),
            Ok(_) => panic!("prefix of {len} bytes decoded successfully"),
        }
    }
}

#[test]
fn bit_flipped_snapshot_bytes_never_resume_silently() {
    let (_, bytes) = small_snapshot();
    for position in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[position] ^= 1 << bit;
            assert!(
                MonitorSnapshot::from_bytes(&flipped).is_err(),
                "flipping bit {bit} of byte {position} went undetected"
            );
        }
    }
}

/// Cross-version recovery: a monitor that crashed while the fleet ran the
/// dense v2 format resumes from its v2 snapshot under this build, ingests
/// the stream tail, and matches the uninterrupted run exactly — then writes
/// v3 from its next snapshot on. Named for the repo-lint version-bump
/// guard: bumping `SNAPSHOT_VERSION` again requires a test like this one
/// naming the outgoing version.
#[test]
fn snapshot_v2_dense_frames_still_decode_and_resume() {
    let fixture = fixture(91, 3, 3, 24);
    let cut = fixture.events.len() / 2;

    let mut uninterrupted = monitor_over(&fixture);
    let full_alerts = uninterrupted.ingest_batch(&fixture.events);

    let mut first_life = monitor_over(&fixture);
    let prefix_alerts = first_life.ingest_batch(&fixture.events[..cut]);
    let snapshot = first_life.snapshot();
    let v2_bytes = snapshot.to_bytes_at(SNAPSHOT_VERSION_V2);

    // The v2 frame decodes into exactly the snapshot the v3 bytes carry.
    let decoded = MonitorSnapshot::from_bytes(&v2_bytes).expect("v2 frame decodes");
    assert_eq!(decoded, snapshot);
    // …and its re-serialization is the (smaller) v3 form, not v2.
    assert_eq!(decoded.to_bytes(), snapshot.to_bytes());

    let mut resumed = IndexedMonitor::resume_from(
        fixture.catalog.clone(),
        fixture.policy.clone(),
        Arc::clone(&fixture.index),
        &decoded,
    )
    .expect("v2 snapshot resumes");
    assert_eq!(resumed.alerts(), &prefix_alerts[..]);
    let tail_alerts = resumed.ingest_batch(&fixture.events[cut..]);
    let mut recovered = prefix_alerts;
    recovered.extend(tail_alerts);
    assert_eq!(recovered, full_alerts, "v2 → v3 cross-version recovery diverges");
    for user in &fixture.users {
        assert_eq!(resumed.state_of(user.id()), uninterrupted.state_of(user.id()));
    }

    // The v2 corruption guarantees hold through the fallback path too.
    for len in 0..v2_bytes.len() {
        assert!(MonitorSnapshot::from_bytes(&v2_bytes[..len]).is_err(), "v2 prefix {len} decoded");
    }
    for position in 0..v2_bytes.len() {
        for bit in 0..8 {
            let mut flipped = v2_bytes.clone();
            flipped[position] ^= 1 << bit;
            assert!(
                MonitorSnapshot::from_bytes(&flipped).is_err(),
                "flipping bit {bit} of v2 byte {position} went undetected"
            );
        }
    }
}

#[test]
fn wrong_version_and_wrong_kind_frames_are_rejected() {
    // A well-formed frame of a future snapshot version…
    let future = Encoder::new(SNAPSHOT_KIND, SNAPSHOT_VERSION + 1).finish();
    match MonitorSnapshot::from_bytes(&future) {
        Err(SnapshotError::Codec(CodecError::UnsupportedVersion { found, supported })) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("future version produced {other:?}"),
    }
    // A version-1 frame is ancient history: only v2 has a fallback decoder.
    let ancient = Encoder::new(SNAPSHOT_KIND, 1).finish();
    assert!(matches!(
        MonitorSnapshot::from_bytes(&ancient),
        Err(SnapshotError::Codec(CodecError::UnsupportedVersion { found: 1, .. }))
    ));
    // …and a well-formed frame of some other artefact kind.
    let alien = Encoder::new(*b"OTHR", SNAPSHOT_VERSION).finish();
    assert!(matches!(
        MonitorSnapshot::from_bytes(&alien),
        Err(SnapshotError::Codec(CodecError::BadMagic { .. }))
    ));
    // Garbage that is not even a frame.
    assert!(MonitorSnapshot::from_bytes(b"not a snapshot").is_err());
    assert!(MonitorSnapshot::from_bytes(&[]).is_err());
}

#[test]
fn snapshot_of_one_model_is_rejected_against_another_index() {
    let (fixture_a, bytes) = small_snapshot();
    let fixture_b = fixture(1234, 3, 4, 0);
    assert_ne!(fixture_a.index.fingerprint(), fixture_b.index.fingerprint());

    let snapshot = MonitorSnapshot::from_bytes(&bytes).expect("own bytes decode");
    match IndexedMonitor::resume_from(
        fixture_b.catalog.clone(),
        fixture_b.policy.clone(),
        Arc::clone(&fixture_b.index),
        &snapshot,
    ) {
        Err(SnapshotError::IndexMismatch { snapshot: recorded, index }) => {
            assert_eq!(recorded, fixture_a.index.fingerprint());
            assert_eq!(index, fixture_b.index.fingerprint());
        }
        Ok(_) => panic!("mismatched index resumed silently"),
        Err(other) => panic!("mismatched index produced {other}"),
    }
}

#[test]
fn merge_rejects_mixed_fingerprints_and_duplicate_shards() {
    let (fixture_a, bytes_a) = small_snapshot();
    let snapshot_a = MonitorSnapshot::from_bytes(&bytes_a).expect("decodes");

    // Mixed fingerprints are refused.
    let fixture_b = fixture(1234, 3, 4, 0);
    let mut monitor_b = monitor_over(&fixture_b);
    let _ = monitor_b.ingest_batch(&fixture_b.events);
    let snapshot_b = monitor_b.snapshot();
    assert!(matches!(
        MonitorSnapshot::merge(&[snapshot_a.clone(), snapshot_b]),
        Err(SnapshotError::IndexMismatch { .. })
    ));

    // A shard exported twice is refused.
    assert!(matches!(
        MonitorSnapshot::merge(&[snapshot_a.clone(), snapshot_a.clone()]),
        Err(SnapshotError::Malformed { .. })
    ));

    // An empty part list is refused.
    assert!(matches!(MonitorSnapshot::merge(&[]), Err(SnapshotError::Malformed { .. })));

    let _ = fixture_a;
}

/// The healthcare case study with a population and event stream built from
/// arithmetic alone — no RNG, no generator crates — so every build derives
/// the same inputs: users with a mix of consents and sensitivities, and
/// events of every action kind (some denied, some for an unregistered
/// user, some naming fields or stores outside the model).
fn healthcare_population(users: usize, events: usize) -> Fixture {
    use privacy_model::{Sensitivity, UserProfile};
    let system = privacy_core::casestudy::healthcare().expect("case study builds");
    let index = Arc::new(LtsIndex::build(&system.generate_lts().expect("case study generates")));
    let catalog = system.catalog().clone();
    let services: Vec<_> = catalog.services().map(|s| s.id().clone()).collect();
    let mut fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let mut stores: Vec<DatastoreId> = catalog.datastores().map(|d| d.id().clone()).collect();
    let palette = [0.25, 0.5, 0.75, 1.0];
    let profiles: Vec<UserProfile> = (0..users)
        .map(|u| {
            let mut profile = UserProfile::new(format!("patient-{u:05}"));
            for (s, service) in services.iter().enumerate() {
                if (u >> s) & 1 == 1 {
                    profile = profile.consents_to(service.clone());
                }
            }
            for (f, field) in fields.iter().enumerate() {
                if (u + f) % 3 == 0 {
                    let value = palette[(u * 7 + f) % palette.len()];
                    profile = profile.with_sensitivity(
                        field.clone(),
                        Sensitivity::new(value).expect("in range"),
                    );
                }
            }
            profile
        })
        .collect();
    let actors: Vec<String> = index.actors().iter().map(|a| a.as_str().to_owned()).collect();
    fields.push(FieldId::new("GhostField"));
    stores.push(DatastoreId::new("GhostStore"));
    let actions = [
        ActionKind::Collect,
        ActionKind::Create,
        ActionKind::Read,
        ActionKind::Disclose,
        ActionKind::Anon,
        ActionKind::Delete,
    ];
    let stream = (0..events)
        .map(|i| {
            let user = if i % 97 == 0 {
                UserId::new("unregistered-user")
            } else {
                profiles[(i * 7919) % users].id().clone()
            };
            let picked: Vec<FieldId> =
                (0..1 + i % 3).map(|k| fields[(i * 5 + k * 3) % fields.len()].clone()).collect();
            Event::new(
                i as u64,
                user,
                "HealthcareService",
                actors[(i * 3) % actors.len()].as_str(),
                actions[(i / 2) % actions.len()],
                picked,
                (i % 5 != 0).then(|| stores[i % stores.len()].clone()),
                i % 11 != 0,
            )
        })
        .collect();
    Fixture { catalog, policy: system.policy().clone(), index, users: profiles, events: stream }
}

/// The population's registered monitor, all users registered.
fn population_monitor(population: &Fixture) -> IndexedMonitor {
    let mut monitor = IndexedMonitor::new(
        population.catalog.clone(),
        population.policy.clone(),
        Arc::clone(&population.index),
    );
    for user in &population.users {
        monitor.register_user(user);
    }
    monitor
}

/// The fixture's shape: 300 users and 2,000 events; alerts are drained
/// after the first 1,450 events and the snapshot is taken after 1,500, so
/// the alerts of the last 50 are pending in it.
const FIXTURE_USERS: usize = 300;
const FIXTURE_EVENTS: usize = 2_000;
const FIXTURE_DRAINED: usize = 1_450;
const FIXTURE_CUT: usize = 1_500;

/// The population's monitor at the fixture's cut. With `warm`, a snapshot
/// is taken before each of its three batches, so the final capture splices
/// into a cached body.
fn fixture_monitor(population: &Fixture, warm: bool) -> IndexedMonitor {
    let mut monitor = population_monitor(population);
    let bounds = [0, FIXTURE_DRAINED / 3, FIXTURE_DRAINED, FIXTURE_CUT];
    for pair in bounds.windows(2) {
        if warm {
            let _ = monitor.snapshot();
        }
        let _ = monitor.ingest_batch(&population.events[pair[0]..pair[1]]);
        if pair[1] == FIXTURE_DRAINED {
            let _ = monitor.drain_alerts();
        }
    }
    monitor
}

/// A v3 snapshot written by the from-scratch capture path that predates
/// incremental capture (commit `1cde5c6`), for `fixture_monitor(&
/// healthcare_population(300, 2_000), false)`.
const SNAPSHOT_V3_FIXTURE: &[u8] = include_bytes!("fixtures/snapshot_v3_healthcare.bin");

/// Cross-build compatibility: a checkpoint written before incremental
/// capture decodes, re-serializes to the same bytes and resumes into the
/// uninterrupted run; and this build, replaying the same operations,
/// writes exactly those bytes — cold, warm, and after a resume — so
/// checkpoints cross the change in both directions.
#[test]
fn snapshot_v3_fixture_from_before_incremental_capture_round_trips_byte_identically() {
    let population = healthcare_population(FIXTURE_USERS, FIXTURE_EVENTS);
    let decoded = MonitorSnapshot::from_bytes(SNAPSHOT_V3_FIXTURE).expect("fixture decodes");
    assert_eq!(decoded.user_count(), FIXTURE_USERS);
    assert!(decoded.shards().len() > 1, "the fixture spans several shards");
    assert!(!decoded.pending_alerts().is_empty(), "the fixture carries pending alerts");
    assert_eq!(decoded.to_bytes(), SNAPSHOT_V3_FIXTURE, "re-serialization is byte-identical");

    // This build writes the same bytes for the same state: a cold first
    // capture, and a warm capture after an earlier one.
    let cold = fixture_monitor(&population, false);
    assert_eq!(cold.snapshot().to_bytes(), SNAPSHOT_V3_FIXTURE, "cold capture differs");
    let warm = fixture_monitor(&population, true);
    assert_eq!(warm.snapshot().to_bytes(), SNAPSHOT_V3_FIXTURE, "warm capture differs");

    // The fixture resumes, captures itself back, and continues exactly
    // where the uninterrupted run goes.
    let mut resumed = IndexedMonitor::resume_from(
        population.catalog.clone(),
        population.policy.clone(),
        Arc::clone(&population.index),
        &decoded,
    )
    .expect("fixture resumes");
    assert_eq!(resumed.snapshot().to_bytes(), SNAPSHOT_V3_FIXTURE, "resumed capture differs");
    let mut uninterrupted = population_monitor(&population);
    let full_alerts = uninterrupted.ingest_batch(&population.events);
    let tail_alerts = resumed.ingest_batch(&population.events[FIXTURE_CUT..]);
    let mut recovered = decoded.pending_alerts().to_vec();
    recovered.extend(tail_alerts);
    let pending_from = full_alerts
        .iter()
        .position(|alert| alert.sequence() >= FIXTURE_DRAINED as u64)
        .unwrap_or(full_alerts.len());
    assert_eq!(recovered, full_alerts[pending_from..], "resume from the fixture diverges");
    for user in &population.users {
        assert_eq!(resumed.state_of(user.id()), uninterrupted.state_of(user.id()));
    }
    // Pending alerts differ (the fixture's were drained once), the user
    // rows do not.
    assert_eq!(resumed.snapshot().shards(), uninterrupted.snapshot().shards());
}

/// One step of the warm-vs-cold capture differential.
#[derive(Debug, Clone)]
enum Op {
    /// Register (or re-register, resetting) the fixture user at this index.
    Register(usize),
    /// `observe` the event at this index.
    Observe(usize),
    /// `ingest_batch` of an event range at a thread count.
    Batch(usize, usize, usize),
    /// `absorb` these shards of the donor's snapshot.
    Absorb(Vec<u32>),
    /// `remove_shard_users` of one shard.
    RemoveShard(u32),
    /// Serialize, deserialize and resume (the warm side only: a resume
    /// leaves the state as it was, so the cold replay skips it).
    Resume,
    /// Compare the warm capture against a cold replay.
    Cut,
}

/// A seeded random operation sequence over the fixture's users and
/// events, always ending in a cut. Shard operations pick shards some user
/// lives on, so they touch state.
fn random_ops(seed: u64, fixture: &Fixture, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f0b5);
    let (users, events) = (fixture.users.len(), fixture.events.len());
    let user_shard = |rng: &mut StdRng| shard_of_user(pick(rng, &fixture.users).id());
    let mut ops: Vec<Op> = (0..len)
        .map(|_| match rng.gen_range(0..16u32) {
            0 | 1 => Op::Register(rng.gen_range(0..users)),
            2 | 3 if events > 0 => Op::Observe(rng.gen_range(0..events)),
            4..=7 if events > 0 => {
                let start = rng.gen_range(0..events);
                let end = rng.gen_range(start..=events);
                Op::Batch(start, end, if rng.gen_bool(0.5) { 1 } else { 4 })
            }
            8 => Op::Absorb((0..rng.gen_range(1..4)).map(|_| user_shard(&mut rng)).collect()),
            9 => Op::RemoveShard(user_shard(&mut rng)),
            10 => Op::Resume,
            _ => Op::Cut,
        })
        .collect();
    ops.push(Op::Cut);
    ops
}

/// Applies every state-changing operation (everything but `Resume` and
/// `Cut`) to `monitor`.
fn apply(
    mut monitor: IndexedMonitor,
    op: &Op,
    fixture: &Fixture,
    donor: &MonitorSnapshot,
) -> IndexedMonitor {
    match op {
        Op::Register(user) => monitor.register_user(&fixture.users[*user]),
        Op::Observe(event) => {
            let _ = monitor.observe(&fixture.events[*event]);
        }
        Op::Batch(start, end, threads) => {
            monitor = monitor.with_threads(Some(*threads));
            let _ = monitor.ingest_batch(&fixture.events[*start..*end]);
        }
        Op::Absorb(shards) => {
            monitor.absorb(&donor.extract_shards(shards)).expect("same index absorbs");
        }
        Op::RemoveShard(shard) => {
            let _ = monitor.remove_shard_users(*shard);
        }
        Op::Resume | Op::Cut => {}
    }
    monitor
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Incremental capture is a pure optimisation: at every cut of a random
    /// mix of registration, `observe`, `ingest_batch` at 1 and 4 threads,
    /// `absorb`, `remove_shard_users` and resume, a long-lived monitor
    /// (its capture cache warm from every earlier cut) serializes exactly
    /// the bytes of a monitor that replayed the same operations and
    /// captures for the first time. Split→merge and per-shard extract of
    /// the warm snapshot reproduce the same shard bodies and bytes.
    #[test]
    fn warm_capture_equals_cold_capture_at_every_cut(
        seed in 0u64..1_000_000,
        actors in 1usize..5,
        fields in 1usize..5,
        raw_events in 0usize..120,
        users in 8usize..48,
        len in 1usize..40,
    ) {
        let fixture = fixture_sized(seed, actors, fields, raw_events, users);
        let ops = random_ops(seed, &fixture, len);
        let mut donor = IndexedMonitor::new(
            fixture.catalog.clone(),
            fixture.policy.clone(),
            Arc::clone(&fixture.index),
        );
        for user in fixture.users.iter().rev().step_by(2) {
            donor.register_user(user);
        }
        let _ = donor.ingest_batch(&fixture.events[fixture.events.len() / 2..]);
        let donor = donor.snapshot();

        let mut warm = monitor_over(&fixture);
        // The previous cut's capture and its bytes at the time: a capture
        // must stay immutable while the monitor moves on, because the
        // checkpoint writer encodes it on another thread.
        let mut held: Option<(MonitorSnapshot, Vec<u8>)> = None;
        for (at, op) in ops.iter().enumerate() {
            match op {
                Op::Resume => {
                    let bytes = warm.snapshot().to_bytes();
                    warm = IndexedMonitor::resume_from(
                        fixture.catalog.clone(),
                        fixture.policy.clone(),
                        Arc::clone(&fixture.index),
                        &MonitorSnapshot::from_bytes(&bytes).expect("own bytes decode"),
                    )
                    .expect("own snapshot resumes");
                }
                Op::Cut => {
                    let snapshot = warm.snapshot();
                    let warm_bytes = snapshot.to_bytes();
                    if let Some((earlier, earlier_bytes)) = held.take() {
                        prop_assert!(
                            earlier.to_bytes() == earlier_bytes,
                            "a capture held across ops changed before cut {at} of {ops:?}"
                        );
                    }
                    let cold = ops[..at]
                        .iter()
                        .fold(monitor_over(&fixture), |cold, op| apply(cold, op, &fixture, &donor));
                    let cold_bytes = cold.snapshot().to_bytes();
                    prop_assert!(warm_bytes == cold_bytes, "warm capture diverged at op {at} of {ops:?}");

                    for parts in [2, 5] {
                        let merged = MonitorSnapshot::merge(&snapshot.split(parts))
                            .expect("own parts merge");
                        prop_assert_eq!(&merged.to_bytes(), &warm_bytes);
                    }
                    let extracted: Vec<MonitorSnapshot> = snapshot
                        .shards()
                        .iter()
                        .map(|shard| snapshot.extract_shards(&[shard.shard()]))
                        .collect();
                    for part in &extracted {
                        let round_trip = MonitorSnapshot::from_bytes(&part.to_bytes())
                            .expect("extracted part decodes");
                        prop_assert_eq!(&round_trip, part);
                    }
                    if !extracted.is_empty() {
                        let merged = MonitorSnapshot::merge(&extracted).expect("extracts merge");
                        prop_assert_eq!(merged.shards(), snapshot.shards());
                    }
                    held = Some((snapshot, warm_bytes));
                }
                op => warm = apply(warm, op, &fixture, &donor),
            }
        }
    }
}
