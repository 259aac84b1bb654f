//! Differential property tests: the index-backed streaming monitor against
//! the retained scan-path monitor, over seeded random `privacy-synth`
//! system models and random event streams.
//!
//! The [`IndexedMonitor`] must agree with [`RuntimeMonitor`] on
//! *everything*: the same alerts, in the same order, with the same rendered
//! messages and risk levels — for every ingestion thread count — and the
//! same per-user privacy state afterwards. The streams exercised here mix
//! real engine executions with raw synthetic events (deletes, denied
//! attempts, unregistered users, ghost actors/fields/stores, fieldless
//! events) so every resolution edge case is hit.

use privacy_lts::{generate_lts, ActionKind, GeneratorConfig, LtsIndex, VarSpace};
use privacy_model::{DatastoreId, FieldId, Record, UserId};
use privacy_runtime::monitor::RuntimeMonitor;
use privacy_runtime::{Event, IndexedMonitor, ServiceEngine};
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

/// Builds a random model, an engine-produced event stream plus a raw
/// synthetic tail, and the user population (half of which is registered).
fn fixture(seed: u64, actors: usize, fields: usize, raw_events: usize) -> Fixture {
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
        count: 6,
        seed,
        services: services.clone(),
        consent_probability: 0.5,
        fields: field_ids.clone(),
        sensitivity_probability: 0.7,
    });

    // Real events: replay a workload through the service engine.
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

    // Raw tail: synthetic events stressing the resolution edge cases.
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
        let field_count = rng.gen_range(0..3usize); // 0, 1 or 2 fields
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

struct Fixture {
    catalog: privacy_model::Catalog,
    policy: privacy_access::AccessPolicy,
    index: Arc<LtsIndex>,
    users: Vec<privacy_model::UserProfile>,
    events: Vec<Event>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn indexed_alerts_equal_scan_alerts_for_every_thread_count(
        seed in 0u64..1_000_000,
        actors in 1usize..5,
        fields in 1usize..5,
        raw_events in 0usize..40,
    ) {
        let fixture = fixture(seed, actors, fields, raw_events);
        let space = VarSpace::from_catalog(&fixture.catalog);

        let mut scan =
            RuntimeMonitor::new(fixture.catalog.clone(), fixture.policy.clone());
        // Register all but the last user, so some stream users are unknown.
        for user in &fixture.users[..fixture.users.len() - 1] {
            scan.register_user(user);
        }
        let scan_alerts = scan.observe_all(&fixture.events);

        for threads in 1usize..=4 {
            let mut indexed = IndexedMonitor::new(
                fixture.catalog.clone(),
                fixture.policy.clone(),
                Arc::clone(&fixture.index),
            )
            .with_threads(Some(threads));
            for user in &fixture.users[..fixture.users.len() - 1] {
                indexed.register_user(user);
            }
            let batch_alerts = indexed.ingest_batch(&fixture.events).to_vec();
            prop_assert_eq!(&scan_alerts, &batch_alerts);
            prop_assert_eq!(scan.alerts(), indexed.alerts());
            prop_assert_eq!(scan.user_count(), indexed.user_count());
            // The tracked per-user privacy states agree bit-for-bit.
            for user in &fixture.users {
                let scan_state = scan.state_of(user.id());
                let indexed_state = indexed.state_of(user.id());
                prop_assert_eq!(scan_state.is_some(), indexed_state.is_some());
                if let (Some(expected), Some(actual)) = (scan_state, indexed_state) {
                    prop_assert_eq!(expected, &actual);
                }
            }
            // Event-by-event streaming through `observe` matches batching.
            let mut streaming = IndexedMonitor::new(
                fixture.catalog.clone(),
                fixture.policy.clone(),
                Arc::clone(&fixture.index),
            );
            for user in &fixture.users[..fixture.users.len() - 1] {
                streaming.register_user(user);
            }
            let mut streamed = Vec::new();
            for event in &fixture.events {
                streamed.extend_from_slice(streaming.observe(event));
            }
            prop_assert_eq!(&scan_alerts, &streamed);
            prop_assert_eq!(indexed.drain_alerts(), streamed);
            prop_assert!(indexed.alerts().is_empty());
        }
        // The monitor space and the index space describe the same layout.
        prop_assert_eq!(fixture.index.space(), &space);
    }

    /// Users who have seen no event are held encoded by the indexed
    /// monitor; reading them (`state_of`, `is_registered`, `user_count`)
    /// must still answer exactly as the scan monitor does — before any
    /// event, after a re-registration, and after a stream prefix that
    /// touches only some of them.
    #[test]
    fn untouched_users_read_like_the_scan_monitor(
        seed in 0u64..1_000_000,
        actors in 1usize..5,
        fields in 1usize..5,
        raw_events in 0usize..40,
        prefix in 0usize..60,
        reregistered in 0usize..5,
    ) {
        let fixture = fixture(seed, actors, fields, raw_events);
        let registered = &fixture.users[..fixture.users.len() - 1];
        let mut scan = RuntimeMonitor::new(fixture.catalog.clone(), fixture.policy.clone());
        let mut indexed = IndexedMonitor::new(
            fixture.catalog.clone(),
            fixture.policy.clone(),
            Arc::clone(&fixture.index),
        );
        let agree = |scan: &RuntimeMonitor,
                     indexed: &IndexedMonitor,
                     when: &str|
         -> Result<(), TestCaseError> {
            prop_assert!(
                scan.user_count() == indexed.user_count(),
                "user count {when}: scan {}, indexed {}",
                scan.user_count(),
                indexed.user_count()
            );
            for user in &fixture.users {
                let expected = scan.state_of(user.id()).cloned();
                let id = user.id();
                prop_assert!(
                    expected.is_some() == indexed.is_registered(id),
                    "registration of {id} {when}"
                );
                prop_assert!(expected == indexed.state_of(id), "state of {id} {when}");
            }
            Ok(())
        };
        for user in registered {
            scan.register_user(user);
            indexed.register_user(user);
        }
        agree(&scan, &indexed, "before any event")?;
        let events = &fixture.events[..prefix.min(fixture.events.len())];
        let _ = scan.observe_all(events);
        let _ = indexed.ingest_batch(events);
        agree(&scan, &indexed, "after a prefix")?;
        let user = &registered[reregistered % registered.len()];
        scan.register_user(user);
        indexed.register_user(user);
        agree(&scan, &indexed, "after a re-registration")?;
        let rest = &fixture.events[events.len()..];
        prop_assert_eq!(scan.observe_all(rest), indexed.ingest_batch(rest));
        agree(&scan, &indexed, "after the whole stream")?;
    }
}

/// Registration one user at a time behind an `is_registered` check, as the
/// shard worker registers (or an `activate` check, as the first-sight sink
/// does), over a population large enough that every shard holds many more
/// pending rows than a lookup scans: interleaved events, re-registrations
/// and reads must still answer exactly as the scan monitor does.
#[test]
fn checked_registration_of_a_large_population_reads_like_the_scan_monitor() {
    let fixture = fixture(17, 3, 3, 0);
    let services: Vec<_> = fixture.catalog.services().map(|s| s.id().clone()).collect();
    let fields: Vec<FieldId> = fixture.catalog.fields().map(|f| f.id().clone()).collect();
    let users = random_profiles(&ProfileGeneratorConfig {
        count: 2_000,
        seed: 17,
        services,
        consent_probability: 0.5,
        fields: fields.clone(),
        sensitivity_probability: 0.7,
    });
    let actors: Vec<String> =
        fixture.catalog.identifying_actors().map(|a| a.id().as_str().to_owned()).collect();
    let mut rng = StdRng::seed_from_u64(17);
    let mut scan = RuntimeMonitor::new(fixture.catalog.clone(), fixture.policy.clone());
    let mut indexed = IndexedMonitor::new(
        fixture.catalog.clone(),
        fixture.policy.clone(),
        Arc::clone(&fixture.index),
    );
    let mut sequence = 0u64;
    for (i, user) in users.iter().enumerate() {
        let check = |indexed: &mut IndexedMonitor| {
            if i % 2 == 0 {
                indexed.is_registered(user.id())
            } else {
                indexed.activate(user.id())
            }
        };
        assert!(!check(&mut indexed), "{} before registration", user.id());
        scan.register_user(user);
        indexed.register_user(user);
        assert!(check(&mut indexed), "{} after registration", user.id());
        if i % 7 == 0 {
            // An event for an earlier user, and re-registration of another.
            let target = pick(&mut rng, &users[..=i]).id().clone();
            let event = Event::new(
                sequence,
                target,
                "SyntheticService",
                pick(&mut rng, &actors).as_str(),
                ActionKind::Collect,
                vec![pick(&mut rng, &fields).clone()],
                None,
                true,
            );
            sequence += 1;
            assert_eq!(scan.observe(&event), indexed.observe(&event));
            let again = pick(&mut rng, &users[..=i]);
            scan.register_user(again);
            indexed.register_user(again);
        }
    }
    assert_eq!(scan.user_count(), indexed.user_count());
    for user in &users {
        assert_eq!(scan.state_of(user.id()).cloned(), indexed.state_of(user.id()), "{}", user.id());
    }
}
