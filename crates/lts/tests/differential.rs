//! Differential tests: the optimised compiled-flow engine against the
//! retained reference implementation, over seeded random `privacy-synth`
//! system models.
//!
//! The engine is required to agree with the reference on *everything* the
//! issue cares about — state counts, the transition multiset, the
//! deadlock/final states — and, because its merge phase is deterministic in
//! frontier order, on the stronger property of full LTS equality (identical
//! state numbering and transition order).

use privacy_lts::space::VarKind;
use privacy_lts::{
    generate_lts, generate_lts_reference, ActionKind, GeneratorConfig, Lts, LtsIndex, TransitionId,
};
use privacy_model::{ActorId, FieldId};
use privacy_synth::{random_model, ModelGeneratorConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The transition multiset of an LTS, as count-tagged rendered edges. Using
/// the privacy-state labels (not state ids) makes the comparison meaningful
/// even if the two implementations ever numbered states differently.
fn transition_multiset(lts: &Lts) -> BTreeMap<(String, String, String, bool), usize> {
    let space = lts.space();
    let mut multiset = BTreeMap::new();
    for (_, transition) in lts.transitions() {
        let key = (
            lts.state(transition.from()).short_label(space),
            lts.state(transition.to()).short_label(space),
            transition.label().to_string(),
            transition.is_risk_transition(),
        );
        *multiset.entry(key).or_insert(0) += 1;
    }
    multiset
}

/// The deadlock (no outgoing transition) states of an LTS, rendered.
fn deadlock_states(lts: &Lts) -> Vec<String> {
    let space = lts.space();
    let mut deadlocks: Vec<String> = lts
        .states()
        .filter(|(id, _)| lts.outgoing(*id).next().is_none())
        .map(|(_, state)| state.short_label(space))
        .collect();
    deadlocks.sort();
    deadlocks
}

fn assert_equivalent(engine: &Lts, reference: &Lts) {
    assert_eq!(engine.state_count(), reference.state_count(), "state counts diverge");
    assert_eq!(
        engine.transition_count(),
        reference.transition_count(),
        "transition counts diverge"
    );
    assert_eq!(
        transition_multiset(engine),
        transition_multiset(reference),
        "transition multisets diverge"
    );
    assert_eq!(deadlock_states(engine), deadlock_states(reference), "deadlock states diverge");
    // The engine's deterministic merge makes the stronger guarantee hold too.
    assert_eq!(engine, reference, "full LTS equality diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_matches_reference_on_random_models(
        actors in 1usize..5,
        fields in 1usize..5,
        datastores in 1usize..4,
        services in 1usize..4,
        flows in 1usize..6,
        seed in 0u64..1_000_000,
        potential_reads in proptest::bool::ANY,
        interleave in proptest::bool::ANY,
        threads in 1usize..5,
    ) {
        let model_config = ModelGeneratorConfig {
            actors,
            fields,
            datastores,
            services,
            flows_per_service: flows,
            seed,
            ..ModelGeneratorConfig::default()
        };
        let (catalog, system, policy) =
            random_model(&model_config).expect("generated model is valid");

        let mut config = GeneratorConfig::default().with_max_states(50_000);
        config.explore_potential_reads = potential_reads;
        config.interleave_services = interleave;
        config.threads = Some(threads);

        let engine = generate_lts(&catalog, &system, &policy, &config);
        let reference = generate_lts_reference(&catalog, &system, &policy, &config);
        match (engine, reference) {
            (Ok(engine), Ok(reference)) => assert_equivalent(&engine, &reference),
            (Err(engine_err), Err(reference_err)) => {
                // Both may hit the state bound — then they must fail alike.
                prop_assert_eq!(engine_err.to_string(), reference_err.to_string());
            }
            (engine, reference) => {
                return Err(TestCaseError::fail(format!(
                    "implementations disagree: engine {:?} vs reference {:?}",
                    engine.map(|l| l.stats().to_string()),
                    reference.map(|l| l.stats().to_string()),
                )));
            }
        }
    }

    #[test]
    fn engine_matches_reference_under_tight_state_bounds(
        seed in 0u64..1_000_000,
        max_states in 1usize..40,
    ) {
        let (catalog, system, policy) =
            random_model(&ModelGeneratorConfig::default().with_seed(seed))
                .expect("generated model is valid");
        let config = GeneratorConfig::default()
            .with_potential_reads()
            .with_max_states(max_states);
        let engine = generate_lts(&catalog, &system, &policy, &config);
        let reference = generate_lts_reference(&catalog, &system, &policy, &config);
        match (engine, reference) {
            (Ok(engine), Ok(reference)) => assert_equivalent(&engine, &reference),
            (Err(engine_err), Err(reference_err)) => {
                prop_assert_eq!(engine_err.to_string(), reference_err.to_string());
            }
            _ => return Err(TestCaseError::fail("one implementation hit the bound alone")),
        }
    }
}

/// Deliberately larger fixed-seed models, outside the proptest loop so their
/// runtime stays visible in test output. Some seeds collapse onto a handful
/// of privacy states, so the size assertion is on the batch, not per seed.
#[test]
fn engine_matches_reference_on_larger_models() {
    let mut total_states = 0usize;
    for seed in 0..6 {
        let model_config = ModelGeneratorConfig {
            actors: 5,
            fields: 6,
            datastores: 2,
            services: 2,
            flows_per_service: 6,
            grant_probability: 0.3,
            seed,
            ..ModelGeneratorConfig::default()
        };
        let (catalog, system, policy) = random_model(&model_config).expect("model builds");
        let config = GeneratorConfig::default().with_potential_reads().with_max_states(500_000);
        let engine = generate_lts(&catalog, &system, &policy, &config).expect("engine generates");
        let reference = generate_lts_reference(&catalog, &system, &policy, &config)
            .expect("reference generates");
        assert_equivalent(&engine, &reference);
        total_states += engine.state_count();
    }
    assert!(total_states > 100, "explorations stayed trivial: {total_states} states in total");
}

/// Structural equality over every observable surface of two analysis
/// indexes — columns, posting lists, covers, CSR adjacency, reachability
/// and per-variable state postings.
fn assert_index_equivalent(a: &LtsIndex, b: &LtsIndex) {
    assert_eq!(a.transition_count(), b.transition_count());
    assert_eq!(a.actors(), b.actors(), "actor interner order diverges");
    assert_eq!(a.fields(), b.fields(), "field interner order diverges");
    assert_eq!(a.reachable(), b.reachable());
    for tx in 0..a.transition_count() as u32 {
        assert_eq!(a.action_of(tx), b.action_of(tx));
        assert_eq!(a.actor_of(tx), b.actor_of(tx));
        assert_eq!(a.purpose_of(tx), b.purpose_of(tx));
        assert_eq!(a.has_fields(tx), b.has_fields(tx));
    }
    for action in ActionKind::ALL {
        assert_eq!(a.transitions_of_kind(action), b.transitions_of_kind(action));
    }
    for actor in a.actors().to_vec() {
        assert_eq!(a.transitions_by_actor(&actor), b.transitions_by_actor(&actor));
        for action in ActionKind::ALL {
            assert_eq!(
                a.transitions_by_actor_of_kind(&actor, action),
                b.transitions_by_actor_of_kind(&actor, action)
            );
        }
    }
    for field in a.fields().to_vec() {
        assert_eq!(a.transitions_involving_field(&field), b.transitions_involving_field(&field));
        for action in ActionKind::ALL {
            assert_eq!(a.kind_covers_field(action, &field), b.kind_covers_field(action, &field));
        }
    }
    for state in a.reachable().to_vec() {
        assert_eq!(a.outgoing_transitions(state), b.outgoing_transitions(state));
    }
    let space = a.space().clone();
    assert_eq!(&space, b.space());
    for actor in space.actors() {
        for field in space.fields() {
            for kind in [VarKind::Has, VarKind::Could] {
                assert_eq!(
                    a.states_of_variable(actor, field, kind),
                    b.states_of_variable(actor, field, kind)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded column/posting pass of the index build must reproduce the
    /// single-threaded build exactly, for every shard count — including shard
    /// counts that leave some shards empty.
    #[test]
    fn sharded_index_build_matches_sequential_build_on_random_models(
        actors in 1usize..5,
        fields in 1usize..5,
        seed in 0u64..1_000_000,
        potential_reads in proptest::bool::ANY,
        threads in 2usize..9,
    ) {
        let model_config = ModelGeneratorConfig {
            actors,
            fields,
            seed,
            ..ModelGeneratorConfig::default()
        };
        let (catalog, system, policy) =
            random_model(&model_config).expect("generated model is valid");
        let mut config = GeneratorConfig::default().with_max_states(20_000);
        config.explore_potential_reads = potential_reads;
        let lts = generate_lts(&catalog, &system, &policy, &config)
            .expect("generation in bounds");

        let sequential = LtsIndex::build_with_threads(&lts, Some(1));
        let sharded = LtsIndex::build_with_threads(&lts, Some(threads));
        assert_index_equivalent(&sequential, &sharded);
        // The default (auto-threaded) build resolves to the same index too.
        assert_index_equivalent(&sequential, &LtsIndex::build(&lts));
    }
}

/// The label-scan oracle of [`LtsIndex::reads_involving`]: every `read`
/// transition by `actor` whose label involves `field`, ascending.
fn scanned_reads(lts: &Lts, actor: &ActorId, field: &FieldId) -> Vec<TransitionId> {
    lts.transitions()
        .filter(|(_, t)| {
            t.label().action() == ActionKind::Read
                && t.label().actor() == actor
                && t.label().involves_field(field)
        })
        .map(|(id, _)| id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The per-(actor, field) read memo equals a label scan for every pair
    /// of the vocabulary, is empty for identifiers the index never saw, and
    /// reads the same on a clone and on an index built with any shard count.
    #[test]
    fn memoised_read_lists_equal_a_label_scan_on_random_models(
        actors in 1usize..5,
        fields in 1usize..5,
        seed in 0u64..1_000_000,
        potential_reads in proptest::bool::ANY,
        threads in 1usize..5,
    ) {
        let model_config = ModelGeneratorConfig {
            actors,
            fields,
            seed,
            ..ModelGeneratorConfig::default()
        };
        let (catalog, system, policy) =
            random_model(&model_config).expect("generated model is valid");
        let mut config = GeneratorConfig::default().with_max_states(20_000);
        config.explore_potential_reads = potential_reads;
        let lts = generate_lts(&catalog, &system, &policy, &config)
            .expect("generation in bounds");

        let index = LtsIndex::build(&lts);
        // A clone taken cold fills its own memo; one taken warm shares the
        // lists already filled.
        let cold_clone = index.clone();
        let sharded = LtsIndex::build_with_threads(&lts, Some(threads));
        for actor in index.actors().to_vec() {
            for field in index.fields().to_vec() {
                let expected = scanned_reads(&lts, &actor, &field);
                prop_assert_eq!(&*index.reads_involving(&actor, &field), expected.as_slice());
                prop_assert_eq!(&*cold_clone.reads_involving(&actor, &field), expected.as_slice());
                prop_assert_eq!(&*sharded.reads_involving(&actor, &field), expected.as_slice());
            }
        }
        let warm_clone = index.clone();
        for actor in index.actors().to_vec() {
            for field in index.fields().to_vec() {
                prop_assert_eq!(
                    warm_clone.reads_involving(&actor, &field),
                    index.reads_involving(&actor, &field)
                );
            }
            prop_assert!(index.reads_involving(&actor, &FieldId::new("Unknown")).is_empty());
        }
        for field in index.fields().to_vec() {
            prop_assert!(index.reads_involving(&ActorId::new("Unknown"), &field).is_empty());
        }
    }
}
