//! Differential tests: the optimised compiled-flow engine against the
//! retained reference implementation, over seeded random `privacy-synth`
//! system models.
//!
//! The engine is required to agree with the reference on *everything* the
//! issue cares about — state counts, the transition multiset, the
//! deadlock/final states — and, because its merge phase is deterministic in
//! frontier order, on the stronger property of full LTS equality (identical
//! state numbering and transition order).

use privacy_access::{AccessControlList, AccessPolicy, Grant};
use privacy_dataflow::{DiagramBuilder, SystemDataFlows};
use privacy_lts::index::LabelMerge;
use privacy_lts::space::VarKind;
use privacy_lts::{
    generate_lts, generate_lts_reference, ActionKind, FxHasher, GeneratorConfig, Lts, LtsBuilder,
    LtsIndex, PrivacyState, RiskAnnotation, StateId, TransitionId, TransitionLabel,
};
use privacy_model::{
    Actor, ActorId, Catalog, DataField, DataSchema, DatastoreDecl, FieldId, RiskLevel, ServiceDecl,
};
use privacy_synth::{random_model, ModelGeneratorConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

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

/// A model whose privacy state stops changing after the first read: one
/// reader, one field, and three services of fifteen reads each, every read
/// with its own purpose. Every progress combination but the initial one
/// carries the same privacy state, so 4,095 composite nodes share it and
/// re-emit its 45 distinct self-loops, more than the engine's dedup scan
/// bound (32) before that state is half explored.
fn hub_state_model() -> (Catalog, SystemDataFlows, AccessPolicy) {
    let mut catalog = Catalog::new();
    catalog.add_actor(Actor::data_subject("Patient")).unwrap();
    catalog.add_actor(Actor::role("Clerk")).unwrap();
    catalog.add_field(DataField::sensitive("Record")).unwrap();
    catalog.add_schema(DataSchema::new("RecordSchema", [FieldId::new("Record")])).unwrap();
    catalog.add_datastore(DatastoreDecl::new("Archive", "RecordSchema")).unwrap();
    let mut system = SystemDataFlows::new();
    for service in 0..3 {
        let name = format!("Audit{service}");
        catalog.add_service(ServiceDecl::new(name.as_str(), [ActorId::new("Clerk")])).unwrap();
        let mut diagram = DiagramBuilder::new(name.as_str());
        for step in 0..15u32 {
            let purpose = format!("audit {service}.{step}");
            diagram = diagram.read("Clerk", "Archive", ["Record"], purpose, step + 1).unwrap();
        }
        system = system.with_diagram(diagram.build()).unwrap();
    }
    let acl = AccessControlList::new().with_grant(Grant::read_all("Clerk", "Archive"));
    (catalog, system, AccessPolicy::from_parts(acl, Default::default()))
}

#[test]
fn engine_matches_reference_on_a_hub_state() {
    let (catalog, system, policy) = hub_state_model();
    let config = GeneratorConfig::default();
    let engine = generate_lts(&catalog, &system, &policy, &config).expect("engine generates");
    let reference =
        generate_lts_reference(&catalog, &system, &policy, &config).expect("reference generates");
    assert_equivalent(&engine, &reference);
    // The initial state and the one the first read reaches.
    assert_eq!(engine.state_count(), 2);
    // Three first reads leave the initial state; all 45 reads loop on the
    // hub, once each.
    assert_eq!(engine.transition_count(), 3 + 45);
    let hub = engine.transition(TransitionId(0)).to();
    assert_eq!(engine.outgoing(hub).count(), 45);
    assert!(engine.outgoing(hub).all(|(_, transition)| transition.to() == hub));
}

/// Holds every probe of `index` against a scan of `lts.transitions()`:
/// the vocabulary and the fingerprint, the label table, label-group
/// selections with their emptiness and field covers, and the per-variable
/// state lists.
fn assert_index_matches_label_scan(lts: &Lts, index: &LtsIndex) {
    let space = lts.space();
    assert_eq!(index.transition_count(), lts.transition_count());

    // The vocabulary: the space's, then each label's in transition order.
    let mut actors: Vec<ActorId> = space.actors().to_vec();
    let mut fields: Vec<FieldId> = space.fields().to_vec();
    for (_, transition) in lts.transitions() {
        let label = transition.label();
        if !actors.contains(label.actor()) {
            actors.push(label.actor().clone());
        }
        for field in label.fields() {
            if !fields.contains(field) {
                fields.push(field.clone());
            }
        }
    }
    assert_eq!(index.actors(), actors.as_slice(), "actor interner order diverges");
    assert_eq!(index.fields(), fields.as_slice(), "field interner order diverges");
    let mut hasher = FxHasher::default();
    space.fingerprint().hash(&mut hasher);
    actors.len().hash(&mut hasher);
    actors.iter().for_each(|actor| actor.hash(&mut hasher));
    fields.len().hash(&mut hasher);
    fields.iter().for_each(|field| field.hash(&mut hasher));
    assert_eq!(index.fingerprint(), hasher.finish(), "fingerprint diverges");

    // The label table: every label some transition carries, once each.
    let labels: Vec<&TransitionLabel> = index.labels().collect();
    for (i, label) in labels.iter().enumerate() {
        assert!(!labels[..i].contains(label), "label {label} listed twice");
        assert!(lts.transitions().any(|(_, t)| t.label() == *label), "{label} labels nothing");
    }
    assert!(lts.transitions().all(|(_, t)| labels.contains(&t.label())));

    // Selections: each equals the scan, in ascending transition order, both
    // one-shot and through one merge reused across all of them; its
    // emptiness equals an OR over the label table, and its field cover the
    // fields its transitions involve. Whole kinds, actors and fields, every
    // other label and every label span several label groups, so the merge's
    // interleaving is held against the scan.
    let mut merge = LabelMerge::default();
    let mut select = |what: &str, keep: &dyn Fn(&TransitionLabel) -> bool| {
        let scanned: Vec<TransitionId> =
            lts.transitions().filter(|(_, t)| keep(t.label())).map(|(id, _)| id).collect();
        let merged: Vec<TransitionId> = index.transitions_where(keep).collect();
        assert_eq!(merged, scanned, "{what}: one-shot merge diverges");
        let reused: Vec<TransitionId> = merge.select(index, keep).collect();
        assert_eq!(reused, scanned, "{what}: reused merge diverges");
        assert_eq!(index.labels().any(keep), !scanned.is_empty(), "{what}: emptiness diverges");
        let cover = index.fields_where(keep);
        for (f, field) in fields.iter().enumerate() {
            let scanned =
                lts.transitions().any(|(_, t)| keep(t.label()) && t.label().involves_field(field));
            assert_eq!(cover[f / 64] >> (f % 64) & 1 == 1, scanned, "{what}: cover of {field}");
        }
    };
    select("every label", &|_| true);
    select("no label", &|_| false);
    let alternate: Vec<&TransitionLabel> = labels.iter().copied().step_by(2).collect();
    select("every other label", &|label| alternate.contains(&label));
    select("labels with a purpose", &|label| label.purpose().is_some());
    select("labels without fields", &|label| label.fields().is_empty());
    let ghost_actor = ActorId::new("Ghost");
    let ghost_field = FieldId::new("Ghost");
    for action in ActionKind::ALL {
        select(&format!("{action}"), &|label| label.action() == action);
        for actor in actors.iter().chain([&ghost_actor]) {
            select(&format!("{action} by {actor}"), &|label| {
                label.action() == action && label.actor() == actor
            });
        }
        for field in fields.iter().chain([&ghost_field]) {
            select(&format!("{action} of {field}"), &|label| {
                label.action() == action && label.involves_field(field)
            });
        }
    }
    for actor in actors.iter().chain([&ghost_actor]) {
        select(&format!("by {actor}"), &|label| label.actor() == actor);
    }
    for field in fields.iter().chain([&ghost_field]) {
        select(&format!("of {field}"), &|label| label.involves_field(field));
    }

    // The per-variable state lists, in reachable order.
    let reachable = lts.reachable();
    for actor in space.actors() {
        for field in space.fields() {
            let holds = |state: StateId, kind: VarKind| match kind {
                VarKind::Has => lts.state(state).has(space, actor, field),
                VarKind::Could => lts.state(state).could(space, actor, field),
            };
            for kind in [VarKind::Has, VarKind::Could] {
                let scanned: Vec<StateId> =
                    reachable.iter().copied().filter(|&state| holds(state, kind)).collect();
                assert_eq!(index.states_of_variable(actor, field, kind), scanned.as_slice());
                assert_eq!(index.count_states_of_variable(actor, field, kind), scanned.len());
            }
        }
    }
}

/// A random model's LTS, generated by the engine and by the reference
/// implementation.
fn random_pair(actors: usize, fields: usize, seed: u64, potential_reads: bool) -> (Lts, Lts) {
    let model_config =
        ModelGeneratorConfig { actors, fields, seed, ..ModelGeneratorConfig::default() };
    let (catalog, system, policy) = random_model(&model_config).expect("generated model is valid");
    let mut config = GeneratorConfig::default().with_max_states(20_000);
    config.explore_potential_reads = potential_reads;
    let engine = generate_lts(&catalog, &system, &policy, &config).expect("generation in bounds");
    let reference =
        generate_lts_reference(&catalog, &system, &policy, &config).expect("generation in bounds");
    (engine, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The index oracle: every probe and label-group selection of an index
    /// equals a label scan of the LTS it was built from, with and without
    /// potential reads.
    #[test]
    fn index_probes_equal_a_label_scan_on_random_models(
        actors in 1usize..5,
        fields in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        for potential_reads in [false, true] {
            let (lts, _) = random_pair(actors, fields, seed, potential_reads);
            assert_index_matches_label_scan(&lts, &LtsIndex::build(&lts));
        }
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
    /// reads the same on a clone.
    #[test]
    fn memoised_read_lists_equal_a_label_scan_on_random_models(
        actors in 1usize..5,
        fields in 1usize..5,
        seed in 0u64..1_000_000,
        potential_reads in proptest::bool::ANY,
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
        for actor in index.actors().to_vec() {
            for field in index.fields().to_vec() {
                let expected = scanned_reads(&lts, &actor, &field);
                prop_assert_eq!(&*index.reads_involving(&actor, &field), expected.as_slice());
                prop_assert_eq!(&*cold_clone.reads_involving(&actor, &field), expected.as_slice());
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

/// What [`edit_script`] appended.
#[derive(Debug, PartialEq)]
struct Edits {
    /// A state the base LTS lacks.
    fresh: StateId,
    /// Flow transitions into and out of `fresh`, in that order; the first
    /// is annotated.
    added: [TransitionId; 2],
    /// A risk-transition into `fresh`.
    risk: TransitionId,
    /// Two transitions that shared a label, of which only the first was
    /// annotated.
    shared: Option<(TransitionId, TransitionId)>,
}

/// One script through every entry point of a builder started from `base`:
/// `intern`, a duplicate `add_transition`, new transitions,
/// `add_risk_transition` and `annotate`. It reads only what two equal LTSs
/// agree on, and returns the built LTS with what it appended.
fn edit_script(base: &Lts) -> (Lts, Edits) {
    let mut builder = LtsBuilder::from_lts(base);
    let space = base.space().clone();
    let initial = builder.initial();
    let (actor, field) = (space.actors()[0].clone(), space.fields()[0].clone());

    // The state with the most variables true that the LTS lacks (the
    // spaces here have at most 32 variables).
    let len = space.variable_count();
    let all = u64::MAX >> (64 - len);
    let fresh_state = (0..=all)
        .map(|k| PrivacyState::from_words(vec![all & !k], len))
        .find(|candidate| base.states().all(|(_, state)| state != candidate))
        .expect("the LTS leaves some state of its space unreached");
    let states = base.state_count();
    let fresh = builder.intern(fresh_state.clone());
    assert_eq!(fresh, StateId(states));
    assert_eq!(builder.intern(fresh_state), fresh, "interning again finds the state");
    assert_eq!(builder.intern(PrivacyState::absolute(&space)), initial);

    let transitions = builder.transition_count();
    if transitions > 0 {
        let first = builder.transition(TransitionId(0));
        let (from, to, label) = (first.from(), first.to(), first.label().clone());
        assert_eq!(builder.add_transition(from, to, label), TransitionId(0), "a duplicate add");
        assert_eq!(builder.transition_count(), transitions);
    }
    // Two of the new labels name actors outside the space, so an index
    // built afterwards interns them from the labels.
    let delete =
        |actor: ActorId| TransitionLabel::new(ActionKind::Delete, actor, [field.clone()], None);
    let into = builder.add_transition(initial, fresh, delete(ActorId::new("Auditor")));
    let out_of = builder.add_transition(fresh, initial, delete(actor));
    let read = TransitionLabel::new(ActionKind::Read, "Intruder", [field.clone()], None);
    let risk = builder.add_risk_transition(fresh, fresh, read);
    assert_eq!((into.0, out_of.0, risk.0), (transitions, transitions + 1, transitions + 2));

    // Annotate one of two transitions that share a label.
    let mut first_with: BTreeMap<String, TransitionId> = BTreeMap::new();
    let shared = base.transitions().find_map(|(id, transition)| {
        let key = transition.label().to_string();
        first_with.get(&key).map(|first| (*first, id)).or_else(|| {
            first_with.insert(key, id);
            None
        })
    });
    if let Some((annotated, _)) = shared {
        builder.annotate(annotated, RiskAnnotation::level(RiskLevel::High));
    }
    // `into`'s label now has a higher id than `risk`'s, though `into`
    // comes first: the index must intern "Auditor" before "Intruder".
    builder.annotate(into, RiskAnnotation::level(RiskLevel::Medium));
    (builder.build(), Edits { fresh, added: [into, out_of], risk, shared })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Builders started from a generated LTS and from a reference-built
    /// one, given one script, build equal LTSs; the structural queries see
    /// the appended transitions; the base LTSs are unchanged and an index
    /// built over the base still equals a label scan of it; and an
    /// annotation reaches only the transition it names.
    #[test]
    fn builders_from_a_generated_and_a_reference_built_lts_build_equal_ltss(
        actors in 1usize..5,
        fields in 1usize..5,
        seed in 0u64..1_000_000,
        potential_reads in proptest::bool::ANY,
    ) {
        let (engine, reference) = random_pair(actors, fields, seed, potential_reads);
        let index = LtsIndex::build(&engine);
        let before = engine.stats();

        let (edited, edits) = edit_script(&engine);
        let (edited_reference, reference_edits) = edit_script(&reference);
        prop_assert_eq!(&reference_edits, &edits);
        prop_assert_eq!(&edited, &edited_reference);
        prop_assert_eq!(&engine, &reference);
        prop_assert_eq!(engine.stats(), before);
        assert_index_matches_label_scan(&engine, &index);

        let Edits { fresh, added: [into, out_of], risk, shared } = edits;
        let initial = edited.initial();
        prop_assert!(edited.outgoing(initial).any(|(id, _)| id == into));
        let leaving: Vec<TransitionId> = edited.outgoing(fresh).map(|(id, _)| id).collect();
        prop_assert_eq!(leaving, vec![out_of, risk]);
        prop_assert!(edited.reachable().contains(&fresh));
        let target = edited.state(fresh).clone();
        prop_assert_eq!(edited.path_to(|state| *state == target), Some(vec![into]));
        let after = edited.stats();
        prop_assert_eq!(after.states, before.states + 1);
        prop_assert_eq!(after.transitions, before.transitions + 3);
        prop_assert_eq!(after.risk_transitions, before.risk_transitions + 1);
        prop_assert!(edited.transition(risk).is_risk_transition());
        prop_assert!(!edited.transition(into).is_risk_transition());

        // Only the annotated transitions carry a risk.
        let annotated: Vec<TransitionId> = edited
            .transitions()
            .filter(|(_, t)| t.label().risk().is_some())
            .map(|(id, _)| id)
            .collect();
        let mut expected: Vec<TransitionId> = shared.iter().map(|(first, _)| *first).collect();
        expected.push(into);
        prop_assert_eq!(annotated, expected);
        if let Some((first, second)) = shared {
            let (first, second) = (edited.transition(first), edited.transition(second));
            let level = first.label().risk().map(RiskAnnotation::risk_level);
            prop_assert_eq!(level, Some(RiskLevel::High));
            prop_assert!(second.label().risk().is_none());
            prop_assert!(!std::sync::Arc::ptr_eq(first.shared_label(), second.shared_label()));
        }

        // An index built over the result sees the appended transitions.
        assert_index_matches_label_scan(&edited, &LtsIndex::build(&edited));
    }
}
