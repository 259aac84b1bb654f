//! Synthetic whole-system models (catalog + data flows + access policy).
//!
//! The LTS engine's differential tests and the scaling benchmarks need many
//! structurally diverse system models, far more than the single healthcare
//! case study of the paper. [`random_model`] generates seeded random models:
//! a catalog of actors/fields/schemas/datastores/services, one data-flow
//! diagram per service with random collect/disclose/create/read flows, and a
//! random ACL. Generation is deterministic given a seed, and every generated
//! model is valid by construction (non-empty field sets, no self-loop flows,
//! unique identifiers).

use privacy_access::{AccessControlList, AccessPolicy, FieldScope, Grant, Permission};
use privacy_dataflow::{DiagramBuilder, SystemDataFlows};
use privacy_model::{
    Actor, ActorId, Catalog, DataField, DataSchema, DatastoreDecl, DatastoreId, FieldId,
    ModelError, ServiceDecl, ServiceId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the random system-model generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGeneratorConfig {
    /// Number of identifying actors (a data subject is always added too).
    pub actors: usize,
    /// Number of data fields.
    pub fields: usize,
    /// Number of datastores (each with its own schema).
    pub datastores: usize,
    /// Number of services (each with its own data-flow diagram).
    pub services: usize,
    /// Number of flows per service diagram.
    pub flows_per_service: usize,
    /// Probability that a datastore is declared anonymised.
    pub anonymised_probability: f64,
    /// Probability that any given (actor, datastore) pair receives an ACL
    /// grant.
    pub grant_probability: f64,
    /// Random seed; equal seeds and configurations produce identical models.
    pub seed: u64,
}

impl Default for ModelGeneratorConfig {
    fn default() -> Self {
        ModelGeneratorConfig {
            actors: 3,
            fields: 4,
            datastores: 2,
            services: 2,
            flows_per_service: 4,
            anonymised_probability: 0.25,
            grant_probability: 0.5,
            seed: 42,
        }
    }
}

impl ModelGeneratorConfig {
    /// A configuration scaled to `actors` × `fields` with defaults elsewhere.
    pub fn scaled(actors: usize, fields: usize) -> Self {
        ModelGeneratorConfig { actors, fields, ..ModelGeneratorConfig::default() }
    }

    /// Builder-style: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A configuration whose **per-event evaluation cost** grows with
    /// `weight` (≥ 1): more actors and fields mean more candidate
    /// `(actor, field)` exposure pairs per monitored event, more flows mean
    /// wider per-event field lists, and a generous grant probability keeps
    /// the reader tables dense. Weight 1 is close to the default model;
    /// each extra weight step adds actors and fields linearly, so the
    /// pair-candidate work per event grows roughly quadratically while the
    /// state space stays small enough for the LTS generator (workers
    /// rebuild the LTS on every spawn).
    ///
    /// This is the knob the transport-crossover benchmark sweeps: it
    /// changes how much computation one shipped event buys, without
    /// changing the wire format or event count.
    pub fn heavy_evaluation(weight: usize) -> Self {
        let weight = weight.max(1);
        ModelGeneratorConfig {
            actors: 3 + 2 * weight,
            fields: 4 + 2 * weight,
            datastores: 2,
            services: 2 + weight.min(4),
            flows_per_service: 4 + weight,
            anonymised_probability: 0.25,
            grant_probability: 0.7,
            seed: 42,
        }
    }
}

/// A generated system model: the three artefacts the LTS generator consumes.
pub type GeneratedModel = (Catalog, SystemDataFlows, AccessPolicy);

/// Generates a seeded random system model.
///
/// # Errors
///
/// Returns a [`ModelError`] only if the generator itself produces an
/// inconsistent model (a bug, covered by the round-trip tests below).
pub fn random_model(config: &ModelGeneratorConfig) -> Result<GeneratedModel, ModelError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let actors = config.actors.max(1);
    let fields = config.fields.max(1);
    let datastores = config.datastores.max(1);
    let services = config.services.max(1);

    let actor_ids: Vec<ActorId> =
        (0..actors).map(|i| ActorId::new(format!("Actor{i:02}"))).collect();
    let field_ids: Vec<FieldId> =
        (0..fields).map(|i| FieldId::new(format!("Field{i:02}"))).collect();
    let store_ids: Vec<DatastoreId> =
        (0..datastores).map(|i| DatastoreId::new(format!("Store{i:02}"))).collect();

    let mut catalog = Catalog::new();
    catalog.add_actor(Actor::data_subject("Subject"))?;
    for actor in &actor_ids {
        catalog.add_actor(Actor::role(actor.clone()))?;
    }
    for (i, field) in field_ids.iter().enumerate() {
        let field = if i % 2 == 0 {
            DataField::sensitive(field.clone())
        } else {
            DataField::identifier(field.clone())
        };
        catalog.add_field(field)?;
    }
    for (i, store) in store_ids.iter().enumerate() {
        let schema_fields = random_subset(&mut rng, &field_ids);
        catalog.add_schema(DataSchema::new(format!("Schema{i:02}"), schema_fields))?;
        let decl = if rng.gen_bool(config.anonymised_probability) {
            DatastoreDecl::anonymised(store.clone(), format!("Schema{i:02}"))
        } else {
            DatastoreDecl::new(store.clone(), format!("Schema{i:02}"))
        };
        catalog.add_datastore(decl)?;
    }

    let mut system = SystemDataFlows::new();
    for s in 0..services {
        let service = ServiceId::new(format!("Service{s:02}"));
        catalog.add_service(ServiceDecl::new(service.clone(), actor_ids.clone()))?;
        let mut builder = DiagramBuilder::new(service);
        for order in 1..=config.flows_per_service.max(1) {
            let flow_fields = random_subset(&mut rng, &field_ids);
            let actor = choose(&mut rng, &actor_ids).clone();
            let order = order as u32;
            builder = match rng.gen_range(0usize..4) {
                0 => builder.collect(actor, flow_fields, "collect", order)?,
                1 if actor_ids.len() > 1 => {
                    let mut other = choose(&mut rng, &actor_ids).clone();
                    while other == actor {
                        other = choose(&mut rng, &actor_ids).clone();
                    }
                    builder.disclose(actor, other, flow_fields, "disclose", order)?
                }
                1 => builder.collect(actor, flow_fields, "collect", order)?,
                2 => {
                    let store = choose(&mut rng, &store_ids).clone();
                    builder.create(actor, store, flow_fields, "persist", order)?
                }
                _ => {
                    let store = choose(&mut rng, &store_ids).clone();
                    builder.read(actor, store, flow_fields, "process", order)?
                }
            };
        }
        system.add_diagram(builder.build())?;
    }

    let mut acl = AccessControlList::new();
    for actor in &actor_ids {
        for store in &store_ids {
            if !rng.gen_bool(config.grant_probability) {
                continue;
            }
            let grant = match rng.gen_range(0usize..3) {
                0 => Grant::read_all(actor.clone(), store.clone()),
                1 => Grant::read_write_all(actor.clone(), store.clone()),
                _ => Grant::new(
                    actor.clone(),
                    store.clone(),
                    FieldScope::fields(random_subset(&mut rng, &field_ids)),
                    [Permission::Read],
                ),
            };
            acl.grant(grant);
        }
    }
    let policy = AccessPolicy::from_parts(acl, Default::default());

    Ok((catalog, system, policy))
}

/// A uniformly chosen element of a non-empty slice.
fn choose<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// A random non-empty subset (between one and all elements) of `items`.
fn random_subset<T: Clone>(rng: &mut StdRng, items: &[T]) -> Vec<T> {
    let take = rng.gen_range(1..=items.len());
    let mut picked: Vec<T> = Vec::with_capacity(take);
    let mut indices: Vec<usize> = (0..items.len()).collect();
    for _ in 0..take {
        let at = rng.gen_range(0..indices.len());
        picked.push(items[indices.swap_remove(at)].clone());
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use privacy_dataflow::FlowKind;

    #[test]
    fn heavy_evaluation_grows_per_event_work_monotonically() {
        // The candidate-pair work per event scales with actors × fields;
        // the knob must grow it strictly with weight and clamp weight 0.
        let sizes: Vec<usize> = [0, 1, 2, 4]
            .into_iter()
            .map(|weight| {
                let config = ModelGeneratorConfig::heavy_evaluation(weight);
                config.actors * config.fields
            })
            .collect();
        assert_eq!(sizes[0], sizes[1], "weight 0 clamps to 1");
        assert!(sizes[1] < sizes[2] && sizes[2] < sizes[3], "not monotone: {sizes:?}");
        // And the generated model must actually honour the shape.
        let config = ModelGeneratorConfig::heavy_evaluation(2);
        let (catalog, _, _) = random_model(&config).unwrap();
        assert_eq!(catalog.fields().count(), config.fields);
    }

    #[test]
    fn generation_is_deterministic_for_equal_seeds() {
        let config = ModelGeneratorConfig::default();
        let (cat_a, sys_a, pol_a) = random_model(&config).unwrap();
        let (cat_b, sys_b, pol_b) = random_model(&config).unwrap();
        assert_eq!(sys_a, sys_b);
        assert_eq!(pol_a, pol_b);
        assert_eq!(cat_a.state_variable_count(), cat_b.state_variable_count());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let base = ModelGeneratorConfig::default();
        let (_, sys_a, _) = random_model(&base).unwrap();
        let (_, sys_b, _) = random_model(&base.clone().with_seed(43)).unwrap();
        assert_ne!(sys_a, sys_b);
    }

    #[test]
    fn models_have_the_requested_shape() {
        let config = ModelGeneratorConfig {
            actors: 4,
            fields: 5,
            datastores: 3,
            services: 2,
            flows_per_service: 6,
            ..ModelGeneratorConfig::default()
        };
        let (catalog, system, _) = random_model(&config).unwrap();
        // 4 identifying actors × 5 fields × 2 variables.
        assert_eq!(catalog.state_variable_count(), 40);
        assert_eq!(catalog.datastore_count(), 3);
        assert_eq!(system.len(), 2);
        assert_eq!(system.flow_count(), 12);
    }

    #[test]
    fn flows_are_always_classifiable_or_disclose() {
        for seed in 0..20 {
            let config = ModelGeneratorConfig::default().with_seed(seed);
            let (_, system, _) = random_model(&config).unwrap();
            for (_, flow) in system.flows() {
                assert_ne!(flow.kind_simple(), FlowKind::Unclassified);
                assert!(!flow.fields().is_empty());
            }
        }
    }

    #[test]
    fn single_actor_models_degrade_disclose_to_collect() {
        let config = ModelGeneratorConfig {
            actors: 1,
            flows_per_service: 8,
            ..ModelGeneratorConfig::default()
        };
        let (_, system, _) = random_model(&config).unwrap();
        for (_, flow) in system.flows() {
            assert_ne!(flow.kind_simple(), FlowKind::Disclose);
        }
    }
}
