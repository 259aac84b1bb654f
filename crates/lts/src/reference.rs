//! The reference (pre-optimisation) LTS generator, retained for differential
//! testing and benchmarking.
//!
//! This is the direct transcription of the extraction rules of Section II-B:
//! a single-threaded BFS whose `apply_flow` resolves actor and field
//! identifiers through string-keyed map lookups for every bit it sets and
//! clones the string-backed datastore-contents set on every transition, and
//! appends through an [`LtsBuilder`] that interns and deduplicates. The
//! optimised engine (the private `engine` module, reached through
//! [`crate::generate_lts`]) must produce exactly the same LTS — the property
//! tests in `tests/differential.rs` and the scaling benchmark
//! (`privacy-bench`, `lts_scaling`) hold the two implementations against
//! each other, which is why this path is kept alive rather than deleted.
//!
//! Semantics are identical to the optimised engine, including the
//! insertion-time `max_states` bound (see
//! [`GeneratorConfig::max_states`](crate::GeneratorConfig::max_states)).

use crate::generate::GeneratorConfig;
use crate::label::{ActionKind, TransitionLabel};
use crate::lts::{Lts, LtsBuilder};
use crate::space::VarSpace;
use crate::state::PrivacyState;
use privacy_access::{AccessPolicy, Permission};
use privacy_dataflow::{Flow, FlowKind, SystemDataFlows};
use privacy_model::{Catalog, DatastoreId, FieldId, ModelError, SchemaId, ServiceId};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// The exploration key: per-service progress, datastore contents and the
/// privacy state. Progress and contents are needed to know which flows are
/// enabled; only the privacy state becomes an LTS state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CompositeState {
    progress: Vec<usize>,
    stored: BTreeSet<(DatastoreId, FieldId)>,
    privacy: PrivacyState,
}

/// Generates the privacy LTS with the retained reference implementation.
///
/// Prefer [`crate::generate_lts`]; this path exists to differential-test and
/// benchmark the optimised engine against.
///
/// # Errors
///
/// Returns [`ModelError::Invalid`] if the state bound of the configuration is
/// exceeded, and [`ModelError::Unknown`] if a requested service has no
/// diagram.
pub fn generate_lts_reference(
    catalog: &Catalog,
    system: &SystemDataFlows,
    policy: &AccessPolicy,
    config: &GeneratorConfig,
) -> Result<Lts, ModelError> {
    let space = VarSpace::from_catalog(catalog);
    let mut builder = LtsBuilder::new(space.clone());

    // Select and order the services to explore.
    let services: Vec<&ServiceId> = match &config.services {
        Some(selected) => {
            for service in selected {
                if system.diagram(service).is_none() {
                    return Err(ModelError::unknown("service diagram", service.as_str()));
                }
            }
            system.services().filter(|s| selected.contains(*s)).collect()
        }
        None => system.services().collect(),
    };
    let diagrams: Vec<&privacy_dataflow::DataFlowDiagram> =
        services.iter().map(|s| system.diagram(s).expect("checked above")).collect();

    let anonymised_stores: BTreeSet<DatastoreId> =
        catalog.datastores().filter(|d| d.is_anonymised()).map(|d| d.id().clone()).collect();

    let initial = CompositeState {
        progress: vec![0; diagrams.len()],
        stored: BTreeSet::new(),
        privacy: PrivacyState::absolute(&space),
    };

    // Each composite state is hashed exactly once, on insertion; the bound is
    // enforced at insertion time so the queue can never outgrow it.
    let mut visited: HashSet<CompositeState> = HashSet::new();
    let mut queue = VecDeque::new();
    visited.insert(initial.clone());
    bound_check(visited.len(), config.max_states)?;
    queue.push_back(initial);

    while let Some(current) = queue.pop_front() {
        let from_id = builder.intern(current.privacy.clone());

        // Which services may fire their next flow from this composite state?
        let enabled: Vec<usize> = if config.interleave_services {
            (0..diagrams.len()).filter(|&i| current.progress[i] < diagrams[i].len()).collect()
        } else {
            // Sequential execution: only the first unfinished service fires.
            (0..diagrams.len())
                .find(|&i| current.progress[i] < diagrams[i].len())
                .into_iter()
                .collect()
        };

        for service_index in enabled {
            let diagram = diagrams[service_index];
            let flow = &diagram.flows()[current.progress[service_index]];
            let (next_privacy, next_stored, label) = apply_flow(
                catalog,
                policy,
                &space,
                &anonymised_stores,
                &current.privacy,
                &current.stored,
                flow,
            );

            let mut next = CompositeState {
                progress: current.progress.clone(),
                stored: next_stored,
                privacy: next_privacy,
            };
            next.progress[service_index] += 1;

            let to_id = builder.intern(next.privacy.clone());
            builder.add_transition(from_id, to_id, label);

            if visited.insert(next.clone()) {
                bound_check(visited.len(), config.max_states)?;
                queue.push_back(next);
            }
        }

        // Potential reads: any actor the policy allows to read data that is
        // present in a datastore may perform an (unscheduled) read.
        if config.explore_potential_reads {
            for (store, field) in current.stored.iter() {
                let schema = catalog.datastore(store).map(|d| d.schema().clone());
                for actor in policy.actors_with(Permission::Read, store, field) {
                    if current.privacy.has(&space, &actor, field) {
                        continue;
                    }
                    let next_privacy = current.privacy.with_has(&space, &actor, field);
                    let next = CompositeState {
                        progress: current.progress.clone(),
                        stored: current.stored.clone(),
                        privacy: next_privacy.clone(),
                    };
                    let to_id = builder.intern(next_privacy);
                    let label = TransitionLabel::new(
                        ActionKind::Read,
                        actor.clone(),
                        [field.clone()],
                        schema.clone(),
                    );
                    builder.add_transition(from_id, to_id, label);
                    if visited.insert(next.clone()) {
                        bound_check(visited.len(), config.max_states)?;
                        queue.push_back(next);
                    }
                }
            }
        }
    }

    Ok(builder.build())
}

/// Fails once the number of composite states passes the configured bound.
fn bound_check(composite_states: usize, max_states: usize) -> Result<(), ModelError> {
    if composite_states > max_states {
        return Err(ModelError::invalid(format!(
            "lts generation exceeded the configured bound of {max_states} composite states"
        )));
    }
    Ok(())
}

/// Applies one flow to a privacy state, producing the successor privacy
/// state, the successor datastore contents and the transition label.
fn apply_flow(
    catalog: &Catalog,
    policy: &AccessPolicy,
    space: &VarSpace,
    anonymised_stores: &BTreeSet<DatastoreId>,
    privacy: &PrivacyState,
    stored: &BTreeSet<(DatastoreId, FieldId)>,
    flow: &Flow,
) -> (PrivacyState, BTreeSet<(DatastoreId, FieldId)>, TransitionLabel) {
    let mut next_privacy = privacy.clone();
    let mut next_stored = stored.clone();

    let kind = flow.kind(anonymised_stores);
    let actor =
        flow.acting_actor().cloned().unwrap_or_else(|| privacy_model::ActorId::new("<unknown>"));
    let purpose = flow.purpose().clone();

    let schema_of = |store: &DatastoreId| -> Option<SchemaId> {
        catalog.datastore(store).map(|d| d.schema().clone())
    };

    let (action, schema): (ActionKind, Option<SchemaId>) = match kind {
        FlowKind::Collect => {
            if let Some(receiver) = flow.receiving_actor() {
                for field in flow.fields() {
                    next_privacy.set_has(space, receiver, field, true);
                }
            }
            (ActionKind::Collect, None)
        }
        FlowKind::Disclose => {
            if let Some(receiver) = flow.receiving_actor() {
                for field in flow.fields() {
                    next_privacy.set_has(space, receiver, field, true);
                }
            }
            (ActionKind::Disclose, None)
        }
        FlowKind::Create | FlowKind::Anonymise => {
            let store =
                flow.to().as_datastore().cloned().unwrap_or_else(|| DatastoreId::new("<unknown>"));
            for field in flow.fields() {
                next_stored.insert((store.clone(), field.clone()));
                // Every actor with read access to this field in this store
                // could now identify it.
                for reader in policy.actors_with(Permission::Read, &store, field) {
                    next_privacy.set_could(space, &reader, field, true);
                }
            }
            let action =
                if kind == FlowKind::Anonymise { ActionKind::Anon } else { ActionKind::Create };
            (action, schema_of(&store))
        }
        FlowKind::Read => {
            let store = flow
                .from()
                .as_datastore()
                .cloned()
                .unwrap_or_else(|| DatastoreId::new("<unknown>"));
            if let Some(reader) = flow.receiving_actor() {
                for field in flow.fields() {
                    if policy.can(reader, Permission::Read, &store, field) {
                        next_privacy.set_has(space, reader, field, true);
                    }
                }
            }
            (ActionKind::Read, schema_of(&store))
        }
        _ => (ActionKind::Disclose, None),
    };

    let label = TransitionLabel::new(action, actor, flow.fields().iter().cloned(), schema)
        .with_purpose(purpose);
    (next_privacy, next_stored, label)
}
