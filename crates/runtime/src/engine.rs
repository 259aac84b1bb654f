//! The service engine: executes data-flow diagrams as runtime events.
//!
//! One execution of a service replays the service's flow arrows in their
//! declared order against the in-memory datastores, enforcing the
//! access-control policy on every datastore read and write. The engine emits
//! one [`Event`] per flow (permitted or denied), which is exactly the input
//! the runtime privacy monitor consumes.

use crate::event::{Event, EventLog};
use crate::store::DatastoreState;
use privacy_access::{AccessPolicy, Permission};
use privacy_dataflow::{FlowKind, SystemDataFlows};
use privacy_lts::ActionKind;
use privacy_model::{Catalog, DatastoreId, ModelError, Record, ServiceId, UserId, Value};
use std::collections::BTreeSet;
use std::fmt;

/// One request: a user asks for one execution of a service.
///
/// Requests are what workload drivers (such as the synthetic generator in
/// `privacy-synth`) hand to the engine;
/// the type lives here so producers and consumers of workloads agree on it
/// without the generator crate having to sit below the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest {
    user: UserId,
    service: ServiceId,
}

impl ServiceRequest {
    /// Creates a request.
    pub fn new(user: impl Into<UserId>, service: impl Into<ServiceId>) -> Self {
        ServiceRequest { user: user.into(), service: service.into() }
    }

    /// The requesting user.
    pub fn user(&self) -> &UserId {
        &self.user
    }

    /// The requested service.
    pub fn service(&self) -> &ServiceId {
        &self.service
    }
}

impl fmt::Display for ServiceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.user, self.service)
    }
}

/// The outcome of one service execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionOutcome {
    service: ServiceId,
    user: UserId,
    events: Vec<Event>,
    denied: usize,
}

impl ExecutionOutcome {
    /// The executed service.
    pub fn service(&self) -> &ServiceId {
        &self.service
    }

    /// The data subject.
    pub fn user(&self) -> &UserId {
        &self.user
    }

    /// The events produced, in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of denied (policy-blocked) flows.
    pub fn denied(&self) -> usize {
        self.denied
    }

    /// Returns `true` if every flow was permitted.
    pub fn fully_permitted(&self) -> bool {
        self.denied == 0
    }
}

impl fmt::Display for ExecutionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "execution of {} for {}: {} events, {} denied",
            self.service,
            self.user,
            self.events.len(),
            self.denied
        )
    }
}

/// The service engine.
#[derive(Debug, Clone)]
pub struct ServiceEngine {
    catalog: Catalog,
    system: SystemDataFlows,
    policy: AccessPolicy,
    stores: DatastoreState,
    log: EventLog,
}

impl ServiceEngine {
    /// Creates an engine over a system model.
    pub fn new(catalog: Catalog, system: SystemDataFlows, policy: AccessPolicy) -> Self {
        ServiceEngine {
            catalog,
            system,
            policy,
            stores: DatastoreState::new(),
            log: EventLog::new(),
        }
    }

    /// The catalog the engine serves.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The current datastore contents.
    pub fn stores(&self) -> &DatastoreState {
        &self.stores
    }

    /// The global event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Replaces the access policy (e.g. after the designer applies a
    /// [`privacy_access::PolicyDelta`]).
    pub fn set_policy(&mut self, policy: AccessPolicy) {
        self.policy = policy;
    }

    /// Executes one service for one user.
    ///
    /// `user_data` supplies the values the data subject provides to `collect`
    /// flows (missing fields are filled with [`Value::Null`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unknown`] if the service has no data-flow
    /// diagram.
    pub fn execute(
        &mut self,
        user: &UserId,
        service: &ServiceId,
        user_data: &Record,
    ) -> Result<ExecutionOutcome, ModelError> {
        let diagram = self
            .system
            .diagram(service)
            .ok_or_else(|| ModelError::unknown("service diagram", service.as_str()))?
            .clone();
        let anonymised_stores: BTreeSet<DatastoreId> = self
            .catalog
            .datastores()
            .filter(|d| d.is_anonymised())
            .map(|d| d.id().clone())
            .collect();

        let mut events = Vec::new();
        let mut denied = 0;

        for flow in diagram.iter() {
            let kind = flow.kind(&anonymised_stores);
            let actor = flow
                .acting_actor()
                .cloned()
                .unwrap_or_else(|| privacy_model::ActorId::new("<unknown>"));
            let sequence = self.log.next_sequence();

            let (action, datastore, permitted) = match kind {
                FlowKind::Collect | FlowKind::Disclose => {
                    // Person-to-person flows are not mediated by a datastore,
                    // so the access policy does not constrain them here.
                    let action = if kind == FlowKind::Collect {
                        ActionKind::Collect
                    } else {
                        ActionKind::Disclose
                    };
                    (action, None, true)
                }
                FlowKind::Create | FlowKind::Anonymise => {
                    let store = flow.to().as_datastore().cloned().expect("create targets a store");
                    let permitted = flow
                        .fields()
                        .iter()
                        .all(|field| self.policy.can(&actor, Permission::Create, &store, field));
                    if permitted {
                        let values = flow.fields().iter().map(|field| {
                            let value = user_data.get(field).cloned().unwrap_or(Value::Null);
                            (field.clone(), value)
                        });
                        self.stores.write(&store, user, values);
                    }
                    let action = if kind == FlowKind::Anonymise {
                        ActionKind::Anon
                    } else {
                        ActionKind::Create
                    };
                    (action, Some(store), permitted)
                }
                FlowKind::Read => {
                    let store = flow.from().as_datastore().cloned().expect("read sources a store");
                    let permitted = flow
                        .fields()
                        .iter()
                        .all(|field| self.policy.can(&actor, Permission::Read, &store, field));
                    (ActionKind::Read, Some(store), permitted)
                }
                _ => (ActionKind::Disclose, None, false),
            };

            if !permitted {
                denied += 1;
            }
            let event = Event::new(
                sequence,
                user.clone(),
                service.clone(),
                actor,
                action,
                flow.fields().iter().cloned(),
                datastore,
                permitted,
            );
            self.log.append(event.clone());
            events.push(event);
        }

        Ok(ExecutionOutcome { service: service.clone(), user: user.clone(), events, denied })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privacy_access::{AccessControlList, Grant, PolicyDelta};
    use privacy_dataflow::DiagramBuilder;
    use privacy_model::{
        Actor, ActorId, DataField, DataSchema, DatastoreDecl, FieldId, ServiceDecl,
    };

    fn fixture() -> (Catalog, SystemDataFlows, AccessPolicy) {
        let mut catalog = Catalog::new();
        catalog.add_actor(Actor::role("Doctor")).unwrap();
        catalog.add_actor(Actor::role("Administrator")).unwrap();
        catalog.add_field(DataField::identifier("Name")).unwrap();
        catalog.add_field(DataField::sensitive("Diagnosis")).unwrap();
        catalog
            .add_schema(DataSchema::new(
                "EHRSchema",
                [FieldId::new("Name"), FieldId::new("Diagnosis")],
            ))
            .unwrap();
        catalog.add_datastore(DatastoreDecl::new("EHR", "EHRSchema")).unwrap();
        catalog.add_service(ServiceDecl::new("MedicalService", [ActorId::new("Doctor")])).unwrap();
        catalog
            .add_service(ServiceDecl::new("AuditService", [ActorId::new("Administrator")]))
            .unwrap();

        let medical = DiagramBuilder::new("MedicalService")
            .collect("Doctor", ["Name", "Diagnosis"], "consultation", 1)
            .unwrap()
            .create("Doctor", "EHR", ["Name", "Diagnosis"], "record", 2)
            .unwrap()
            .read("Doctor", "EHR", ["Diagnosis"], "review", 3)
            .unwrap()
            .build();
        let audit = DiagramBuilder::new("AuditService")
            .read("Administrator", "EHR", ["Diagnosis"], "audit", 1)
            .unwrap()
            .build();
        let system =
            SystemDataFlows::new().with_diagram(medical).unwrap().with_diagram(audit).unwrap();

        let acl = AccessControlList::new()
            .with_grant(Grant::read_write_all("Doctor", "EHR"))
            .with_grant(Grant::read_all("Administrator", "EHR"));
        (catalog, system, AccessPolicy::from_parts(acl, Default::default()))
    }

    fn patient_data() -> Record {
        Record::new().with("Name", "Alice").with("Diagnosis", "flu")
    }

    #[test]
    fn executing_a_service_writes_stores_and_logs_events() {
        let (catalog, system, policy) = fixture();
        let mut engine = ServiceEngine::new(catalog, system, policy);
        let outcome = engine
            .execute(&UserId::new("alice"), &ServiceId::new("MedicalService"), &patient_data())
            .unwrap();

        assert_eq!(outcome.events().len(), 3);
        assert!(outcome.fully_permitted());
        assert_eq!(outcome.denied(), 0);
        assert_eq!(engine.log().len(), 3);

        // The EHR now holds Alice's record.
        assert_eq!(
            engine.stores().read(
                &DatastoreId::new("EHR"),
                &UserId::new("alice"),
                &FieldId::new("Diagnosis")
            ),
            Some(Value::from("flu"))
        );
        // Event sequence numbers are monotonic and actions follow the flows.
        let actions: Vec<ActionKind> = outcome.events().iter().map(Event::action).collect();
        assert_eq!(actions, vec![ActionKind::Collect, ActionKind::Create, ActionKind::Read]);
        assert!(outcome.to_string().contains("3 events"));
    }

    #[test]
    fn denied_flows_are_logged_but_have_no_effect() {
        let (catalog, system, policy) = fixture();
        // Revoke the administrator's read access before running the audit.
        let revised = policy.with_applied(&PolicyDelta::new().revoke(
            "Administrator",
            Permission::Read,
            "EHR",
        ));
        let mut engine = ServiceEngine::new(catalog, system, revised);

        engine
            .execute(&UserId::new("alice"), &ServiceId::new("MedicalService"), &patient_data())
            .unwrap();
        let outcome = engine
            .execute(&UserId::new("alice"), &ServiceId::new("AuditService"), &Record::new())
            .unwrap();

        assert_eq!(outcome.denied(), 1);
        assert!(!outcome.fully_permitted());
        assert_eq!(engine.log().denied().len(), 1);
    }

    #[test]
    fn missing_user_data_is_stored_as_null() {
        let (catalog, system, policy) = fixture();
        let mut engine = ServiceEngine::new(catalog, system, policy);
        engine
            .execute(
                &UserId::new("bob"),
                &ServiceId::new("MedicalService"),
                &Record::new().with("Name", "Bob"),
            )
            .unwrap();
        assert_eq!(
            engine.stores().read(
                &DatastoreId::new("EHR"),
                &UserId::new("bob"),
                &FieldId::new("Diagnosis")
            ),
            Some(Value::Null)
        );
    }

    #[test]
    fn unknown_service_is_an_error() {
        let (catalog, system, policy) = fixture();
        let mut engine = ServiceEngine::new(catalog, system, policy);
        let result = engine.execute(&UserId::new("alice"), &ServiceId::new("Nope"), &Record::new());
        assert!(matches!(result, Err(ModelError::Unknown { .. })));
    }

    #[test]
    fn set_policy_changes_future_enforcement() {
        let (catalog, system, policy) = fixture();
        let mut engine = ServiceEngine::new(catalog, system, policy.clone());
        engine
            .execute(&UserId::new("alice"), &ServiceId::new("MedicalService"), &patient_data())
            .unwrap();
        let ok = engine
            .execute(&UserId::new("alice"), &ServiceId::new("AuditService"), &Record::new())
            .unwrap();
        assert!(ok.fully_permitted());

        engine.set_policy(policy.with_applied(&PolicyDelta::new().revoke(
            "Administrator",
            Permission::Read,
            "EHR",
        )));
        let denied = engine
            .execute(&UserId::new("alice"), &ServiceId::new("AuditService"), &Record::new())
            .unwrap();
        assert_eq!(denied.denied(), 1);
    }
}
