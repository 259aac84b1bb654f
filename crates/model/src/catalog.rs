//! The system catalog: the shared registry of every modelled element.
//!
//! The data-flow diagrams, access-control policies, generated LTS and risk
//! analyses all refer to the same actors, fields, schemas, datastores and
//! services. The [`Catalog`] is the single source of truth for those
//! declarations; downstream crates validate their references against it.

use crate::actor::Actor;
use crate::error::ModelError;
use crate::field::{DataField, DataSchema};
use crate::ids::{ActorId, DatastoreId, FieldId, SchemaId, ServiceId};
use std::collections::BTreeMap;
use std::fmt;

/// Declaration of a datastore: its identifier, the schema it stores and
/// whether it stores anonymised (pseudonymised) data.
///
/// The anonymised flag drives the extraction rules of Section II-B: a flow
/// from an actor into an anonymised datastore is an `anon` action rather than
/// a `create` action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatastoreDecl {
    id: DatastoreId,
    schema: SchemaId,
    anonymised: bool,
}

impl DatastoreDecl {
    /// Declares a regular datastore.
    pub fn new(id: impl Into<DatastoreId>, schema: impl Into<SchemaId>) -> Self {
        DatastoreDecl { id: id.into(), schema: schema.into(), anonymised: false }
    }

    /// Declares an anonymised datastore.
    pub fn anonymised(id: impl Into<DatastoreId>, schema: impl Into<SchemaId>) -> Self {
        DatastoreDecl { id: id.into(), schema: schema.into(), anonymised: true }
    }

    /// The datastore identifier.
    pub fn id(&self) -> &DatastoreId {
        &self.id
    }

    /// The identifier of the schema stored by this datastore.
    pub fn schema(&self) -> &SchemaId {
        &self.schema
    }

    /// Returns `true` if the datastore stores anonymised data.
    pub fn is_anonymised(&self) -> bool {
        self.anonymised
    }
}

impl fmt::Display for DatastoreDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.anonymised {
            write!(f, "{} [{} | anonymised]", self.id, self.schema)
        } else {
            write!(f, "{} [{}]", self.id, self.schema)
        }
    }
}

/// Declaration of a service: its identifier and the actors involved in
/// providing it.
///
/// Risk analysis derives the allowed-actor set for a user from the services
/// the user consented to (the union of the involved actors of those
/// services).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDecl {
    id: ServiceId,
    actors: Vec<ActorId>,
    description: String,
}

impl ServiceDecl {
    /// Declares a service provided by the given actors.
    pub fn new(id: impl Into<ServiceId>, actors: impl IntoIterator<Item = ActorId>) -> Self {
        ServiceDecl {
            id: id.into(),
            actors: actors.into_iter().collect(),
            description: String::new(),
        }
    }

    /// Attaches a human readable description.
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// The service identifier.
    pub fn id(&self) -> &ServiceId {
        &self.id
    }

    /// The actors involved in providing this service.
    pub fn actors(&self) -> &[ActorId] {
        &self.actors
    }

    /// The description (may be empty).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Returns `true` if the given actor participates in this service.
    pub fn involves(&self, actor: &ActorId) -> bool {
        self.actors.iter().any(|a| a == actor)
    }
}

impl fmt::Display for ServiceDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "service {} ({} actors)", self.id, self.actors.len())
    }
}

/// The registry of every declared element of the system model.
///
/// # Example
///
/// ```
/// use privacy_model::{
///     Actor, ActorId, Catalog, DataField, DataSchema, DatastoreDecl, FieldId, ModelError,
///     ServiceDecl,
/// };
///
/// # fn main() -> Result<(), ModelError> {
/// let mut catalog = Catalog::new();
/// catalog.add_actor(Actor::role("Doctor"))?;
/// catalog.add_field(DataField::sensitive("Diagnosis"))?;
/// catalog.add_schema(DataSchema::new("EHR", [FieldId::new("Diagnosis")]))?;
/// catalog.add_datastore(DatastoreDecl::new("EHR-store", "EHR"))?;
/// catalog.add_service(ServiceDecl::new("MedicalService", [ActorId::new("Doctor")]))?;
///
/// assert_eq!(catalog.actor_count(), 1);
/// assert!(catalog.validate().is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Catalog {
    actors: BTreeMap<ActorId, Actor>,
    fields: BTreeMap<FieldId, DataField>,
    schemas: BTreeMap<SchemaId, DataSchema>,
    datastores: BTreeMap<DatastoreId, DatastoreDecl>,
    services: BTreeMap<ServiceId, ServiceDecl>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers an actor.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Duplicate`] if an actor with the same id exists.
    pub fn add_actor(&mut self, actor: Actor) -> Result<&mut Self, ModelError> {
        if self.actors.contains_key(actor.id()) {
            return Err(ModelError::duplicate("actor", actor.id().as_str()));
        }
        self.actors.insert(actor.id().clone(), actor);
        Ok(self)
    }

    /// Registers a data field.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Duplicate`] if a field with the same id exists.
    pub fn add_field(&mut self, field: DataField) -> Result<&mut Self, ModelError> {
        if self.fields.contains_key(field.id()) {
            return Err(ModelError::duplicate("field", field.id().as_str()));
        }
        self.fields.insert(field.id().clone(), field);
        Ok(self)
    }

    /// Registers a field together with its pseudonymised counterpart.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Duplicate`] if either field already exists.
    pub fn add_field_with_anonymised(&mut self, field: DataField) -> Result<&mut Self, ModelError> {
        let anonymised = field.pseudonymised();
        self.add_field(field)?;
        self.add_field(anonymised)?;
        Ok(self)
    }

    /// Registers a schema.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Duplicate`] if a schema with the same id exists.
    pub fn add_schema(&mut self, schema: DataSchema) -> Result<&mut Self, ModelError> {
        if self.schemas.contains_key(schema.id()) {
            return Err(ModelError::duplicate("schema", schema.id().as_str()));
        }
        self.schemas.insert(schema.id().clone(), schema);
        Ok(self)
    }

    /// Registers a datastore declaration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Duplicate`] if a datastore with the same id
    /// exists.
    pub fn add_datastore(&mut self, datastore: DatastoreDecl) -> Result<&mut Self, ModelError> {
        if self.datastores.contains_key(datastore.id()) {
            return Err(ModelError::duplicate("datastore", datastore.id().as_str()));
        }
        self.datastores.insert(datastore.id().clone(), datastore);
        Ok(self)
    }

    /// Registers a service declaration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Duplicate`] if a service with the same id
    /// exists.
    pub fn add_service(&mut self, service: ServiceDecl) -> Result<&mut Self, ModelError> {
        if self.services.contains_key(service.id()) {
            return Err(ModelError::duplicate("service", service.id().as_str()));
        }
        self.services.insert(service.id().clone(), service);
        Ok(self)
    }

    /// Looks up an actor.
    pub fn actor(&self, id: &ActorId) -> Option<&Actor> {
        self.actors.get(id)
    }

    /// Looks up a field.
    pub fn field(&self, id: &FieldId) -> Option<&DataField> {
        self.fields.get(id)
    }

    /// Looks up a schema.
    pub fn schema(&self, id: &SchemaId) -> Option<&DataSchema> {
        self.schemas.get(id)
    }

    /// Looks up a datastore.
    pub fn datastore(&self, id: &DatastoreId) -> Option<&DatastoreDecl> {
        self.datastores.get(id)
    }

    /// Looks up a service.
    pub fn service(&self, id: &ServiceId) -> Option<&ServiceDecl> {
        self.services.get(id)
    }

    /// The schema stored by a datastore, resolving the indirection.
    pub fn datastore_schema(&self, id: &DatastoreId) -> Option<&DataSchema> {
        self.datastores.get(id).and_then(|d| self.schemas.get(d.schema()))
    }

    /// Iterates over the registered actors in id order.
    pub fn actors(&self) -> impl Iterator<Item = &Actor> {
        self.actors.values()
    }

    /// Iterates over the registered fields in id order.
    pub fn fields(&self) -> impl Iterator<Item = &DataField> {
        self.fields.values()
    }

    /// Iterates over the registered schemas in id order.
    pub fn schemas(&self) -> impl Iterator<Item = &DataSchema> {
        self.schemas.values()
    }

    /// Iterates over the registered datastores in id order.
    pub fn datastores(&self) -> impl Iterator<Item = &DatastoreDecl> {
        self.datastores.values()
    }

    /// Iterates over the registered services in id order.
    pub fn services(&self) -> impl Iterator<Item = &ServiceDecl> {
        self.services.values()
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of registered fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Number of registered datastores.
    pub fn datastore_count(&self) -> usize {
        self.datastores.len()
    }

    /// Number of registered services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// The actors (other than data subjects) that can identify personal data.
    ///
    /// These are the actors that contribute state variables to the generated
    /// LTS (Section II-B counts `2 × |actors| × |fields|` variables with the
    /// five non-data-subject actors of the healthcare example).
    pub fn identifying_actors(&self) -> impl Iterator<Item = &Actor> {
        self.actors.values().filter(|a| !a.is_data_subject())
    }

    /// The set of actors allowed for a user who consented to the given
    /// services: the union of involved actors across those services.
    pub fn allowed_actors<'a>(
        &'a self,
        services: impl IntoIterator<Item = &'a ServiceId>,
    ) -> Vec<ActorId> {
        let mut allowed: Vec<ActorId> = Vec::new();
        for service in services {
            if let Some(decl) = self.services.get(service) {
                for actor in decl.actors() {
                    if !allowed.contains(actor) {
                        allowed.push(actor.clone());
                    }
                }
            }
        }
        allowed.sort();
        allowed
    }

    /// The services an actor participates in.
    pub fn services_of_actor(&self, actor: &ActorId) -> Vec<&ServiceDecl> {
        self.services.values().filter(|s| s.involves(actor)).collect()
    }

    /// Checks referential integrity of the catalog:
    ///
    /// * every schema field must be a registered field;
    /// * every datastore must reference a registered schema;
    /// * every service actor must be a registered actor.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unknown`] naming the first dangling reference.
    pub fn validate(&self) -> Result<(), ModelError> {
        for schema in self.schemas.values() {
            for field in schema.fields() {
                if !self.fields.contains_key(field) {
                    return Err(ModelError::unknown("field", field.as_str()));
                }
            }
        }
        for datastore in self.datastores.values() {
            if !self.schemas.contains_key(datastore.schema()) {
                return Err(ModelError::unknown("schema", datastore.schema().as_str()));
            }
        }
        for service in self.services.values() {
            for actor in service.actors() {
                if !self.actors.contains_key(actor) {
                    return Err(ModelError::unknown("actor", actor.as_str()));
                }
            }
        }
        Ok(())
    }

    /// The number of Boolean state variables the generated LTS will carry:
    /// `2 × |identifying actors| × |fields|`.
    ///
    /// For the paper's healthcare example (5 actors, 6 fields) this is 60.
    pub fn state_variable_count(&self) -> usize {
        2 * self.identifying_actors().count() * self.fields.len()
    }
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "catalog: {} actors, {} fields, {} schemas, {} datastores, {} services",
            self.actors.len(),
            self.fields.len(),
            self.schemas.len(),
            self.datastores.len(),
            self.services.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add_actor(Actor::data_subject("Patient")).unwrap();
        catalog.add_actor(Actor::role("Doctor")).unwrap();
        catalog.add_actor(Actor::role("Researcher")).unwrap();
        catalog.add_field(DataField::identifier("Name")).unwrap();
        catalog.add_field(DataField::sensitive("Diagnosis")).unwrap();
        catalog
            .add_schema(DataSchema::new("EHR", [FieldId::new("Name"), FieldId::new("Diagnosis")]))
            .unwrap();
        catalog.add_datastore(DatastoreDecl::new("EHR-store", "EHR")).unwrap();
        catalog.add_service(ServiceDecl::new("MedicalService", [ActorId::new("Doctor")])).unwrap();
        catalog
            .add_service(ServiceDecl::new("ResearchService", [ActorId::new("Researcher")]))
            .unwrap();
        catalog
    }

    #[test]
    fn duplicates_are_rejected_for_every_element_kind() {
        let mut catalog = sample_catalog();
        assert!(catalog.add_actor(Actor::role("Doctor")).is_err());
        assert!(catalog.add_field(DataField::identifier("Name")).is_err());
        assert!(catalog.add_schema(DataSchema::empty("EHR")).is_err());
        assert!(catalog.add_datastore(DatastoreDecl::new("EHR-store", "EHR")).is_err());
        assert!(catalog.add_service(ServiceDecl::new("MedicalService", [])).is_err());
    }

    #[test]
    fn lookups_resolve_registered_elements() {
        let catalog = sample_catalog();
        assert!(catalog.actor(&ActorId::new("Doctor")).is_some());
        assert!(catalog.field(&FieldId::new("Diagnosis")).is_some());
        assert!(catalog.schema(&SchemaId::new("EHR")).is_some());
        assert!(catalog.datastore(&DatastoreId::new("EHR-store")).is_some());
        assert!(catalog.service(&ServiceId::new("MedicalService")).is_some());
        assert!(catalog.actor(&ActorId::new("Nobody")).is_none());
        let schema = catalog.datastore_schema(&DatastoreId::new("EHR-store")).unwrap();
        assert_eq!(schema.id().as_str(), "EHR");
    }

    #[test]
    fn validation_detects_dangling_references() {
        let mut catalog = sample_catalog();
        assert!(catalog.validate().is_ok());

        catalog.add_schema(DataSchema::new("Broken", [FieldId::new("Missing")])).unwrap();
        assert!(matches!(catalog.validate(), Err(ModelError::Unknown { .. })));

        let mut catalog = sample_catalog();
        catalog.add_datastore(DatastoreDecl::new("Orphan", "NoSchema")).unwrap();
        assert!(catalog.validate().is_err());

        let mut catalog = sample_catalog();
        catalog.add_service(ServiceDecl::new("Ghost", [ActorId::new("Nobody")])).unwrap();
        assert!(catalog.validate().is_err());
    }

    #[test]
    fn identifying_actors_exclude_the_data_subject() {
        let catalog = sample_catalog();
        let ids: Vec<_> = catalog.identifying_actors().map(|a| a.id().as_str()).collect();
        assert_eq!(ids, vec!["Doctor", "Researcher"]);
    }

    #[test]
    fn allowed_actors_follow_consented_services() {
        let catalog = sample_catalog();
        let medical = ServiceId::new("MedicalService");
        let research = ServiceId::new("ResearchService");

        let allowed = catalog.allowed_actors([&medical]);
        assert_eq!(allowed, vec![ActorId::new("Doctor")]);

        let allowed = catalog.allowed_actors([&medical, &research]);
        assert_eq!(allowed, vec![ActorId::new("Doctor"), ActorId::new("Researcher")]);

        let allowed = catalog.allowed_actors([&ServiceId::new("Unknown")]);
        assert!(allowed.is_empty());
    }

    #[test]
    fn state_variable_count_matches_the_paper_formula() {
        // 2 identifying actors × 2 fields × 2 (has / could) = 8.
        assert_eq!(sample_catalog().state_variable_count(), 8);
    }

    #[test]
    fn add_field_with_anonymised_registers_both() {
        let mut catalog = Catalog::new();
        catalog.add_field_with_anonymised(DataField::sensitive("Weight")).unwrap();
        assert!(catalog.field(&FieldId::new("Weight")).is_some());
        assert!(catalog.field(&FieldId::new("Weight_anon")).is_some());
        assert_eq!(catalog.field_count(), 2);
    }

    #[test]
    fn services_of_actor_lists_participations() {
        let catalog = sample_catalog();
        let services = catalog.services_of_actor(&ActorId::new("Doctor"));
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].id().as_str(), "MedicalService");
        assert!(catalog.services_of_actor(&ActorId::new("Nobody")).is_empty());
    }

    #[test]
    fn display_summarises_counts() {
        let catalog = sample_catalog();
        assert_eq!(
            catalog.to_string(),
            "catalog: 3 actors, 2 fields, 1 schemas, 1 datastores, 2 services"
        );
        assert_eq!(
            catalog.datastore(&DatastoreId::new("EHR-store")).unwrap().to_string(),
            "EHR-store [EHR]"
        );
    }
}
