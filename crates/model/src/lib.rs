//! # privacy-model
//!
//! Domain vocabulary for the model-driven privacy-risk framework described in
//! *"Identifying Privacy Risks in Distributed Data Services: A Model-Driven
//! Approach"* (Grace et al., ICDCS 2018).
//!
//! This crate defines the metamodel every other crate in the workspace builds
//! upon:
//!
//! * identifiers for actors, data fields, schemas, datastores, services,
//!   users and roles ([`ids`]);
//! * descriptions of personal-data fields and schemas ([`field`]);
//! * actors and actor kinds ([`actor`]);
//! * purposes of processing ([`purpose`]);
//! * user sensitivities, sensitivity categories and profiles
//!   ([`sensitivity`]);
//! * consent to services and the derived allowed/non-allowed actor partition
//!   ([`consent`]);
//! * user profiles combining sensitivities and consent ([`user`]);
//! * concrete data values, records and datasets used by the anonymisation and
//!   synthetic-data crates ([`value`]);
//! * the shared [`catalog::Catalog`] registering every element of a system
//!   model;
//! * the common risk vocabulary (low / medium / high) used to label impact,
//!   likelihood and combined risk ([`risk_level`]); and
//! * dense index interning of identifiers for hot paths ([`intern`]).
//!
//! # Example
//!
//! ```
//! use privacy_model::{Actor, ActorId, Catalog, DataField, DataSchema, FieldId, ModelError};
//!
//! # fn main() -> Result<(), ModelError> {
//! let mut catalog = Catalog::new();
//! catalog.add_actor(Actor::role("Doctor"))?;
//! catalog.add_field(DataField::sensitive("Diagnosis"))?;
//! catalog.add_schema(DataSchema::new("EHR", [FieldId::new("Diagnosis")]))?;
//! assert!(catalog.actor(&ActorId::new("Doctor")).is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod catalog;
pub mod consent;
pub mod error;
pub mod field;
pub mod ids;
pub mod intern;
pub mod purpose;
pub mod risk_level;
pub mod sensitivity;
pub mod user;
pub mod value;

pub use actor::{Actor, ActorKind};
pub use catalog::{Catalog, DatastoreDecl, ServiceDecl};
pub use consent::Consent;
pub use error::ModelError;
pub use field::{DataField, DataSchema, FieldKind};
pub use ids::{ActorId, DatastoreId, FieldId, RoleId, SchemaId, ServiceId, UserId};
pub use intern::Interner;
pub use purpose::Purpose;
pub use risk_level::{Likelihood, RiskLevel, Severity};
pub use sensitivity::{Sensitivity, SensitivityCategory, SensitivityProfile};
pub use user::UserProfile;
pub use value::{Dataset, Record, Value};
