//! # privacy-access
//!
//! Access-control substrate for the model-driven privacy framework.
//!
//! The paper assumes that each datastore comes with *"the data schema and
//! access control policies associated with each datastore — that is a
//! description of what data is stored, and which actors have access to that
//! data"*, and restricts itself to *"traditional access control lists and
//! role-based access control"*. This crate implements both:
//!
//! * [`permission`] — the operations an actor may be granted on datastore
//!   fields (read, create, delete, disclose) and field scopes;
//! * [`acl`] — access-control lists: direct actor → datastore/field grants;
//! * [`rbac`] — role-based access control: roles carry grants, actors are
//!   assigned roles (with optional role inheritance);
//! * [`policy`] — the combined [`policy::AccessPolicy`] queried by the LTS
//!   generator and risk analyses (ACL ∪ RBAC), plus [`policy::PolicyDelta`]
//!   for expressing the access-policy changes evaluated in the paper's Case
//!   Study A (revoking the Administrator's read access to the EHR).
//!
//! # Example
//!
//! ```
//! use privacy_access::{AccessPolicy, FieldScope, Grant, Permission};
//! use privacy_model::{ActorId, DatastoreId, FieldId};
//!
//! let mut policy = AccessPolicy::new();
//! policy.acl_mut().grant(Grant::new(
//!     ActorId::new("Doctor"),
//!     DatastoreId::new("EHR"),
//!     FieldScope::all(),
//!     [Permission::Read, Permission::Create],
//! ));
//!
//! assert!(policy.can(
//!     &ActorId::new("Doctor"),
//!     Permission::Read,
//!     &DatastoreId::new("EHR"),
//!     &FieldId::new("Diagnosis"),
//! ));
//! assert!(!policy.can(
//!     &ActorId::new("Researcher"),
//!     Permission::Read,
//!     &DatastoreId::new("EHR"),
//!     &FieldId::new("Diagnosis"),
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abac;
pub mod acl;
pub mod permission;
pub mod policy;
pub mod rbac;

pub use abac::{AbacPolicy, AbacRule, AttributePredicate, AttributeValue};
pub use acl::{AccessControlList, Grant};
pub use permission::{FieldScope, Permission};
pub use policy::{AccessPolicy, PolicyChange, PolicyDelta};
pub use rbac::{RbacPolicy, Role, RoleGrant};
