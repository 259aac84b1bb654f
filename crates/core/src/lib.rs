//! # privacy-core
//!
//! The model-driven privacy-engineering pipeline — the primary contribution
//! of *"Identifying Privacy Risks in Distributed Data Services: A
//! Model-Driven Approach"* (Grace et al., ICDCS 2018) — assembled from the
//! workspace's substrate crates:
//!
//! 1. the developer describes the system as a [`PrivacySystem`]: a catalog of
//!    actors / fields / schemas / datastores / services, per-service
//!    data-flow diagrams and an access-control policy;
//! 2. [`PrivacySystem::generate_lts`] produces the formal LTS privacy model
//!    (Section II-B);
//! 3. [`Pipeline`] runs the automated risk analyses (Section III) for a given
//!    user, annotating the LTS and producing a combined
//!    [`privacy_risk::RiskReport`];
//! 4. the designer reacts — e.g. applies a
//!    [`privacy_access::PolicyDelta`] — and re-runs the pipeline until the
//!    reported risks are acceptable.
//!
//! The [`casestudy`] module contains the doctors'-surgery system of Fig. 1
//! and the Table I records, used by the examples, integration tests and the
//! benchmark harness.
//!
//! # Example
//!
//! ```
//! use privacy_core::casestudy;
//! use privacy_core::Pipeline;
//! use privacy_model::RiskLevel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = casestudy::healthcare()?;
//! let pipeline = Pipeline::new(&system);
//! let outcome = pipeline.analyse_user(&casestudy::case_a_user())?;
//! assert_eq!(outcome.report.overall_level(), RiskLevel::Medium);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod casestudy;
pub mod pipeline;
pub mod system;

pub use pipeline::{Pipeline, PipelineOutcome, PopulationOutcome};
pub use system::{PrivacySystem, PrivacySystemBuilder};
