//! # privacy-compliance
//!
//! Privacy-policy compliance checking for the model-driven framework of
//! *"Identifying Privacy Risks in Distributed Data Services"* (Grace et al.,
//! ICDCS 2018).
//!
//! Section V of the paper observes that a system's behaviour should be
//! matched against its own stated privacy policy and notes that the
//! generated LTS "can be similarly analysed".  This crate provides that
//! analysis:
//!
//! * [`statement`] — the machine-checkable vocabulary of policy statements:
//!   prohibitions ([`StatementKind::Forbid`]), purpose limitation, service
//!   limitation, the right to erasure and exposure bounds;
//! * [`policy`] — [`PrivacyPolicy`]: a named collection of statements, plus
//!   [`baseline_policy`] which derives GDPR-style hygiene obligations from a
//!   catalog;
//! * [`lts_check`] — design-time checking of a policy against the generated
//!   LTS privacy model: [`check_lts`] probes an
//!   [`privacy_lts::LtsIndex`] built once per call (or reused across calls
//!   via [`check_lts_indexed`] and the parallel [`check_lts_batch_indexed`]), while
//!   [`check_lts_scan`] retains the original full-scan semantics for
//!   differential testing;
//! * [`runtime_check`] — operation-time checking of the same policy against
//!   the event logs produced by the [`privacy_runtime`] service simulator:
//!   [`check_log`] decides each statement once per label group of a
//!   [`privacy_runtime::EventLogIndex`] built once per call, while
//!   [`check_log_scan`] retains the original per-statement full scans for
//!   differential testing; periodic audits over the append-only log go
//!   through [`check_log_checkpointed`] with an [`AuditCheckpoint`], paying
//!   only for the suffix appended since the previous audit (and, from no
//!   checkpoint, reusing one index across policies);
//! * [`report`] — the per-statement pass / fail / skipped outcome and a
//!   renderable [`ComplianceReport`].
//!
//! # Example
//!
//! ```
//! use privacy_compliance::{check_lts, ActorMatcher, FieldMatcher, PrivacyPolicy, Statement};
//! use privacy_core::casestudy;
//! use privacy_lts::ActionKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = casestudy::healthcare()?;
//! let lts = system.generate_lts()?;
//!
//! // "Only the care team may read the diagnosis."
//! let policy = PrivacyPolicy::new("clinic promises").with_statement(Statement::forbid(
//!     "NO-ADMIN-READ",
//!     "administrators never read the diagnosis",
//!     ActorMatcher::only([casestudy::actors::administrator()]),
//!     Some(ActionKind::Read),
//!     FieldMatcher::only([casestudy::fields::diagnosis()]),
//! ));
//!
//! let report = check_lts(&lts, &policy);
//! // The default access policy lets the administrator read the EHR, so the
//! // promise does not hold — exactly the unwanted disclosure of Case Study A.
//! assert!(!report.is_compliant());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lts_check;
pub mod policy;
pub mod report;
pub mod runtime_check;
pub mod statement;

pub use lts_check::{check_lts, check_lts_batch_indexed, check_lts_indexed, check_lts_scan};
pub use policy::{baseline_policy, forbid_non_allowed, PrivacyPolicy};
pub use report::{ComplianceReport, StatementOutcome, Violation};
pub use runtime_check::{
    check_log, check_log_checkpointed, check_log_scan, AuditCheckpoint, AuditError,
};
pub use statement::{ActorMatcher, FieldMatcher, Statement, StatementKind};
