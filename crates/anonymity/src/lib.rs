//! # privacy-anonymity
//!
//! Pseudonymisation / anonymisation substrate for the model-driven privacy
//! framework (Section III-B of Grace et al., ICDCS 2018).
//!
//! The paper's pseudonymisation-risk analysis assumes the system discloses
//! k-anonymised versions of sensitive datasets and asks whether an adversary
//! who can see the pseudonymised quasi-identifiers can still match a
//! sensitive *value* to an individual. This crate provides everything that
//! analysis needs:
//!
//! * [`hierarchy`] — generalisation hierarchies for numeric (interval bands)
//!   and categorical values;
//! * [`kanon`] — a k-anonymiser (global recoding over the hierarchies, with
//!   record suppression as a fallback) and equivalence-class computation;
//! * [`ldiversity`] — distinct l-diversity checking, the mitigation the paper
//!   cites for the residual value risk of k-anonymity;
//! * [`tcloseness`] — t-closeness checking (ordered-EMD for numeric values,
//!   total-variation for categorical values), guarding against the skewness
//!   attacks that l-diversity still permits;
//! * [`pseudonym`] — deterministic tokenisation of direct identifiers;
//! * [`value_risk`](mod@value_risk) — the paper's per-record value-risk score
//!   `risk(r, f) = frequency(f) / size(s)` (Table I) and violation counting
//!   against a designer policy such as *"weight must not be predictable to
//!   ±5 kg with ≥90 % confidence"*;
//! * [`utility`] — utility metrics (mean / variance preservation,
//!   generalisation information loss, suppression rate) used to judge
//!   whether a pseudonymisation technique removes too much information.
//!
//! # Example
//!
//! ```
//! use privacy_anonymity::{Hierarchy, KAnonymizer};
//! use privacy_model::{Dataset, FieldId, Record};
//!
//! // Two quasi-identifiers, one sensitive value.
//! let data = Dataset::from_records(
//!     [FieldId::new("Age"), FieldId::new("Weight")],
//!     [
//!         Record::new().with("Age", 34).with("Weight", 100.0),
//!         Record::new().with("Age", 36).with("Weight", 102.0),
//!     ],
//! );
//! let mut anonymiser = KAnonymizer::new(2)
//!     .with_hierarchy(FieldId::new("Age"), Hierarchy::numeric([10.0, 20.0, 50.0]));
//! let result = anonymiser.anonymise(&data, &[FieldId::new("Age")]).unwrap();
//! assert!(result.is_k_anonymous());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hierarchy;
pub mod kanon;
pub mod ldiversity;
pub mod pseudonym;
pub mod tcloseness;
pub mod utility;
pub mod value_risk;

pub use hierarchy::Hierarchy;
pub use kanon::{AnonymisationResult, EquivalenceClass, KAnonymizer};
pub use ldiversity::{l_diversity_of, satisfies_l_diversity};
pub use pseudonym::Pseudonymizer;
pub use tcloseness::{satisfies_t_closeness, t_closeness_of};
pub use utility::{utility_report, UtilityReport};
pub use value_risk::{value_risk, RecordRisk, ValueRiskPolicy, ValueRiskReport};
