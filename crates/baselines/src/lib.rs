//! # privacy-baselines
//!
//! Baseline / comparator analysers drawn from the paper's related-work
//! section (Section V). The paper positions its model-driven method against
//! existing tools; to let the benchmarks make those comparisons concrete,
//! this crate implements simplified but faithful versions of the analyses
//! those tools provide:
//!
//! * [`reident`] — ARX-style re-identification risk under the prosecutor,
//!   journalist and marketer attacker models;
//! * [`cat`] — Cornell Anonymization Toolkit (CAT)-style per-record
//!   disclosure risk under explicit adversary background knowledge;
//! * [`linddun`] — a LINDDUN-style privacy-threat-catalogue pass over the
//!   data-flow diagrams (design-time threat elicitation without a formal
//!   model);
//! * [`fsm`] — a hand-crafted finite-state-machine specification of the
//!   Medical Service in the style of Fischer-Hübner and Kosa, used to
//!   compare manual specification effort against the automatically
//!   generated LTS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cat;
pub mod fsm;
pub mod linddun;
pub mod reident;

pub use cat::{record_disclosure_risks, records_at_risk, BackgroundKnowledge};
pub use fsm::{handcrafted_medical_service_fsm, HandcraftedFsm};
pub use linddun::{threat_catalogue_pass, Threat, ThreatCategory};
pub use reident::{journalist_risk, marketer_risk, prosecutor_risk, ReidentificationRisk};
