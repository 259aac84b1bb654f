//! # privacy-synth
//!
//! Synthetic data and workload generation.
//!
//! The paper evaluates its method on a doctors'-surgery case study with
//! health records and profiled users. Real patient data and real user
//! questionnaires are obviously unavailable, so this crate generates the
//! closest synthetic equivalents (the substitution is documented in
//! DESIGN.md):
//!
//! * [`records`] — health-record datasets: the exact six records behind
//!   Table I plus seeded random populations with controllable distributions
//!   for the scaling benchmarks;
//! * [`profiles`] — user sensitivity profiles and consent assignments (the
//!   Case Study A profile plus random populations of users);
//! * [`workload`] — sequences of service executions used to drive the
//!   runtime simulator;
//! * [`models`] — random whole-system models (catalog, data flows, access
//!   policy) for the LTS engine's differential tests and scaling benches;
//! * [`population`] — skewed large populations (a small engaged minority,
//!   a cold majority) for the snapshot-footprint benchmarks;
//! * [`logs`] — renders an event log back out in real wire formats (JSON
//!   lines, logfmt, CSV): the synthetic-log emitter behind the
//!   `privacy-ingest` round-trip differential tests.
//!
//! All generators are deterministic given a seed so experiments are
//! reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod logs;
pub mod models;
pub mod population;
pub mod profiles;
pub mod records;
pub mod workload;

pub use logs::{render_event, render_events, render_log, LogFormat, CSV_HEADER};
pub use models::{random_model, GeneratedModel, ModelGeneratorConfig};
pub use population::{
    skewed_population, SkewedPopulation, SkewedPopulationConfig, SENSITIVITY_PALETTE,
};
pub use profiles::{case_a_profile, random_profiles, ProfileGeneratorConfig};
pub use records::{
    random_health_records, table1_raw_records, table1_release, RecordGeneratorConfig,
};
pub use workload::{random_workload, ServiceRequest, WorkloadConfig};
