//! # privacy-runtime
//!
//! A distributed data-service simulator and runtime privacy monitor.
//!
//! The paper argues that the generated privacy model is useful not only at
//! design time but also *"to monitor the privacy risks during the lifetime of
//! the service (as the users, data, and behaviour may change)"*. The authors'
//! OPERANDO deployment is not available, so this crate provides the closest
//! substitute: an in-process service runtime that executes the modelled
//! data flows as discrete events against in-memory datastores (with access
//! control enforced), an append-only event log, and runtime monitors that
//! walk each user's privacy state as the events arrive.
//!
//! * [`event`] — privacy events and the event log;
//! * [`store`] — in-memory, access-controlled datastores;
//! * [`engine`] — the service engine executing data-flow diagrams;
//! * [`monitor`] — the runtime [`Alert`], and the scan-path
//!   [`RuntimeMonitor`](monitor::RuntimeMonitor) kept as the differential
//!   oracle the indexed monitor is tested against;
//! * [`indexed`] — the index-backed streaming monitor: events resolve once
//!   through the shared [`privacy_lts::LtsIndex`] interners and per-user
//!   state is sharded by `UserId` hash over worker threads, with an alert
//!   stream pinned identical to the scan monitor;
//! * [`log_index`] — the [`EventLogIndex`], the permitted events grouped by
//!   label, which the operation-time compliance checker probes once per
//!   label instead of re-scanning the log per statement,
//!   append-aware so periodic audits over the (append-only) log pay only for
//!   the new suffix;
//! * [`snapshot`] — versioned, checksummed [`MonitorSnapshot`]s so a monitor
//!   can restart mid-stream and resume exactly where it left off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod indexed;
pub mod log_index;
pub mod monitor;
pub mod snapshot;
pub mod store;

pub use engine::{ExecutionOutcome, ServiceEngine, ServiceRequest};
pub use event::{Event, EventLog};
pub use indexed::{shard_of_user, IndexedMonitor, SHARD_COUNT};
pub use log_index::{ErasureTimeline, EventLogIndex};
pub use monitor::Alert;
pub use snapshot::{MonitorSnapshot, ShardSnapshot, SnapshotError};
pub use store::DatastoreState;
