//! Real-world log ingestion for the privacy runtime monitors.
//!
//! The paper's runtime verification story assumes events arrive in the
//! monitor's native shape; production systems instead emit JSON lines,
//! logfmt, or CSV — often gzip-compressed, often slightly broken. This
//! crate is the hardened front door between those logs and
//! [`privacy_runtime`]:
//!
//! * **format parsers** ([`json`], [`logfmt`], [`csv`] modules) turn lines
//!   into uniform [`RawRecord`]s with byte-accurate error provenance;
//! * **a declarative [`FieldMapping`]** names which log field supplies each
//!   event column (user, actor, service, action, fields, datastore,
//!   permitted), with per-field defaults and a verb-alias table;
//! * **a [`Resolver`]** turns mapped records into monitor-ready
//!   [`privacy_runtime::Event`]s with monotone sequence numbers;
//! * **[`ingest_bytes`]** runs the whole pipeline — gzip auto-detection
//!   ([`gzip`] is a dependency-free RFC 1952/1951 codec), line splitting,
//!   format auto-detection — under a skip-with-diagnostics or fail-fast
//!   [`ErrorPolicy`].
//!
//! The contract throughout: malformed input yields a typed
//! [`IngestError`], never a panic. The crate's corpus and property tests
//! (see `tests/`) fuzz that contract directly.

pub mod csv;
pub mod deadletter;
pub mod error;
pub mod gzip;
pub mod json;
pub mod live;
pub mod logfmt;
pub mod mapping;
pub mod reader;
pub mod record;
pub mod resolve;
pub mod stream;

pub use deadletter::{DeadLetterRecord, DeadLetterWriter};
pub use error::{ErrorPolicy, IngestError, Role};
pub use gzip::{gunzip, gzip_compress_stored, is_gzip, GzipError};
pub use live::{FollowConfig, LiveSource, SourceEvent};
pub use mapping::FieldMapping;
pub use reader::{ingest_bytes, Diagnostic, Format, IngestOptions, IngestReport, IngestStats};
pub use record::{RawRecord, RawValue};
pub use resolve::Resolver;
pub use stream::{LineIngestor, LinePush, QuarantinedLine};
