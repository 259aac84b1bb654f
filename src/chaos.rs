//! Failure injection for the live pipeline, and its differential oracle.
//!
//! The chaos harness (`tests/live_chaos.rs`, `bench/live_chaos`) needs two
//! things this module provides:
//!
//! * **A scripted hostile writer.** [`ChaosScript`] appends a log to a
//!   followed file in steps — torn writes cut at arbitrary byte
//!   boundaries, rotation mid-record, in-place truncation, stalls — while
//!   the pipeline tails it. The script returns the exact byte stream the
//!   tail *observed* (rotations and truncations included), which is the
//!   reference input for the offline run. Steps that would race the tail
//!   (rotate, truncate) synchronise on the pipeline's
//!   [`PipelineProgress::bytes`] counter first, so the observed stream is
//!   deterministic.
//! * **The offline oracle.** [`offline_reference`] runs the same observed
//!   bytes through [`privacy_ingest::ingest_bytes`] and a fresh
//!   [`IndexedMonitor`] with the same
//!   first-sight registration the pipeline uses. The differential
//!   contract — live alerts equal offline alerts, and the dead-letter
//!   file accounts for exactly the records the offline run refuses — is
//!   checked by `assert_differential`-style comparisons in the tests.

use crate::pipeline::{IndexedSink, MonitorSink, PipelineProgress};
use privacy_core::{casestudy, PrivacySystem};
use privacy_ingest::{ingest_bytes, ErrorPolicy, FieldMapping, IngestOptions, IngestReport};
use privacy_lts::LtsIndex;
use privacy_model::{FieldId, Record, ServiceId, UserProfile};
use privacy_runtime::{Event, IndexedMonitor, ServiceEngine};
use privacy_synth::{random_profiles, random_workload, ProfileGeneratorConfig, WorkloadConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One step of the hostile writer.
#[derive(Debug, Clone)]
pub enum ChaosStep {
    /// Append bytes to the followed file (creating it if needed). Torn
    /// writes are successive appends cut mid-record or mid-byte-run.
    Append(Vec<u8>),
    /// Block until the pipeline has observed every byte written so far.
    WaitObserved,
    /// Rotate: rename the file aside and let the next append create a
    /// fresh one. Waits for observation first (the tail drains the old
    /// segment before switching, so the observed stream stays
    /// deterministic).
    Rotate,
    /// Truncate the file in place (same inode) and write this new
    /// content. Waits for observation first.
    Truncate(Vec<u8>),
    /// The writer stalls; the tail must idle without losing state.
    Stall(Duration),
}

/// Splits `corpus` into torn appends cut at the given byte offsets, with
/// a stall between flushes so each lands in a separate read.
#[must_use]
pub fn torn_appends(corpus: &[u8], cuts: &[usize], stall: Duration) -> Vec<ChaosStep> {
    let mut steps = Vec::new();
    let mut last = 0usize;
    for &cut in cuts {
        let cut = cut.min(corpus.len());
        if cut > last {
            steps.push(ChaosStep::Append(corpus[last..cut].to_vec()));
            steps.push(ChaosStep::Stall(stall));
            last = cut;
        }
    }
    if last < corpus.len() {
        steps.push(ChaosStep::Append(corpus[last..].to_vec()));
    }
    steps
}

/// Flips one byte in the middle of a gzip archive, corrupting it the way
/// the distrib fault plan corrupts checkpoints.
#[must_use]
pub fn corrupt_gzip(mut archive: Vec<u8>) -> Vec<u8> {
    let middle = archive.len() / 2;
    archive[middle] ^= 0xFF;
    archive
}

/// The scripted hostile writer. See the module docs.
#[derive(Debug)]
pub struct ChaosScript {
    path: PathBuf,
    steps: Vec<ChaosStep>,
    /// How long a `WaitObserved` may block before the script fails.
    pub wait_timeout: Duration,
}

impl ChaosScript {
    /// A script writing to `path`.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, steps: Vec<ChaosStep>) -> Self {
        ChaosScript { path: path.into(), steps, wait_timeout: Duration::from_secs(30) }
    }

    /// Executes every step against a pipeline whose `progress` counters
    /// are shared, returning the byte stream the tail observed — the
    /// offline reference input.
    ///
    /// # Errors
    ///
    /// A rendered IO error, or a timeout waiting for the pipeline to
    /// observe written bytes (a stalled pipeline is itself a failure).
    pub fn run(&self, progress: &PipelineProgress) -> Result<Vec<u8>, String> {
        let mut observed: Vec<u8> = Vec::new();
        let mut rotated = 0usize;
        for step in &self.steps {
            match step {
                ChaosStep::Append(bytes) => {
                    append(&self.path, bytes)?;
                    observed.extend_from_slice(bytes);
                }
                ChaosStep::WaitObserved => {
                    self.wait_observed(progress, observed.len() as u64)?;
                }
                ChaosStep::Rotate => {
                    self.wait_observed(progress, observed.len() as u64)?;
                    rotated += 1;
                    let aside = self.path.with_extension(format!("{rotated}.old"));
                    std::fs::rename(&self.path, &aside)
                        .map_err(|error| format!("rotating {}: {error}", self.path.display()))?;
                }
                ChaosStep::Truncate(bytes) => {
                    self.wait_observed(progress, observed.len() as u64)?;
                    std::fs::write(&self.path, bytes)
                        .map_err(|error| format!("truncating {}: {error}", self.path.display()))?;
                    observed.extend_from_slice(bytes);
                }
                ChaosStep::Stall(duration) => std::thread::sleep(*duration),
            }
        }
        // The pipeline must observe the full stream before the caller
        // requests a drain, or the comparison races the last write.
        self.wait_observed(progress, observed.len() as u64)?;
        Ok(observed)
    }

    fn wait_observed(&self, progress: &PipelineProgress, target: u64) -> Result<(), String> {
        let deadline = Instant::now() + self.wait_timeout;
        while progress.bytes.load(Ordering::Relaxed) < target {
            if Instant::now() > deadline {
                return Err(format!(
                    "pipeline observed {} of {target} bytes within {:?}",
                    progress.bytes.load(Ordering::Relaxed),
                    self.wait_timeout,
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

fn append(path: &Path, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|error| format!("opening {}: {error}", path.display()))?;
    file.write_all(bytes).map_err(|error| format!("appending {}: {error}", path.display()))?;
    file.flush().map_err(|error| format!("flushing {}: {error}", path.display()))
}

/// The shared model context behind both the live pipeline and the offline
/// oracle: the paper's healthcare case study, its LTS index, and the
/// service list for first-sight consent.
pub struct MonitorContext {
    system: PrivacySystem,
    index: std::sync::Arc<LtsIndex>,
    services: Vec<ServiceId>,
    population: Vec<UserProfile>,
}

impl MonitorContext {
    /// Builds the healthcare case-study context, with a seeded
    /// partial-consent population registered on every monitor it hands
    /// out — so the chaos corpus actually raises alerts and the
    /// live-vs-offline alert differential is never vacuously true.
    ///
    /// # Errors
    ///
    /// A rendered model or LTS generation failure.
    pub fn healthcare() -> Result<Self, String> {
        let system =
            casestudy::healthcare().map_err(|error| format!("healthcare model: {error}"))?;
        let lts = system.generate_lts().map_err(|error| format!("generating LTS: {error}"))?;
        let index = std::sync::Arc::new(LtsIndex::build(&lts));
        let services: Vec<ServiceId> =
            system.catalog().services().map(|s| s.id().clone()).collect();
        let fields: Vec<FieldId> = system.catalog().fields().map(|f| f.id().clone()).collect();
        let population = random_profiles(&ProfileGeneratorConfig {
            count: 24,
            seed: 13,
            services: services.clone(),
            consent_probability: 0.5,
            fields,
            sensitivity_probability: 0.6,
        });
        Ok(MonitorContext { system, index, services, population })
    }

    /// The registered user population (the chaos corpus replays these
    /// users' requests).
    #[must_use]
    pub fn population(&self) -> &[UserProfile] {
        &self.population
    }

    /// The seeded healthcare event stream the chaos scenarios feed: the
    /// population's requests replayed through the service engine.
    #[must_use]
    pub fn corpus_events(&self, requests: usize) -> Vec<Event> {
        let fields: Vec<FieldId> = self.system.catalog().fields().map(|f| f.id().clone()).collect();
        let mut engine = ServiceEngine::new(
            self.system.catalog().clone(),
            self.system.dataflows().clone(),
            self.system.policy().clone(),
        );
        let workload = random_workload(&WorkloadConfig {
            length: requests,
            seed: 17,
            users: self.population.iter().map(|u| u.id().clone()).collect(),
            services: self.services.iter().map(|s| (s.clone(), 1.0)).collect(),
        });
        for request in &workload {
            let record = fields.iter().fold(Record::new(), |record, field| {
                record.with(field.clone(), format!("v-{field}"))
            });
            let _ = engine.execute(request.user(), request.service(), &record);
        }
        engine.log().events().to_vec()
    }

    /// The underlying system.
    #[must_use]
    pub fn system(&self) -> &PrivacySystem {
        &self.system
    }

    /// The LTS index.
    #[must_use]
    pub fn index(&self) -> &std::sync::Arc<LtsIndex> {
        &self.index
    }

    /// Every catalog service (first-sight profiles consent to these).
    #[must_use]
    pub fn services(&self) -> &[ServiceId] {
        &self.services
    }

    /// A fresh indexed monitor over this context, with the seeded
    /// population registered (users outside it are still covered by the
    /// sink's first-sight registration).
    #[must_use]
    pub fn monitor(&self) -> IndexedMonitor {
        let mut monitor = IndexedMonitor::new(
            self.system.catalog().clone(),
            self.system.policy().clone(),
            std::sync::Arc::clone(&self.index),
        );
        for user in &self.population {
            monitor.register_user(user);
        }
        monitor
    }

    /// A fresh [`IndexedSink`] over this context.
    #[must_use]
    pub fn indexed_sink(&self, no_consent: bool) -> IndexedSink {
        IndexedSink::new(self.monitor(), self.services.clone(), no_consent)
    }
}

/// What the offline oracle produced for a byte stream.
pub struct OfflineRun {
    /// Every alert, rendered, in ingestion order.
    pub alerts: Vec<String>,
    /// The full ingest report (events, diagnostics with offsets, stats).
    pub report: IngestReport,
}

/// Runs the observed bytes through the offline single-process path:
/// [`ingest_bytes`] under [`ErrorPolicy::Skip`], then one fresh indexed
/// monitor with the pipeline's first-sight registration (empty consent
/// under `no_consent`).
///
/// # Errors
///
/// A rendered stream-level ingest failure (corrupt gzip, undetectable
/// format) — the same classes that abort the live pipeline.
pub fn offline_reference(
    context: &MonitorContext,
    bytes: &[u8],
    mapping: &FieldMapping,
    batch: usize,
    no_consent: bool,
) -> Result<OfflineRun, String> {
    let options = IngestOptions { policy: ErrorPolicy::Skip, ..IngestOptions::default() };
    let report =
        ingest_bytes(bytes, mapping, &options).map_err(|error| format!("offline: {error}"))?;
    let mut sink = context.indexed_sink(no_consent);
    let mut alerts = Vec::new();
    for batch in report.events.chunks(batch.max(1)) {
        let raised = sink.ingest(batch).map_err(|error| error.to_string())?;
        alerts.extend(raised.iter().map(ToString::to_string));
    }
    let late = sink.flush().map_err(|error| error.to_string())?;
    alerts.extend(late.iter().map(ToString::to_string));
    Ok(OfflineRun { alerts, report })
}

/// Sorted copies of two alert streams, for order-insensitive comparison
/// (the distributed sink interleaves worker acks).
#[must_use]
pub fn sorted(alerts: &[String]) -> Vec<String> {
    let mut sorted = alerts.to_vec();
    sorted.sort();
    sorted
}
