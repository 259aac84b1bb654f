//! Seeded inputs for the operation workloads, and the offline oracle their
//! outputs are checked against.
//!
//! A corpus is a population of user profiles plus a rendered log: a seeded
//! `privacy-synth` workload replayed through the service engine, written one
//! event per line. The oracle digests are the alerts an
//! `IndexedMonitor::ingest_batch` over the same events raises, taken once
//! per prefix a phase will offer.
//!
//! The log and its oracle are generated by a child process, so the
//! generator's heap never counts towards the memory the measured phases
//! report. The profiles are cheap to regenerate from the seed, and the
//! parent does so: set-up registers them.

use crate::measure::AlertDigest;
use crate::operation::build_monitor;
use crate::Workload;
use privacy_mde::core::{casestudy, PrivacySystem};
use privacy_mde::model::{FieldId, Record, ServiceId, UserId, UserProfile};
use privacy_mde::runtime::{Event, ServiceEngine};
use privacy_mde::synth::{
    random_profiles, random_workload, render_event, skewed_population, LogFormat,
    ProfileGeneratorConfig, SkewedPopulationConfig, WorkloadConfig,
};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Generate a corpus and exit: the flag the benchmark passes to the child
/// process it spawns for that.
pub(crate) const GENERATE_FLAG: &str = "--generate-corpus";

const LOG: &str = "corpus.log";
const ORACLE: &str = "corpus.oracle";

/// Who is registered before the log starts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Population {
    /// `random_profiles`: every user consents and declares sensitivities
    /// with the same probabilities; the log draws on all of them.
    Uniform(usize),
    /// `skewed_population`: a cold majority and a ~10% engaged minority;
    /// the log draws on the engaged users only.
    Skewed(usize),
}

/// What to generate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CorpusSpec {
    pub(crate) population: Population,
    pub(crate) format: LogFormat,
}

/// A prefix of the log a phase offers, with its oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Prefix {
    pub(crate) lines: u64,
    pub(crate) bytes: u64,
    pub(crate) digest: AlertDigest,
}

/// A generated log on disk plus everything needed to replay and check it.
#[derive(Debug)]
pub(crate) struct Corpus {
    pub(crate) path: PathBuf,
    pub(crate) profiles: Vec<UserProfile>,
    /// Sequence number of line 0; line `i` carries `first_sequence + i`.
    pub(crate) first_sequence: u64,
    prefixes: Vec<Prefix>,
}

/// The registered population and the users the log draws on.
fn population(
    system: &PrivacySystem,
    spec: CorpusSpec,
    seed: u64,
) -> (Vec<UserProfile>, Vec<UserId>) {
    let catalog = system.catalog();
    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    match spec.population {
        Population::Uniform(count) => {
            let profiles = random_profiles(&ProfileGeneratorConfig {
                count,
                seed,
                services,
                consent_probability: 0.5,
                fields,
                sensitivity_probability: 0.6,
            });
            let active = profiles.iter().map(|p| p.id().clone()).collect();
            (profiles, active)
        }
        Population::Skewed(count) => {
            let population = skewed_population(&SkewedPopulationConfig {
                count,
                seed,
                services,
                fields,
                ..SkewedPopulationConfig::default()
            });
            (population.profiles, population.engaged)
        }
    }
}

fn healthcare() -> Result<PrivacySystem, String> {
    casestudy::healthcare().map_err(|error| format!("healthcare model: {error}"))
}

/// Generates a log of `lines` lines for `seed` into `dir`, with oracles
/// for the whole log and for each prefix length in `cuts` (clamped to the
/// log).
pub(crate) fn generate(
    spec: CorpusSpec,
    seed: u64,
    dir: &Path,
    lines: u64,
    cuts: &[u64],
) -> Result<(), String> {
    if lines == 0 {
        return Err("corpus: a log needs at least one line".to_owned());
    }
    let system = healthcare()?;
    let catalog = system.catalog();
    let (profiles, active) = population(&system, spec, seed);
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let record = fields
        .iter()
        .fold(Record::new(), |record, field| record.with(field.clone(), format!("v-{field}")));
    // Every service request logs at least two events; the log stops at
    // exactly `lines` events.
    let workload = random_workload(&WorkloadConfig {
        length: lines.div_ceil(2) as usize,
        seed: seed.wrapping_add(1),
        users: active,
        services: catalog.services().map(|s| (s.id().clone(), 1.0)).collect(),
    });
    let mut ends: Vec<u64> = cuts.iter().map(|&cut| cut.clamp(1, lines)).collect();
    ends.push(lines);
    ends.sort_unstable();
    ends.dedup();

    let path = dir.join(LOG);
    let file = std::fs::File::create(&path)
        .map_err(|error| format!("corpus: creating {}: {error}", path.display()))?;
    let mut out = BufWriter::new(file);
    let (mut oracle_monitor, _) = build_monitor(&system, &profiles)?;
    let mut scratch = String::new();
    let mut digest = AlertDigest::default();
    let mut pending: Vec<Event> = Vec::new();
    let mut written = 0u64;
    let mut bytes = 0u64;
    let mut oracle = String::new();
    let mut first_sequence = None;

    // The events of a request do not depend on the engine's stored data, so
    // the engine (and its log) is renewed every chunk of requests to bound
    // memory; sequence numbers continue across chunks. The oracle monitor
    // sees the events in stream order, in batches.
    'requests: for chunk in workload.chunks(4096) {
        let mut engine = ServiceEngine::new(
            catalog.clone(),
            system.dataflows().clone(),
            system.policy().clone(),
        );
        for request in chunk {
            let Ok(outcome) = engine.execute(request.user(), request.service(), &record) else {
                continue;
            };
            for event in outcome.events() {
                let first = *first_sequence.get_or_insert(event.sequence());
                let event = Event::new(
                    first + written,
                    event.user().clone(),
                    event.service().clone(),
                    event.actor().clone(),
                    event.action(),
                    event.fields().iter().cloned(),
                    event.datastore().cloned(),
                    event.permitted(),
                );
                let mut line = render_event(&event, spec.format);
                line.push('\n');
                out.write_all(line.as_bytes())
                    .map_err(|error| format!("corpus: writing {}: {error}", path.display()))?;
                bytes += line.len() as u64;
                written += 1;
                pending.push(event);
                let at_cut = ends.contains(&written);
                if at_cut || pending.len() >= 8192 {
                    for alert in oracle_monitor.ingest_batch(&pending) {
                        digest.add(&alert, &mut scratch);
                    }
                    pending.clear();
                }
                if at_cut {
                    let _ = writeln!(
                        oracle,
                        "prefix {written} {bytes} {} {}",
                        digest.count, digest.sum
                    );
                }
                if written == lines {
                    break 'requests;
                }
            }
        }
    }
    out.flush().map_err(|error| format!("corpus: writing {}: {error}", path.display()))?;
    if written < lines {
        return Err(format!("corpus: {} requests logged only {written} events", workload.len()));
    }
    let first_sequence = first_sequence.unwrap_or_default();
    std::fs::write(dir.join(ORACLE), format!("first_sequence {first_sequence}\n{oracle}"))
        .map_err(|error| format!("corpus: writing the oracle: {error}"))
}

impl Corpus {
    /// Generates the `lines`-line corpus of `workload` for `seed` into
    /// `dir` in a child process (in process under `cargo test`), then loads
    /// it.
    pub(crate) fn build(
        workload: Workload,
        spec: CorpusSpec,
        seed: u64,
        dir: &Path,
        lines: u64,
        cuts: &[u64],
    ) -> Result<Corpus, String> {
        if cfg!(test) {
            generate(spec, seed, dir, lines, cuts)?;
        } else {
            let program = std::env::current_exe()
                .map_err(|error| format!("locating this executable: {error}"))?;
            let cuts: Vec<String> = cuts.iter().map(u64::to_string).collect();
            let status = std::process::Command::new(program)
                .arg(GENERATE_FLAG)
                .arg(workload.name())
                .arg(seed.to_string())
                .arg(dir)
                .arg(lines.to_string())
                .arg(cuts.join(","))
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|error| format!("corpus: spawning the generator: {error}"))?;
            if !status.success() {
                return Err(format!("corpus: the generator failed ({status})"));
            }
        }
        let (profiles, _) = population(&healthcare()?, spec, seed);
        let oracle = std::fs::read_to_string(dir.join(ORACLE))
            .map_err(|error| format!("corpus: reading the oracle: {error}"))?;
        let mut first_sequence = None;
        let mut prefixes = Vec::new();
        for line in oracle.lines() {
            let fields: Vec<u64> =
                line.split_whitespace().skip(1).filter_map(|field| field.parse().ok()).collect();
            match (line.split_whitespace().next(), fields.as_slice()) {
                (Some("first_sequence"), &[first]) => first_sequence = Some(first),
                (Some("prefix"), &[lines, bytes, count, sum]) => {
                    prefixes.push(Prefix { lines, bytes, digest: AlertDigest { count, sum } });
                }
                _ => return Err(format!("corpus: bad oracle line `{line}`")),
            }
        }
        let first_sequence = first_sequence.ok_or("corpus: the oracle names no first sequence")?;
        if prefixes.is_empty() {
            return Err("corpus: the oracle holds no prefix".to_owned());
        }
        Ok(Corpus { path: dir.join(LOG), profiles, first_sequence, prefixes })
    }

    /// The whole log.
    pub(crate) fn full(&self) -> Prefix {
        *self.prefixes.last().expect("the oracle holds at least one prefix")
    }

    /// The prefix of `lines` lines (clamped to the log), which must have
    /// been requested at build time.
    pub(crate) fn prefix(&self, lines: u64) -> Prefix {
        let lines = lines.clamp(1, self.full().lines);
        *self
            .prefixes
            .iter()
            .find(|prefix| prefix.lines == lines)
            .expect("every phase's prefix is requested when the corpus is built")
    }
}
