//! `privacy-monitor`: run real logs through the indexed runtime monitor.
//!
//! The end-to-end wiring of the ingestion front end: a log file (or stdin),
//! in JSON lines / logfmt / CSV — gzip-compressed or plain — is parsed
//! through a [`FieldMapping`], resolved into events, and batch-ingested
//! into an [`IndexedMonitor`] over the paper's healthcare case-study model.
//! Alerts print live as batches complete; `--checkpoint` persists a
//! [`MonitorSnapshot`] after every batch — written atomically through
//! [`CheckpointStore`] (temp file + fsync + rename, with the previous
//! generation kept as `<path>.prev`) so a crash mid-write can never leave a
//! torn checkpoint. `--resume` loads the newest generation that decodes,
//! falling back to `.prev` with a typed warning when the live file is
//! corrupt.
//!
//! ```text
//! privacy-monitor [FILE|-] [--format auto|json|logfmt|csv]
//!                 [--error-policy fail-fast|skip] [--batch N] [--threads N]
//!                 [--checkpoint PATH] [--resume PATH] [--aliases]
//!                 [--no-consent] [--quiet]
//!                 [--follow] [--poll-ms N] [--dead-letter PATH]
//!                 [--stop-file PATH]
//! ```
//!
//! `--follow` switches from the one-shot offline run to the live pipeline
//! ([`privacy_mde::pipeline::PipelineRunner`]): the input file is tailed as
//! it grows (rotation and truncation are handled; stdin becomes a
//! long-lived pipe), poison records are quarantined to the `--dead-letter`
//! NDJSON file with their byte offsets, and creating `--stop-file` requests
//! a graceful drain — alerts flushed, one final resumable checkpoint
//! written. A later `--follow --resume PATH` run continues the identical
//! stream from that checkpoint.
//!
//! Unknown users are registered on first sight — consenting to every
//! catalog service by default (so alerts reflect risky *actions*, not a
//! blanket absence of consent), or with empty consent under `--no-consent`.
//!
//! Exit codes follow the [`privacy_distrib::exit`] taxonomy: 0 ok, 2 usage,
//! 10 ingestion failed, 11 snapshot/model state failed, 12 I/O failed — see
//! `--help`.

use privacy_core::{casestudy, PrivacySystem};
use privacy_distrib::{exit, CheckpointStore};
use privacy_ingest::{ingest_bytes, ErrorPolicy, FieldMapping, Format, IngestOptions, LiveSource};
use privacy_lts::LtsIndex;
use privacy_mde::pipeline::{
    IndexedSink, PipelineCheckpoint, PipelineConfig, PipelineError, PipelineRunner,
};
use privacy_model::{ServiceId, UserId, UserProfile};
use privacy_runtime::{Event, IndexedMonitor, MonitorSnapshot};
use std::collections::BTreeSet;
use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    input: String,
    format: Option<Format>,
    policy: ErrorPolicy,
    batch: usize,
    threads: Option<usize>,
    checkpoint: Option<String>,
    resume: Option<String>,
    aliases: bool,
    no_consent: bool,
    quiet: bool,
    follow: bool,
    poll_ms: u64,
    dead_letter: Option<PathBuf>,
    stop_file: Option<PathBuf>,
}

const USAGE: &str = "usage: privacy-monitor [FILE|-] [--format auto|json|logfmt|csv] \
                     [--error-policy fail-fast|skip] [--batch N] [--threads N] \
                     [--checkpoint PATH] [--resume PATH] [--aliases] [--no-consent] [--quiet] \
                     [--follow] [--poll-ms N] [--dead-letter PATH] [--stop-file PATH]";

const HELP_EXIT_CODES: &str = "\
Checkpointing:
  --checkpoint PATH   after every batch, atomically replace PATH (temp file +
                      fsync + rename); the prior generation is kept at
                      PATH.prev
  --resume PATH       resume from the newest generation of PATH that decodes,
                      falling back to PATH.prev with a warning if the live
                      file is corrupt

Live operation:
  --follow            tail FILE as it grows (rotation and truncation are
                      handled) or treat stdin as a long-lived pipe, instead
                      of the one-shot offline run; checkpoints become
                      resumable pipeline checkpoints (offset + monitor state)
  --poll-ms N         tail poll interval in milliseconds (default 25)
  --dead-letter PATH  append quarantined records to PATH as NDJSON, each with
                      its byte offset and error kind
  --stop-file PATH    request a graceful drain when PATH appears: pending
                      alerts are flushed and a final resumable checkpoint is
                      written

Exit codes:
  0    ok
  2    usage error (bad flag or value)
  10   ingestion failed (unreadable input or a fatal parse under fail-fast)
  11   state failed (model build, snapshot decode, or resume rejected)
  12   I/O failed (checkpoint could not be written)";

/// A run failure carrying the exit code it must map to.
enum CliError {
    /// Unreadable input or a fatal ingestion error ([`exit::INGEST_FATAL`]).
    Ingest(String),
    /// Model or snapshot state could not be established
    /// ([`exit::SNAPSHOT_FATAL`]).
    State(String),
    /// A checkpoint could not be persisted ([`exit::IO_FATAL`]).
    Io(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Ingest(_) => exit::INGEST_FATAL as u8,
            CliError::State(_) => exit::SNAPSHOT_FATAL as u8,
            CliError::Io(_) => exit::IO_FATAL as u8,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Ingest(message) | CliError::State(message) | CliError::Io(message) => message,
        }
    }
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        input: "-".to_owned(),
        format: None,
        policy: ErrorPolicy::FailFast,
        batch: 1024,
        threads: None,
        checkpoint: None,
        resume: None,
        aliases: false,
        no_consent: false,
        quiet: false,
        follow: false,
        poll_ms: 25,
        dead_letter: None,
        stop_file: None,
    };
    let mut positional = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                let value = args.next().ok_or("--format needs a value")?;
                options.format = match value.as_str() {
                    "auto" => None,
                    other => Some(
                        Format::parse(other).ok_or_else(|| format!("unknown format `{other}`"))?,
                    ),
                };
            }
            "--error-policy" => {
                let value = args.next().ok_or("--error-policy needs a value")?;
                options.policy = match value.as_str() {
                    "fail-fast" => ErrorPolicy::FailFast,
                    "skip" => ErrorPolicy::Skip,
                    other => return Err(format!("unknown error policy `{other}`")),
                };
            }
            "--batch" => {
                let value = args.next().ok_or("--batch needs a value")?;
                options.batch =
                    value.parse().map_err(|_| format!("bad --batch value `{value}`"))?;
                if options.batch == 0 {
                    return Err("--batch must be at least 1".to_owned());
                }
            }
            "--threads" => {
                let value = args.next().ok_or("--threads needs a value")?;
                options.threads =
                    Some(value.parse().map_err(|_| format!("bad --threads value `{value}`"))?);
            }
            "--checkpoint" => {
                options.checkpoint = Some(args.next().ok_or("--checkpoint needs a path")?);
            }
            "--resume" => options.resume = Some(args.next().ok_or("--resume needs a path")?),
            "--aliases" => options.aliases = true,
            "--no-consent" => options.no_consent = true,
            "--quiet" => options.quiet = true,
            "--follow" => options.follow = true,
            "--poll-ms" => {
                let value = args.next().ok_or("--poll-ms needs a value")?;
                options.poll_ms =
                    value.parse().map_err(|_| format!("bad --poll-ms value `{value}`"))?;
                if options.poll_ms == 0 {
                    return Err("--poll-ms must be at least 1".to_owned());
                }
            }
            "--dead-letter" => {
                options.dead_letter =
                    Some(PathBuf::from(args.next().ok_or("--dead-letter needs a path")?));
            }
            "--stop-file" => {
                options.stop_file =
                    Some(PathBuf::from(args.next().ok_or("--stop-file needs a path")?));
            }
            "--help" | "-h" => {
                println!("{USAGE}\n\n{HELP_EXIT_CODES}");
                std::process::exit(exit::OK);
            }
            other if !other.starts_with('-') || other == "-" => {
                if positional {
                    return Err(format!("unexpected extra input `{other}`"));
                }
                options.input = other.to_owned();
                positional = true;
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(options)
}

fn read_input(input: &str) -> Result<Vec<u8>, CliError> {
    let mut bytes = Vec::new();
    if input == "-" {
        std::io::stdin()
            .lock()
            .read_to_end(&mut bytes)
            .map_err(|e| CliError::Ingest(format!("reading stdin: {e}")))?;
    } else {
        bytes =
            std::fs::read(input).map_err(|e| CliError::Ingest(format!("reading {input}: {e}")))?;
    }
    Ok(bytes)
}

/// A profile for a user seen in the log but not registered yet.
fn profile_for(user: &UserId, services: &[ServiceId], no_consent: bool) -> UserProfile {
    let mut profile = UserProfile::new(user.clone());
    if !no_consent {
        for service in services {
            profile = profile.consents_to(service.clone());
        }
    }
    profile
}

/// The live pipeline behind `--follow`: tail (or pipe) → parse → monitor,
/// with quarantine, periodic checkpoints and graceful drain.
fn run_follow(options: &Options) -> Result<(), CliError> {
    let system: PrivacySystem = casestudy::healthcare()
        .map_err(|e| CliError::State(format!("building the healthcare model: {e}")))?;
    let lts =
        system.generate_lts().map_err(|e| CliError::State(format!("generating the LTS: {e}")))?;
    let index = Arc::new(LtsIndex::build(&lts));
    let catalog = system.catalog().clone();
    let policy = system.policy().clone();
    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();

    // In follow mode a checkpoint is a pipeline checkpoint: the stream
    // offset and counters plus the embedded monitor snapshot.
    let resume: Option<PipelineCheckpoint> = match &options.resume {
        Some(path) => {
            let store = CheckpointStore::new(path);
            let (loaded, warnings) = store.load_latest(|bytes| {
                PipelineCheckpoint::from_bytes(bytes).map(|_| ()).map_err(|e| e.to_string())
            });
            for warning in &warnings {
                eprintln!("privacy-monitor: warning: {warning}");
            }
            let (bytes, generation) = loaded.ok_or_else(|| {
                CliError::State(format!("no usable checkpoint generation at {path}"))
            })?;
            let checkpoint = PipelineCheckpoint::from_bytes(&bytes)
                .map_err(|e| CliError::State(format!("decoding checkpoint {path}: {e}")))?;
            eprintln!(
                "resuming from offset {} ({} events so far, {generation} generation)",
                checkpoint.offset, checkpoint.events
            );
            Some(checkpoint)
        }
        None => None,
    };
    let monitor = match &resume {
        Some(checkpoint) if !checkpoint.snapshot.is_empty() => {
            let snapshot = MonitorSnapshot::from_bytes(&checkpoint.snapshot)
                .map_err(|e| CliError::State(format!("decoding embedded snapshot: {e}")))?;
            IndexedMonitor::resume_from(catalog, policy, Arc::clone(&index), &snapshot)
                .map_err(|e| CliError::State(format!("resuming monitor state: {e}")))?
        }
        _ => IndexedMonitor::new(catalog, policy, Arc::clone(&index)),
    }
    .with_threads(options.threads);
    let mut sink = IndexedSink::new(monitor, services, options.no_consent);

    let mapping = if options.aliases {
        FieldMapping::with_common_aliases()
    } else {
        FieldMapping::canonical()
    };
    let mut config = PipelineConfig::new(mapping);
    config.format = options.format;
    config.policy = options.policy;
    config.batch = options.batch;
    config.checkpoint = options.checkpoint.as_ref().map(PathBuf::from);
    config.dead_letter = options.dead_letter.clone();
    config.stop_file = options.stop_file.clone();
    config.follow.poll_interval = Duration::from_millis(options.poll_ms);
    if let Some(checkpoint) = &resume {
        config.follow.start_offset = checkpoint.offset;
    }
    config.resume = resume;

    let source = if options.input == "-" {
        LiveSource::pipe(Box::new(std::io::stdin()), config.follow.clone())
    } else {
        LiveSource::tail(&options.input, config.follow.clone())
    };

    let runner = PipelineRunner::new(config);
    let quiet = options.quiet;
    let report = runner
        .run(source, &mut sink, |alert| {
            if !quiet {
                println!("{alert}");
            }
        })
        .map_err(|error| match error {
            PipelineError::Ingest(e) => {
                CliError::Ingest(format!("following {}: {e}", options.input))
            }
            PipelineError::Monitor(e) => CliError::State(e),
            PipelineError::Io(e) => CliError::Io(e),
        })?;
    eprintln!(
        "{} format, {} bytes, {} lines, {} events, {} quarantined ({} dead-lettered), \
         {} rotations, {} truncations, {} checkpoints, {} alerts — drained through offset {}",
        report.format.map_or_else(|| "undetected".to_owned(), |f| f.to_string()),
        report.bytes,
        report.lines,
        report.events,
        report.skipped,
        report.dead_letters,
        report.rotations,
        report.truncations,
        report.checkpoints,
        report.alerts,
        report.offset,
    );
    Ok(())
}

fn run(options: &Options) -> Result<(), CliError> {
    // The paper's healthcare case study is the monitored system.
    let system: PrivacySystem = casestudy::healthcare()
        .map_err(|e| CliError::State(format!("building the healthcare model: {e}")))?;
    let lts =
        system.generate_lts().map_err(|e| CliError::State(format!("generating the LTS: {e}")))?;
    let index = Arc::new(LtsIndex::build(&lts));
    let catalog = system.catalog().clone();
    let policy = system.policy().clone();
    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();

    let mut monitor = match &options.resume {
        Some(path) => {
            // Load the newest generation that decodes; a corrupt live file
            // falls back to `.prev` with a warning instead of failing.
            let store = CheckpointStore::new(path);
            let (loaded, warnings) = store.load_latest(|bytes| {
                MonitorSnapshot::from_bytes(bytes).map(|_| ()).map_err(|e| e.to_string())
            });
            for warning in &warnings {
                eprintln!("privacy-monitor: warning: {warning}");
            }
            let (bytes, generation) = loaded.ok_or_else(|| {
                CliError::State(format!("no usable checkpoint generation at {path}"))
            })?;
            let snapshot = MonitorSnapshot::from_bytes(&bytes)
                .map_err(|e| CliError::State(format!("decoding snapshot {path}: {e}")))?;
            let monitor =
                IndexedMonitor::resume_from(catalog, policy, Arc::clone(&index), &snapshot)
                    .map_err(|e| CliError::State(format!("resuming from {path}: {e}")))?;
            eprintln!(
                "resumed {} users from {path} ({generation} generation)",
                monitor.user_count()
            );
            monitor
        }
        None => IndexedMonitor::new(catalog, policy, Arc::clone(&index)),
    }
    .with_threads(options.threads);

    let mapping = if options.aliases {
        FieldMapping::with_common_aliases()
    } else {
        FieldMapping::canonical()
    };
    let ingest_options = IngestOptions {
        format: options.format,
        policy: options.policy,
        ..IngestOptions::default()
    };

    let bytes = read_input(&options.input)?;
    let report = ingest_bytes(&bytes, &mapping, &ingest_options)
        .map_err(|e| CliError::Ingest(format!("ingesting {}: {e}", options.input)))?;
    for diagnostic in &report.diagnostics {
        eprintln!("{diagnostic}");
    }

    let mut known: BTreeSet<UserId> = BTreeSet::new();
    let mut alert_count = 0usize;
    for batch in report.events.chunks(options.batch) {
        for event in batch {
            if known.insert(event.user().clone()) {
                monitor.register_user(&profile_for(event.user(), &services, options.no_consent));
            }
        }
        let alerts = monitor.ingest_batch(batch);
        alert_count += alerts.len();
        if !options.quiet {
            for alert in &alerts {
                println!("{alert}");
            }
        }
        if let Some(path) = &options.checkpoint {
            // Atomic replace with a retained `.prev` generation: a crash
            // here leaves either the old checkpoint or the new one intact.
            let snapshot = monitor.snapshot();
            CheckpointStore::new(path)
                .write(&snapshot.to_bytes())
                .map_err(|e| CliError::Io(format!("writing checkpoint {path}: {e}")))?;
        }
    }
    let last = report.events.last().map(Event::sequence).unwrap_or(0);
    eprintln!(
        "{} format, {} lines, {} events (last sequence {last}), {} skipped, {} users, {} alerts",
        report.format,
        report.stats.lines,
        report.stats.events,
        report.stats.skipped,
        known.len(),
        alert_count,
    );
    Ok(())
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("privacy-monitor: {message}");
            return ExitCode::from(exit::USAGE as u8);
        }
    };
    let outcome = if options.follow { run_follow(&options) } else { run(&options) };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("privacy-monitor: {}", error.message());
            ExitCode::from(error.code())
        }
    }
}
