//! `privacy-monitor`: run real logs through the indexed runtime monitor.
//!
//! The end-to-end wiring of the ingestion front end: a log file (or stdin),
//! in JSON lines / logfmt / CSV — gzip-compressed or plain — is parsed
//! through a [`FieldMapping`], resolved into events, and batch-ingested
//! into an [`IndexedMonitor`] over the paper's healthcare case-study model.
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
//! Every run goes through the one live pipeline
//! ([`privacy_mde::pipeline::PipelineRunner`]). `FILE` and `-` (stdin) are
//! read to EOF, which drains the run; `--follow` tails `FILE` as it grows
//! instead (rotation and truncation are handled) until `--stop-file`
//! appears. Alerts print as batches complete. Records the ingest refuses
//! under `--error-policy skip` go to the `--dead-letter` NDJSON file with
//! their byte offsets.
//!
//! `--checkpoint` writes a resumable pipeline checkpoint (stream offset,
//! counters, embedded [`MonitorSnapshot`]) every 1,024 resolved events and
//! once at drain, atomically through [`CheckpointStore`] (temp file,
//! fsync, rename; the previous generation is kept as `<path>.prev`), so a
//! crash mid-write never leaves a torn checkpoint. `--resume` loads the
//! newest generation that decodes, falling back to `.prev` with a warning,
//! and continues the same stream from the checkpoint's offset: a file is
//! read (or tailed) from that offset, and stdin is expected to carry the
//! rest of the stream. A gzip file is refused with exit 11 either way:
//! checkpoint offsets count decompressed bytes, so there is no place to
//! seek to inside a gzip stream. A finite file shorter than the offset is
//! refused too; a tail counts its offset across rotations, so it takes a
//! shorter file as truncated and reads it from the start.
//!
//! Unknown users are registered on first sight — consenting to every
//! catalog service by default (so alerts reflect risky *actions*, not a
//! blanket absence of consent), or with empty consent under `--no-consent`.
//! Users restored by `--resume` keep their state.
//!
//! Exit codes follow the [`privacy_distrib::exit`] taxonomy: 0 ok, 2 usage,
//! 10 ingestion failed, 11 snapshot/model state failed, 12 I/O failed — see
//! `--help`.

use privacy_core::{casestudy, PrivacySystem};
use privacy_distrib::{exit, CheckpointStore};
use privacy_ingest::{is_gzip, ErrorPolicy, FieldMapping, Format, LiveSource};
use privacy_lts::LtsIndex;
use privacy_mde::pipeline::{
    IndexedSink, PipelineCheckpoint, PipelineConfig, PipelineError, PipelineRunner,
};
use privacy_model::ServiceId;
use privacy_runtime::{IndexedMonitor, MonitorSnapshot};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
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
Input:
  FILE                read FILE to its end (plain or gzip)
  -                   read stdin until it closes (the default)
  --follow            tail FILE as it grows instead of stopping at its end
                      (rotation and truncation are handled)
  --poll-ms N         poll interval in milliseconds (default 25)
  --stop-file PATH    request a graceful drain when PATH appears: pending
                      alerts are flushed and a final checkpoint is written
  --dead-letter PATH  append quarantined records to PATH as NDJSON, each with
                      its byte offset and error kind

Checkpointing:
  --checkpoint PATH   every 1024 resolved events and once at drain,
                      atomically replace PATH (temp file + fsync + rename)
                      with the stream offset and monitor state; the prior
                      generation is kept at PATH.prev
  --resume PATH       resume from the newest generation of PATH that decodes,
                      falling back to PATH.prev with a warning if the live
                      file is corrupt, and continue the stream from its
                      offset (FILE must not be gzip; without --follow it
                      must be at least that long, and a --follow tail
                      takes a shorter FILE as truncated and reads it
                      from the start)

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

/// Every run: tail, pipe or finite file → parse → monitor, with
/// quarantine, periodic checkpoints and a graceful drain.
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

    // A checkpoint is a pipeline checkpoint: the stream offset and
    // counters plus the embedded monitor snapshot.
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
    let offset = resume.as_ref().map_or(0, |checkpoint| checkpoint.offset);
    config.follow.start_offset = offset;
    config.resume = resume;

    // A pipe and a finite file end at EOF, which drains the run; a tail
    // never ends on its own. Resume continues the stream at the
    // checkpoint's offset: a tail seeks itself, a finite file is seeked
    // here, and a pipe is expected to carry the rest of the stream.
    let source = if options.input == "-" {
        LiveSource::pipe(Box::new(std::io::stdin()), config.follow.clone())
    } else if options.follow {
        // A tail may start before its file exists; one that does exist
        // must not be gzip.
        if offset > 0 && Path::new(&options.input).exists() {
            open_resumable(&options.input, offset)?;
        }
        LiveSource::tail(&options.input, config.follow.clone())
    } else {
        LiveSource::pipe(Box::new(open_at(&options.input, offset)?), config.follow.clone())
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
                CliError::Ingest(format!("ingesting {}: {e}", options.input))
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

/// Opens the finite input file positioned at a resumed stream `offset`.
/// A file shorter than the offset cannot continue the checkpointed stream
/// and is refused rather than silently re-read.
fn open_at(path: &str, offset: u64) -> Result<File, CliError> {
    let unreadable = |e: std::io::Error| CliError::Ingest(format!("reading {path}: {e}"));
    let mut file = open_resumable(path, offset)?;
    if offset > 0 {
        let len = file.metadata().map_err(unreadable)?.len();
        if len < offset {
            return Err(CliError::State(format!(
                "{path} is {len} bytes, shorter than the checkpoint offset {offset}"
            )));
        }
        file.seek(SeekFrom::Start(offset)).map_err(unreadable)?;
    }
    Ok(file)
}

/// Opens the input file a run resumes at stream `offset`, finite or
/// tailed, refusing a gzip file resumed past its start: checkpoint offsets
/// count decompressed bytes, so any seek would land inside the compressed
/// stream. With `offset` 0 nothing is read.
///
/// Only this check is shared. A tail's offsets count its logical stream
/// across rotations, so a current file shorter than the offset is the
/// tail's own case: it reports a truncation and restarts at 0.
fn open_resumable(path: &str, offset: u64) -> Result<File, CliError> {
    let unreadable = |e: std::io::Error| CliError::Ingest(format!("reading {path}: {e}"));
    let mut file = File::open(path).map_err(unreadable)?;
    if offset == 0 {
        return Ok(file);
    }
    let mut magic = [0u8; 2];
    let head = file.read(&mut magic).map_err(unreadable)?;
    if is_gzip(&magic[..head]) {
        return Err(CliError::State(format!(
            "{path} is gzip-compressed; a checkpoint cannot resume inside a gzip stream"
        )));
    }
    Ok(file)
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("privacy-monitor: {message}");
            return ExitCode::from(exit::USAGE as u8);
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("privacy-monitor: {}", error.message());
            ExitCode::from(error.code())
        }
    }
}
