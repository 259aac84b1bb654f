//! `privacy-monitor`: run real logs through the runtime monitor, in process
//! or on a fleet of worker processes.
//!
//! The end-to-end wiring of the ingestion front end: a log file (or stdin),
//! in JSON lines / logfmt / CSV — gzip-compressed or plain — is parsed
//! through a [`FieldMapping`], resolved into events, and batch-ingested
//! into an [`IndexedMonitor`] over the paper's healthcare case-study model,
//! or, with `--workers N`, into a [`DistributedMonitor`] fleet of `N`
//! shard-owning `privacy-shardd` processes.
//!
//! ```text
//! privacy-monitor [FILE|-] [--format auto|json|logfmt|csv]
//!                 [--error-policy fail-fast|skip] [--batch N]
//!                 [--threads N | --workers N]
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
//! once at drain, through [`CheckpointStore`]. A base is written atomically
//! (temp file, fsync, rename, directory fsync; the previous base is kept as
//! `<path>.prev`), so a crash mid-write never leaves a torn checkpoint.
//! Between bases, a periodic checkpoint is a record appended to
//! `<path>.delta` and `fdatasync`ed, holding only the monitor rows changed
//! since the checkpoint before it; a base is rewritten once the log would
//! outgrow it, and always at drain, which leaves one self-contained file.
//! `--resume` loads the newest base that decodes, falling back to `.prev`
//! with a warning, applies the whole delta records after it (a torn last
//! record is reported and left out), and continues the same stream from
//! the resulting offset: a file is
//! read (or tailed) from that offset, and stdin is expected to carry the
//! rest of the stream. A gzip file is refused with exit 11 either way:
//! checkpoint offsets count decompressed bytes, so there is no place to
//! seek to inside a gzip stream. A finite file shorter than the offset is
//! refused too; a tail counts its offset across rotations, so it takes a
//! shorter file as truncated and reads it from the start.
//!
//! `--threads N` fans each batch out over `N` monitor threads. Without it
//! the monitor ingests on its own thread, next to the parser thread and,
//! with `--checkpoint`, the checkpoint writer.
//!
//! # The fleet
//!
//! `--workers N` (1 to 32) runs the same pipeline over a
//! [`DistributedSink`]: the supervisor spawns `N` `privacy-shardd` workers,
//! found next to this executable, each owning a fixed slice of the user
//! shards; routes every batch to them; and merges their alert streams back
//! into the in-process monitor's order, so stdout is the same alert for
//! alert. A worker that dies is restarted from its last checkpoint and
//! replays what it had not acknowledged. Workers checkpoint every 4
//! batches into a directory of this process's own under the temp
//! directory (`$TMPDIR`), removed after a clean run; a fleet never resumes
//! an earlier run's checkpoints, so `--workers` refuses `--checkpoint`
//! and `--resume`, and `--threads` too. The stderr summary adds the
//! fleet's worker checkpoints and recoveries.
//!
//! Unknown users are registered on first sight — consenting to every
//! catalog service by default (so alerts reflect risky *actions*, not a
//! blanket absence of consent), or with empty consent under `--no-consent`.
//! Users restored by `--resume` keep their state.
//!
//! Exit codes follow the [`privacy_distrib::exit`] taxonomy: 0 ok, 2 usage,
//! 10 ingestion failed, 11 snapshot/model state failed, 12 I/O failed; a
//! failed fleet exits with [`DistribError::exit_code`]: 2 for a fleet that
//! cannot be configured (no worker binary), 11 when no checkpoint covers a
//! worker's replay, 13 for a protocol break, 14 when a worker keeps dying,
//! and a terminal worker's own code — see `--help`.
//!
//! [`CheckpointStore`]: privacy_distrib::CheckpointStore
//! [`DistributedSink`]: privacy_mde::pipeline::DistributedSink
//! [`MonitorSnapshot`]: privacy_runtime::MonitorSnapshot

use privacy_core::{casestudy, PrivacySystem};
use privacy_distrib::{exit, DistribError, DistributedMonitor, SupervisorConfig};
use privacy_ingest::{is_gzip, ErrorPolicy, FieldMapping, Format, LiveSource};
use privacy_lts::LtsIndex;
use privacy_mde::pipeline::{
    load_checkpoint, DistributedSink, IndexedSink, MonitorSink, PipelineConfig, PipelineError,
    PipelineReport, PipelineRunner,
};
use privacy_model::ServiceId;
use privacy_runtime::{IndexedMonitor, SHARD_COUNT};
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
    workers: Option<usize>,
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

/// Worker checkpoints are taken every this many batches.
const FLEET_CHECKPOINT_EVERY: u64 = 4;

const USAGE: &str = "usage: privacy-monitor [FILE|-] [--format auto|json|logfmt|csv] \
                     [--error-policy fail-fast|skip] [--batch N] [--threads N | --workers N] \
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

Monitoring:
  --batch N           events per monitor batch (default 1024)
  --threads N         monitor threads per batch (default 1: the monitor
                      ingests on its own thread)

Fleet:
  --workers N         monitor on N worker processes, 1 to 32: privacy-shardd
                      next to this executable, each owning a fixed share of
                      the users; alerts print in the in-process order, a
                      dead worker is restarted from its last checkpoint
                      (taken every 4 batches in a temporary directory,
                      removed after a clean run); not with --threads,
                      --checkpoint or --resume

Checkpointing:
  --checkpoint PATH   every 1024 resolved events and once at drain, save
                      the stream offset and monitor state: append the rows
                      changed since the last checkpoint to PATH.delta
                      (fdatasync), or atomically replace PATH with a full
                      base (temp file + fsync + rename) once the log would
                      outgrow it, and always at drain; the prior base is
                      kept at PATH.prev
  --resume PATH       resume from the newest base of PATH that decodes,
                      falling back to PATH.prev with a warning if the live
                      file is corrupt, apply the whole records of
                      PATH.delta that extend it, and continue the stream
                      from the resulting offset (FILE must not be gzip;
                      without --follow it must be at least that long, and
                      a --follow tail takes a shorter FILE as truncated
                      and reads it from the start)

Exit codes:
  0    ok
  2    usage error (bad flag or value)
  10   ingestion failed (unreadable input or a fatal parse under fail-fast)
  11   state failed (model build, snapshot decode, or resume rejected)
  12   I/O failed (checkpoint could not be written)
  13   a fleet worker broke the wire protocol
  14   a fleet worker kept dying: its restart budget ran out
  N    a fleet worker exited with terminal code N (2, 10, 11 or 13), which
       restarting cannot fix; a fleet exits 2 when privacy-shardd is missing
       and 11 when no checkpoint covers a worker's replay";

/// A run failure carrying the exit code it must map to.
enum CliError {
    /// Unreadable input or a fatal ingestion error ([`exit::INGEST_FATAL`]).
    Ingest(String),
    /// Model or snapshot state could not be established
    /// ([`exit::SNAPSHOT_FATAL`]).
    State(String),
    /// A checkpoint could not be persisted ([`exit::IO_FATAL`]).
    Io(String),
    /// The fleet failed ([`DistribError::exit_code`]).
    Fleet(DistribError),
}

impl CliError {
    fn code(&self) -> u8 {
        let code = match self {
            CliError::Ingest(_) => exit::INGEST_FATAL,
            CliError::State(_) => exit::SNAPSHOT_FATAL,
            CliError::Io(_) => exit::IO_FATAL,
            CliError::Fleet(error) => error.exit_code(),
        };
        u8::try_from(code).unwrap_or(1)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Ingest(message) | CliError::State(message) | CliError::Io(message) => {
                f.write_str(message)
            }
            CliError::Fleet(error) => write!(f, "fleet: {error}"),
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
        workers: None,
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
                let threads: usize =
                    value.parse().map_err(|_| format!("bad --threads value `{value}`"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
                options.threads = Some(threads);
            }
            "--workers" => {
                let value = args.next().ok_or("--workers needs a value")?;
                let workers: usize =
                    value.parse().map_err(|_| format!("bad --workers value `{value}`"))?;
                if !(1..=SHARD_COUNT).contains(&workers) {
                    return Err(format!("--workers must be in 1..={SHARD_COUNT}"));
                }
                options.workers = Some(workers);
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
    if options.workers.is_some() {
        // The fleet checkpoints and parallelises on its own.
        for (flag, set) in [
            ("--threads", options.threads.is_some()),
            ("--checkpoint", options.checkpoint.is_some()),
            ("--resume", options.resume.is_some()),
        ] {
            if set {
                return Err(format!("--workers cannot be combined with {flag}"));
            }
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
    let services: Vec<ServiceId> = system.catalog().services().map(|s| s.id().clone()).collect();

    // A checkpoint is a pipeline checkpoint: the stream offset and
    // counters plus the embedded monitor snapshot, as a base and the delta
    // records after it.
    let (resume, snapshot) = match &options.resume {
        Some(path) => {
            let (loaded, warnings) = load_checkpoint(Path::new(path));
            for warning in &warnings {
                eprintln!("privacy-monitor: warning: {warning}");
            }
            let point = loaded.ok_or_else(|| {
                CliError::State(format!("no usable checkpoint generation at {path}"))
            })?;
            eprintln!(
                "resuming from offset {} ({} events so far, {} generation, {} delta records)",
                point.checkpoint.offset, point.checkpoint.events, point.generation, point.deltas
            );
            (Some(point.checkpoint), point.snapshot)
        }
        None => (None, None),
    };

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

    let Some(workers) = options.workers else {
        let (catalog, policy) = (system.catalog().clone(), system.policy().clone());
        let monitor = match &snapshot {
            Some(snapshot) => IndexedMonitor::resume_from(catalog, policy, index, snapshot)
                .map_err(|e| CliError::State(format!("resuming monitor state: {e}")))?,
            None => IndexedMonitor::new(catalog, policy, index),
        }
        .with_threads(options.threads);
        let mut sink = IndexedSink::new(monitor, services, options.no_consent);
        let report = drive(options, &runner, source, &mut sink)?;
        eprintln!("{}", summary(&report));
        return Ok(());
    };

    // The fleet: the same pipeline over the workers, whose checkpoints
    // live in a directory of this process's own.
    let me = std::env::current_exe().map_err(|e| {
        CliError::Fleet(DistribError::Config { detail: format!("locating this executable: {e}") })
    })?;
    let worker = me.with_file_name("privacy-shardd");
    if !worker.exists() {
        return Err(CliError::Fleet(DistribError::Config {
            detail: format!("no worker binary at {}", worker.display()),
        }));
    }
    let checkpoint_dir =
        std::env::temp_dir().join(format!("privacy-monitor-fleet-{}", std::process::id()));
    let mut fleet = SupervisorConfig::new(worker, &checkpoint_dir);
    fleet.workers = workers;
    fleet.checkpoint_every = FLEET_CHECKPOINT_EVERY;
    let monitor = DistributedMonitor::launch("Healthcare", &system, index.fingerprint(), fleet)
        .map_err(CliError::Fleet)?;
    let mut sink = DistributedSink::new(monitor, services, options.no_consent);
    let mut report = drive(options, &runner, source, &mut sink)?;
    let (rest, stats) = sink.into_monitor().shutdown().map_err(CliError::Fleet)?;
    let _ = std::fs::remove_dir_all(&checkpoint_dir);
    if !options.quiet {
        for alert in &rest {
            println!("{alert}");
        }
    }
    report.alerts += rest.len() as u64;
    eprintln!(
        "{}; {workers} workers, {} worker checkpoints, {} recoveries",
        summary(&report),
        stats.checkpoints,
        stats.recoveries.len(),
    );
    for recovery in &stats.recoveries {
        eprintln!(
            "  recovered worker {} (incarnation {}) in {:?}: resumed from batch {}{} — {}",
            recovery.worker,
            recovery.incarnation,
            recovery.latency,
            recovery.resumed_from_batch,
            if recovery.fell_back { " (fell back a generation)" } else { "" },
            recovery.cause,
        );
    }
    Ok(())
}

/// Runs the pipeline over `sink`, printing alerts as batches complete.
fn drive(
    options: &Options,
    runner: &PipelineRunner,
    source: LiveSource,
    sink: &mut dyn MonitorSink,
) -> Result<PipelineReport, CliError> {
    let quiet = options.quiet;
    runner
        .run(source, sink, |alert| {
            if !quiet {
                println!("{alert}");
            }
        })
        .map_err(|error| match error {
            PipelineError::Ingest(e) => {
                CliError::Ingest(format!("ingesting {}: {e}", options.input))
            }
            PipelineError::Monitor(e) => CliError::Fleet(e),
            PipelineError::Io(e) => CliError::Io(e),
        })
}

/// The stderr summary of a run.
fn summary(report: &PipelineReport) -> String {
    format!(
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
    )
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
            eprintln!("privacy-monitor: {error}");
            ExitCode::from(error.code())
        }
    }
}
