//! `privacy-supervisor`: run the paper's healthcare monitor as a
//! fault-tolerant multi-process fleet.
//!
//! The distributed counterpart of `privacy-monitor`: the supervisor renders
//! the healthcare case-study model, spawns `--workers` shard-owning
//! `privacy-shardd` processes (found next to this executable unless
//! `--worker` overrides it), routes a seeded synthetic workload to them in
//! batches, and prints the merged alert stream — which is identical, alert
//! for alert, to what the in-process monitor would emit. Workers checkpoint
//! every `--checkpoint-every` batches and are restarted from their last
//! good checkpoint if they die; `--kill-after N` injects such a death to
//! demonstrate the recovery path. The checkpoints live in a fresh
//! directory of this process's own unless `--checkpoint-dir` names one,
//! which must hold no worker checkpoint: a run never resumes another's.
//!
//! ```text
//! privacy-supervisor [--workers N] [--users N] [--requests N] [--batch N]
//!                    [--checkpoint-dir PATH] [--checkpoint-every N]
//!                    [--worker PATH] [--kill-after N] [--quiet]
//!                    [--ack-timeout-ms N] [--ack-grace-us N]
//!                    [--control-timeout-ms N] [--max-restarts N]
//!                    [--restart-base-ms N] [--restart-cap-ms N]
//!                    [--reset-after-acks N] [--max-frame-events N]
//!                    [--linger-us N]
//! ```
//!
//! The timeout and restart flags expose the supervisor's failure-detection
//! tuning ([`SupervisorConfig`] and [`RestartPolicy`]): how long to wait
//! for an ack or a control reply before declaring a worker dead, how many
//! restarts a worker gets without sustained progress, and the backoff
//! curve between attempts. See `--help` for each flag's meaning.
//!
//! Exit codes follow the [`privacy_distrib::exit`] taxonomy, through
//! [`DistribError::exit_code`] for a failed fleet: 2 for a usage or
//! configuration error (a bad flag, no worker binary, a `--checkpoint-dir`
//! that holds a worker checkpoint), 11 when the model cannot be built or a
//! worker's checkpoints cannot cover its replay, 13 for a protocol break,
//! 14 when a worker keeps dying, and a terminal worker's own code — see
//! `--help`.
//!
//! [`RestartPolicy`]: privacy_distrib::RestartPolicy

use privacy_core::{casestudy, PrivacySystem};
use privacy_distrib::{exit, DistribError, DistributedMonitor, FaultPlan, SupervisorConfig};
use privacy_lts::LtsIndex;
use privacy_model::{FieldId, Record, ServiceId};
use privacy_runtime::{ServiceEngine, SHARD_COUNT};
use privacy_synth::{random_profiles, random_workload, ProfileGeneratorConfig, WorkloadConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    workers: usize,
    users: usize,
    requests: usize,
    batch: usize,
    /// `None`: a directory of this process's own, removed after a clean
    /// run.
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
    worker: Option<PathBuf>,
    kill_after: Option<u64>,
    quiet: bool,
    ack_timeout: Option<Duration>,
    ack_grace: Option<Duration>,
    control_timeout: Option<Duration>,
    max_restarts: Option<u32>,
    restart_base: Option<Duration>,
    restart_cap: Option<Duration>,
    reset_after_acks: Option<u32>,
    max_frame_events: Option<usize>,
    linger: Option<Duration>,
}

const USAGE: &str = "usage: privacy-supervisor [OPTIONS]

Run the healthcare monitor as a supervised multi-process fleet.

Workload:
  --workers N            worker processes to spawn, 1 to 32 (default 2)
  --users N              synthetic user population (default 64)
  --requests N           synthetic workload length (default 2000)
  --batch N              events per super-batch (default 64)
  --quiet                suppress the alert stream (stats still printed)

Checkpointing:
  --checkpoint-dir PATH  per-worker checkpoint directory, which must hold
                         no worker checkpoint (default: a fresh directory
                         under the temp dir, removed after a clean run)
  --checkpoint-every N   checkpoint all workers every N batches (default 4)

Transport tuning:
  --max-frame-events N   most events one coalesced wire frame may carry
                         before the writer flushes it (default 1024)
  --linger-us N          how long a writer holds a partial frame open for
                         more sub-batches, in microseconds (default 2000)

Failure detection and restart tuning:
  --ack-timeout-ms N     kill a worker that has not acked within N ms
                         (default 10000); the deadline additionally grows
                         by the per-event grace for events in flight
  --ack-grace-us N       extra ack deadline per in-flight event, in
                         microseconds (default 5000)
  --control-timeout-ms N give up on a checkpoint reply after N ms
                         (default 60000)
  --max-restarts N       restarts allowed without sustained progress before
                         the run fails with a typed error (default 5)
  --restart-base-ms N    backoff before the first restart attempt; doubles
                         per attempt (default 50)
  --restart-cap-ms N     upper bound on any single backoff delay
                         (default 2000)
  --reset-after-acks N   acked batches a fresh incarnation must deliver
                         before its restart budget resets (default 3)

Fault injection:
  --worker PATH          worker binary (default: privacy-shardd next to
                         this executable)
  --kill-after N         kill worker 0's first incarnation after N events

Exit codes:
  0    ok
  2    usage or configuration error (bad flag or value, no worker binary,
       a --checkpoint-dir that already holds a worker checkpoint)
  11   state failed (the model could not be built, or no checkpoint covers
       a worker's replay)
  13   a worker broke the wire protocol
  14   a worker kept dying: its restart budget ran out
  N    a worker exited with terminal code N (2, 10, 11 or 13), which
       restarting cannot fix";

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        workers: 2,
        users: 64,
        requests: 2_000,
        batch: 64,
        checkpoint_dir: None,
        checkpoint_every: 4,
        worker: None,
        kill_after: None,
        quiet: false,
        ack_timeout: None,
        ack_grace: None,
        control_timeout: None,
        max_restarts: None,
        restart_base: None,
        restart_cap: None,
        reset_after_acks: None,
        max_frame_events: None,
        linger: None,
    };
    let mut args = std::env::args().skip(1);
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                options.workers = next_value(&mut args, "--workers")?
                    .parse()
                    .map_err(|_| "bad --workers value".to_owned())?;
                if !(1..=SHARD_COUNT).contains(&options.workers) {
                    return Err(format!("--workers must be in 1..={SHARD_COUNT}"));
                }
            }
            "--users" => {
                options.users = next_value(&mut args, "--users")?
                    .parse()
                    .map_err(|_| "bad --users value".to_owned())?;
            }
            "--requests" => {
                options.requests = next_value(&mut args, "--requests")?
                    .parse()
                    .map_err(|_| "bad --requests value".to_owned())?;
            }
            "--batch" => {
                options.batch = next_value(&mut args, "--batch")?
                    .parse()
                    .map_err(|_| "bad --batch value".to_owned())?;
                if options.batch == 0 {
                    return Err("--batch must be at least 1".to_owned());
                }
            }
            "--checkpoint-dir" => {
                options.checkpoint_dir =
                    Some(PathBuf::from(next_value(&mut args, "--checkpoint-dir")?));
            }
            "--checkpoint-every" => {
                options.checkpoint_every = next_value(&mut args, "--checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every value".to_owned())?;
            }
            "--worker" => options.worker = Some(PathBuf::from(next_value(&mut args, "--worker")?)),
            "--kill-after" => {
                options.kill_after = Some(
                    next_value(&mut args, "--kill-after")?
                        .parse()
                        .map_err(|_| "bad --kill-after value".to_owned())?,
                );
            }
            "--quiet" => options.quiet = true,
            "--ack-timeout-ms" => {
                let millis: u64 = next_value(&mut args, "--ack-timeout-ms")?
                    .parse()
                    .map_err(|_| "bad --ack-timeout-ms value".to_owned())?;
                options.ack_timeout = Some(Duration::from_millis(millis));
            }
            "--ack-grace-us" => {
                let micros: u64 = next_value(&mut args, "--ack-grace-us")?
                    .parse()
                    .map_err(|_| "bad --ack-grace-us value".to_owned())?;
                options.ack_grace = Some(Duration::from_micros(micros));
            }
            "--max-frame-events" => {
                let count: usize = next_value(&mut args, "--max-frame-events")?
                    .parse()
                    .map_err(|_| "bad --max-frame-events value".to_owned())?;
                if count == 0 {
                    return Err("--max-frame-events must be at least 1".to_owned());
                }
                options.max_frame_events = Some(count);
            }
            "--linger-us" => {
                let micros: u64 = next_value(&mut args, "--linger-us")?
                    .parse()
                    .map_err(|_| "bad --linger-us value".to_owned())?;
                options.linger = Some(Duration::from_micros(micros));
            }
            "--control-timeout-ms" => {
                let millis: u64 = next_value(&mut args, "--control-timeout-ms")?
                    .parse()
                    .map_err(|_| "bad --control-timeout-ms value".to_owned())?;
                options.control_timeout = Some(Duration::from_millis(millis));
            }
            "--max-restarts" => {
                options.max_restarts = Some(
                    next_value(&mut args, "--max-restarts")?
                        .parse()
                        .map_err(|_| "bad --max-restarts value".to_owned())?,
                );
            }
            "--restart-base-ms" => {
                let millis: u64 = next_value(&mut args, "--restart-base-ms")?
                    .parse()
                    .map_err(|_| "bad --restart-base-ms value".to_owned())?;
                options.restart_base = Some(Duration::from_millis(millis));
            }
            "--restart-cap-ms" => {
                let millis: u64 = next_value(&mut args, "--restart-cap-ms")?
                    .parse()
                    .map_err(|_| "bad --restart-cap-ms value".to_owned())?;
                options.restart_cap = Some(Duration::from_millis(millis));
            }
            "--reset-after-acks" => {
                options.reset_after_acks = Some(
                    next_value(&mut args, "--reset-after-acks")?
                        .parse()
                        .map_err(|_| "bad --reset-after-acks value".to_owned())?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(exit::OK);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(options)
}

/// A run failure carrying the exit code it maps to.
enum RunError {
    /// No worker binary to launch ([`exit::USAGE`]).
    Usage(String),
    /// The model could not be built ([`exit::SNAPSHOT_FATAL`]).
    State(String),
    /// The fleet failed ([`DistribError::exit_code`]).
    Fleet(DistribError),
}

impl RunError {
    fn code(&self) -> u8 {
        let code = match self {
            RunError::Usage(_) => exit::USAGE,
            RunError::State(_) => exit::SNAPSHOT_FATAL,
            RunError::Fleet(error) => error.exit_code(),
        };
        u8::try_from(code).unwrap_or(1)
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Usage(message) | RunError::State(message) => f.write_str(message),
            RunError::Fleet(error) => write!(f, "{error}"),
        }
    }
}

impl From<DistribError> for RunError {
    fn from(error: DistribError) -> Self {
        RunError::Fleet(error)
    }
}

/// The `privacy-shardd` binary: explicit path, or the one built next to us.
fn worker_program(options: &Options) -> Result<PathBuf, RunError> {
    if let Some(path) = &options.worker {
        return Ok(path.clone());
    }
    let me = std::env::current_exe()
        .map_err(|e| RunError::Usage(format!("locating this executable: {e}")))?;
    let sibling = me.with_file_name("privacy-shardd");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(RunError::Usage(format!("no worker at {} — pass --worker PATH", sibling.display())))
    }
}

fn run(options: &Options) -> Result<(), RunError> {
    let system: PrivacySystem = casestudy::healthcare()
        .map_err(|e| RunError::State(format!("building the healthcare model: {e}")))?;
    let lts =
        system.generate_lts().map_err(|e| RunError::State(format!("generating the LTS: {e}")))?;
    let fingerprint = LtsIndex::build(&lts).fingerprint();

    let services: Vec<ServiceId> = system.catalog().services().map(|s| s.id().clone()).collect();
    let fields: Vec<FieldId> = system.catalog().fields().map(|f| f.id().clone()).collect();
    let users = random_profiles(&ProfileGeneratorConfig {
        count: options.users,
        seed: 13,
        services: services.clone(),
        consent_probability: 0.5,
        fields: fields.clone(),
        sensitivity_probability: 0.6,
    });
    let mut engine = ServiceEngine::new(
        system.catalog().clone(),
        system.dataflows().clone(),
        system.policy().clone(),
    );
    let workload = random_workload(&WorkloadConfig {
        length: options.requests,
        seed: 17,
        users: users.iter().map(|u| u.id().clone()).collect(),
        services: services.iter().map(|s| (s.clone(), 1.0)).collect(),
    });
    for request in &workload {
        let record = fields
            .iter()
            .fold(Record::new(), |record, field| record.with(field.clone(), format!("v-{field}")));
        let _ = engine.execute(request.user(), request.service(), &record);
    }
    let events = engine.log().events().to_vec();

    let own_dir =
        std::env::temp_dir().join(format!("privacy-supervisor-ckpt-{}", std::process::id()));
    let checkpoint_dir = options.checkpoint_dir.as_ref().unwrap_or(&own_dir);
    let mut config = SupervisorConfig::new(worker_program(options)?, checkpoint_dir);
    config.workers = options.workers;
    config.checkpoint_every = options.checkpoint_every;
    if let Some(ack_timeout) = options.ack_timeout {
        config.ack_timeout = ack_timeout;
    }
    if let Some(grace) = options.ack_grace {
        config.ack_grace_per_event = grace;
    }
    if let Some(count) = options.max_frame_events {
        config.max_frame_events = count;
    }
    if let Some(linger) = options.linger {
        config.linger = linger;
    }
    if let Some(control_timeout) = options.control_timeout {
        config.control_timeout = control_timeout;
    }
    if let Some(max_restarts) = options.max_restarts {
        config.restart.max_restarts = max_restarts;
    }
    if let Some(base) = options.restart_base {
        config.restart.base_delay = base;
    }
    if let Some(cap) = options.restart_cap {
        config.restart.max_delay = cap;
    }
    if let Some(acks) = options.reset_after_acks {
        config.restart.reset_after_acks = acks;
    }
    if let Some(kill_after) = options.kill_after {
        config.fault_plan = FaultPlan::none().kill_after(0, 0, kill_after);
    }
    let mut monitor = DistributedMonitor::launch("Healthcare", &system, fingerprint, config)?;
    for user in &users {
        monitor.register_user(user)?;
    }
    let mut alert_count = 0usize;
    for batch in events.chunks(options.batch) {
        let alerts = monitor.submit_batch(batch)?;
        alert_count += alerts.len();
        if !options.quiet {
            for alert in &alerts {
                println!("{alert}");
            }
        }
    }
    let (rest, stats) = monitor.shutdown()?;
    if options.checkpoint_dir.is_none() {
        let _ = std::fs::remove_dir_all(&own_dir);
    }
    alert_count += rest.len();
    if !options.quiet {
        for alert in &rest {
            println!("{alert}");
        }
    }
    eprintln!(
        "{} workers, {} batches, {} events, {} alerts, {} checkpoints, {} recoveries",
        options.workers,
        stats.batches,
        stats.events,
        alert_count,
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

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("privacy-supervisor: {message}");
            return ExitCode::from(exit::USAGE as u8);
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("privacy-supervisor: {error}");
            ExitCode::from(error.code())
        }
    }
}
