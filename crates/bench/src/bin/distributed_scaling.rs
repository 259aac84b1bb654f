//! The distributed-monitoring benchmark: merged-stream throughput versus
//! worker count, supervised recovery latency, and the **transport
//! crossover matrix**, recorded as `BENCH_distributed.json`.
//!
//! The fleet under test is the real thing: `privacy-shardd` worker
//! *processes* (found next to this executable unless `--worker` overrides
//! it) spawned by a [`DistributedMonitor`], speaking framed messages over
//! pipes, checkpointing to disk. Per worker count the benchmark launches a
//! fresh fleet, routes the scenario's event stream through it in batches,
//! and reports events/sec for the fully merged (deterministically ordered)
//! alert stream. A separate run arms a kill-mid-stream fault and reports
//! the supervised recovery latency — death detection to caught-up
//! replacement — exercising checkpoint resume and suffix replay.
//!
//! The crossover matrix sweeps synthetic model weight × worker count ×
//! duty cycle and records, per cell, the fleet's speedup over an
//! in-process [`IndexedMonitor`] run under the **same duty**. Two duties:
//!
//! * `stream` — pure ingestion, no durability. Framing and pipe transport
//!   are pure overhead here; on a single-core host the fleet honestly
//!   loses, and the matrix records by how much.
//! * `durable` — a checkpoint after every batch, both sides. The
//!   in-process monitor pays every snapshot-encode + fsync inline; the
//!   fleet's asynchronous checkpoint path overlaps each worker's fsync
//!   with the supervisor's routing and the other workers' evaluation.
//!   This is where the transport earns its keep: the crossover rows
//!   (speedup > 1.0 at 2+ workers) live here, and `--require-crossover`
//!   gates CI on at least one existing.
//!
//! Before anything is timed, the merged alert stream of a 2-worker fleet is
//! proven **identical** to the single-process [`IndexedMonitor`] run over
//! the same batches — the distributed layer may only ever change *where*
//! monitoring happens, never what it says. The sweep re-checks this
//! equality for every cell.
//!
//! ```text
//! distributed_scaling [--quick] [--workers LIST] [--min-workers N]
//!                     [--require-crossover] [--worker PATH] [--out PATH]
//!                     [--force-baseline]
//! ```
//!
//! Rows are named by worker count (`w1`, `w2`, …) and crossover cells by
//! `weight<W>/<duty>/w<N>`. See `docs/PERFORMANCE.md` for the recorded
//! baseline.

use privacy_bench::{
    bench_main, event_stream, population, threads_available, BenchArgs, Object, Report,
};
use privacy_core::{casestudy, PrivacySystem};
use privacy_distrib::{
    CheckpointStore, DistribStats, DistributedMonitor, FaultPlan, SupervisorConfig,
};
use privacy_lts::LtsIndex;
use privacy_model::{ModelError, UserProfile};
use privacy_runtime::{Alert, Event, IndexedMonitor};
use privacy_synth::{random_model, ModelGeneratorConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 256;
/// Batch size of the crossover sweep: smaller batches mean more durable
/// checkpoints over the same stream, which is exactly the duty the sweep
/// probes.
const SWEEP_BATCH: usize = 512;

struct Options {
    args: BenchArgs,
    workers: Vec<usize>,
    min_workers: usize,
    require_crossover: bool,
    worker: Option<PathBuf>,
}

fn parse_options() -> Result<Options, String> {
    let mut args = BenchArgs::from_env("BENCH_distributed.json")?;
    let workers = args.list("--workers")?;
    let min_workers = args.value("--min-workers")?.unwrap_or(0);
    let require_crossover = args.flag("--require-crossover");
    let worker = args.value("--worker")?;
    args.finish()?;
    let workers = workers.unwrap_or_else(|| if args.quick { vec![1, 2] } else { vec![1, 2, 4] });
    Ok(Options { args, workers, min_workers, require_crossover, worker })
}

/// The `privacy-shardd` binary: explicit path, or the one built next to us.
fn worker_program(options: &Options) -> Result<PathBuf, String> {
    if let Some(path) = &options.worker {
        return Ok(path.clone());
    }
    let me = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let sibling = me.with_file_name("privacy-shardd");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!("no worker binary at {} — pass --worker PATH", sibling.display()))
    }
}

struct Scenario {
    name: &'static str,
    system: PrivacySystem,
    fingerprint: u64,
    index: Arc<LtsIndex>,
    users: Vec<UserProfile>,
    batches: Vec<Vec<Event>>,
}

/// Seeds a population against `system`, drives an engine-produced event
/// stream through it, and chunks the log into `batch`-event super-batches.
fn populate(
    name: &'static str,
    system: PrivacySystem,
    population_size: usize,
    requests: usize,
    batch: usize,
) -> Result<Scenario, ModelError> {
    let lts = system.generate_lts()?;
    let index = Arc::new(LtsIndex::build(&lts));
    let fingerprint = index.fingerprint();

    let users = population(system.catalog(), population_size, 13);
    let events = event_stream(&system, &users, requests);
    let batches = events.chunks(batch).map(<[Event]>::to_vec).collect();
    Ok(Scenario { name, system, fingerprint, index, users, batches })
}

/// The paper's healthcare model with a seeded population and an
/// engine-produced event stream (the `monitor_recovery` fixture shape).
fn scenario(quick: bool) -> Result<Scenario, ModelError> {
    let system = casestudy::healthcare()?;
    let (population, requests) = if quick { (96, 3_000) } else { (192, 12_000) };
    populate("Healthcare", system, population, requests, BATCH)
}

/// A synthetic sweep scenario whose per-event evaluation cost scales with
/// `weight` (see [`ModelGeneratorConfig::heavy_evaluation`]).
fn synth_scenario(weight: usize, quick: bool) -> Result<Scenario, ModelError> {
    let (catalog, dataflows, policy) =
        random_model(&ModelGeneratorConfig::heavy_evaluation(weight))?;
    let system = PrivacySystem::new(catalog, dataflows, policy);
    // A large population is what gives the durable duty its signal: the
    // snapshot grows with users, which takes the checkpoint fsync out of its
    // fixed-cost floor and into size-dominated territory — where sharding
    // the state across workers genuinely shrinks each worker's write. The
    // populations below put the full snapshot at ~2.5 MB, where the disk
    // bill the fleet hides per checkpoint outweighs the per-event pipe
    // transport it pays for.
    let (population, requests) = if quick { (16_000, 8_000) } else { (16_000, 16_000) };
    populate("Synthetic", system, population, requests, SWEEP_BATCH)
}

fn fleet_config(
    program: &std::path::Path,
    dir_tag: &str,
    workers: usize,
    plan: FaultPlan,
) -> SupervisorConfig {
    let dir = std::env::temp_dir()
        .join(format!("privacy-distributed-bench-{dir_tag}-{}", std::process::id()));
    let mut config = SupervisorConfig::new(program, dir);
    config.workers = workers;
    config.window = 4;
    config.checkpoint_every = 8;
    config.fault_plan = plan;
    config
}

/// Launches a fleet, registers the population, streams every batch through
/// it, and returns the merged alerts, the run stats, and the ingest-phase
/// wall time (fleet launch and registration are deliberately not timed:
/// they amortise over a monitor's lifetime).
fn run_fleet(
    scenario: &Scenario,
    config: SupervisorConfig,
) -> Result<(Vec<Alert>, DistribStats, f64), String> {
    let dir = config.checkpoint_dir.clone();
    let mut monitor =
        DistributedMonitor::launch(scenario.name, &scenario.system, scenario.fingerprint, config)
            .map_err(|e| format!("launch failed: {e}"))?;
    for user in &scenario.users {
        monitor.register_user(user).map_err(|e| format!("registration failed: {e}"))?;
    }
    let started = Instant::now();
    let mut alerts = Vec::new();
    for batch in &scenario.batches {
        alerts.extend(monitor.submit_batch(batch).map_err(|e| format!("ingest failed: {e}"))?);
    }
    let (rest, stats) = monitor.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    alerts.extend(rest);
    let _ = std::fs::remove_dir_all(dir);
    Ok((alerts, stats, secs))
}

/// The in-process comparator under a duty cycle: one [`IndexedMonitor`],
/// every batch, and — when `checkpoint_every > 0` — a full snapshot encode
/// plus fsynced [`CheckpointStore`] write every `checkpoint_every` batches,
/// exactly the durability the fleet's workers provide. Ingestion fans each
/// batch out over every available core, but the checkpoint runs on the
/// calling thread between batches: the in-process monitor has nowhere to
/// hide the fsync, so the stall lands inline, which is the honest baseline
/// the crossover is measured against.
fn run_inproc(
    scenario: &Scenario,
    dir_tag: &str,
    checkpoint_every: u64,
) -> Result<(Vec<Alert>, f64), String> {
    let mut monitor = IndexedMonitor::new(
        scenario.system.catalog().clone(),
        scenario.system.policy().clone(),
        scenario.index.clone(),
    )
    .with_threads(Some(threads_available()));
    for user in &scenario.users {
        monitor.register_user(user);
    }
    let dir = std::env::temp_dir()
        .join(format!("privacy-distributed-bench-inproc-{dir_tag}-{}", std::process::id()));
    let store = CheckpointStore::new(dir.join("inproc.ckpt"));
    let started = Instant::now();
    let mut alerts = Vec::new();
    for (i, batch) in scenario.batches.iter().enumerate() {
        alerts.extend_from_slice(monitor.ingest_batch(batch));
        let id = i as u64 + 1;
        if checkpoint_every > 0 && id.is_multiple_of(checkpoint_every) {
            let snapshot = monitor.snapshot().to_bytes();
            store.write(&snapshot).map_err(|e| format!("in-process checkpoint failed: {e}"))?;
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    Ok((alerts, secs))
}

struct Row {
    workers: usize,
    events: usize,
    alerts: usize,
    secs: f64,
    recoveries: usize,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs
    }
}

struct CrossoverRow {
    weight: usize,
    duty: &'static str,
    workers: usize,
    events: usize,
    inproc_secs: f64,
    fleet_secs: f64,
}

impl CrossoverRow {
    fn speedup(&self) -> f64 {
        self.inproc_secs / self.fleet_secs
    }
}

/// The crossover matrix: model weight × worker count × duty cycle, each
/// cell the fleet's wall time against the in-process run under the same
/// duty, with the merged streams proven equal before the cell is recorded.
fn crossover_sweep(
    options: &Options,
    program: &std::path::Path,
) -> Result<Vec<CrossoverRow>, String> {
    let weights: Vec<usize> = if options.args.quick { vec![3] } else { vec![1, 3] };
    let worker_counts: Vec<usize> = vec![1, 2];
    // (duty, fleet + comparator checkpoint cadence in batches; 0 = never)
    // Durable duty checkpoints after every super-batch — the densest
    // durability cycle: the in-process run pays every snapshot write and
    // fsync inline, while each fleet worker's fsync rides its checkpoint
    // thread and the supervisor keeps routing the stream underneath it.
    let duties: [(&'static str, u64); 2] = [("stream", 0), ("durable", 1)];
    let mut rows = Vec::new();
    for &weight in &weights {
        let scenario = synth_scenario(weight, options.args.quick)
            .map_err(|e| format!("building the weight-{weight} sweep scenario: {e}"))?;
        let events: usize = scenario.batches.iter().map(Vec::len).sum();
        for (duty, checkpoint_every) in duties {
            // Every cell is best-of-`reps`: the durable legs are disk-bound
            // and a shared host's I/O jitter can swing a single run by tens
            // of percent in either direction — the minimum is the honest
            // estimate of what each side can do, and it is taken over the
            // same number of attempts for both.
            let reps = 3;
            let tag = format!("x{weight}{duty}");
            let (expected, mut inproc_secs) = run_inproc(&scenario, &tag, checkpoint_every)?;
            for _ in 1..reps {
                let (_, secs) = run_inproc(&scenario, &tag, checkpoint_every)?;
                inproc_secs = inproc_secs.min(secs);
            }
            for &workers in &worker_counts {
                let mut fleet_secs = f64::INFINITY;
                for rep in 0..reps {
                    let mut config = fleet_config(
                        program,
                        &format!("{tag}w{workers}r{rep}"),
                        workers,
                        FaultPlan::none(),
                    );
                    config.checkpoint_every = checkpoint_every;
                    let (merged, _, secs) = run_fleet(&scenario, config)?;
                    if merged != expected {
                        return Err(format!(
                            "crossover gate failed at weight {weight}, duty {duty}, {workers} \
                             workers: fleet stream diverged from the in-process run"
                        ));
                    }
                    fleet_secs = fleet_secs.min(secs);
                }
                let row = CrossoverRow { weight, duty, workers, events, inproc_secs, fleet_secs };
                eprintln!(
                    "crossover: weight {weight} duty {duty:>7} workers {workers}: in-process \
                     {inproc_secs:>7.3} s, fleet {fleet_secs:>7.3} s, speedup {:>5.2}x",
                    row.speedup()
                );
                rows.push(row);
            }
        }
    }
    Ok(rows)
}

struct RecoveryRow {
    workers: usize,
    recoveries: usize,
    latency_ms_mean: f64,
    resumed_from_batch: u64,
}

fn run(options: &Options) -> Result<(Vec<Row>, RecoveryRow, Vec<CrossoverRow>), String> {
    let program = worker_program(options)?;
    let scenario =
        scenario(options.args.quick).map_err(|e| format!("building the scenario: {e}"))?;
    let events: usize = scenario.batches.iter().map(Vec::len).sum();

    // ── Correctness gate: the merged stream must equal the in-process run.
    let mut reference = IndexedMonitor::new(
        scenario.system.catalog().clone(),
        scenario.system.policy().clone(),
        scenario.index.clone(),
    );
    for user in &scenario.users {
        reference.register_user(user);
    }
    let mut expected = Vec::new();
    for batch in &scenario.batches {
        expected.extend_from_slice(reference.ingest_batch(batch));
    }
    let (merged, _, _) =
        run_fleet(&scenario, fleet_config(&program, "gate", 2, FaultPlan::none()))?;
    if merged != expected {
        return Err(format!(
            "correctness gate failed: 2-worker merged stream has {} alerts, in-process run has \
             {} — distributed monitoring may not change what is reported",
            merged.len(),
            expected.len()
        ));
    }

    // ── Throughput vs worker count.
    let mut rows = Vec::new();
    for &workers in &options.workers {
        let reps = if options.args.quick { 1 } else { 2 };
        let mut best_secs = f64::INFINITY;
        let mut last = None;
        for rep in 0..reps {
            let tag = format!("w{workers}r{rep}");
            let (alerts, stats, secs) =
                run_fleet(&scenario, fleet_config(&program, &tag, workers, FaultPlan::none()))?;
            best_secs = best_secs.min(secs);
            last = Some((alerts.len(), stats.recoveries.len()));
        }
        let (alerts, recoveries) = last.expect("at least one rep");
        let row = Row { workers, events, alerts, secs: best_secs, recoveries };
        eprintln!(
            "{:>2} workers: {:>7} events in {:>7.3} s ({:>9.0} events/s), {} alerts, {} \
             recoveries",
            row.workers,
            row.events,
            row.secs,
            row.events_per_sec(),
            row.alerts,
            row.recoveries,
        );
        rows.push(row);
    }

    // ── Recovery latency: kill a worker mid-stream, measure detection →
    // caught-up replacement.
    let kill_at = (events / 3) as u64;
    let plan = FaultPlan::none().kill_after(0, 0, kill_at.max(1));
    let (alerts, stats, _) = run_fleet(&scenario, fleet_config(&program, "recovery", 2, plan))?;
    if alerts != expected {
        return Err(
            "recovery gate failed: the killed-and-recovered run diverged from the in-process \
             stream"
                .to_owned(),
        );
    }
    if stats.recoveries.is_empty() {
        return Err("recovery gate failed: the armed kill never triggered a recovery".to_owned());
    }
    let latency_ms_mean =
        stats.recoveries.iter().map(|recovery| recovery.latency.as_secs_f64() * 1e3).sum::<f64>()
            / stats.recoveries.len() as f64;
    let recovery = RecoveryRow {
        workers: 2,
        recoveries: stats.recoveries.len(),
        latency_ms_mean,
        resumed_from_batch: stats.recoveries[0].resumed_from_batch,
    };
    eprintln!(
        "recovery: {} restart(s), mean latency {:.1} ms, resumed from batch {}",
        recovery.recoveries, recovery.latency_ms_mean, recovery.resumed_from_batch,
    );

    // ── The transport crossover matrix.
    let crossover = crossover_sweep(options, &program)?;
    Ok((rows, recovery, crossover))
}

fn report(
    options: &Options,
    rows: &[Row],
    recovery: &RecoveryRow,
    crossover: &[CrossoverRow],
) -> Result<Report, String> {
    let recovery = Object::new()
        .with("workers", recovery.workers)
        .with("recoveries", recovery.recoveries)
        .fixed("latency_ms_mean", recovery.latency_ms_mean, 1)
        .with("resumed_from_batch", recovery.resumed_from_batch);
    Report::new("distributed_scaling", options.args.quick)
        .with("batch", BATCH)
        .with("recovery", recovery)
        .rows(
            "rows",
            rows.iter().map(|row| {
                let fields = Object::new()
                    .with("workers", row.workers)
                    .with("events", row.events)
                    .with("alerts", row.alerts)
                    .fixed("secs", row.secs, 3)
                    .fixed("events_per_sec", row.events_per_sec(), 0);
                (format!("w{}", row.workers), fields)
            }),
        )?
        .rows(
            "crossover",
            crossover.iter().map(|row| {
                let fields = Object::new()
                    .with("weight", row.weight)
                    .with("duty", row.duty)
                    .with("workers", row.workers)
                    .with("events", row.events)
                    .fixed("inproc_secs", row.inproc_secs, 3)
                    .fixed("fleet_secs", row.fleet_secs, 3)
                    .fixed("speedup", row.speedup(), 2);
                (format!("weight{}/{}/w{}", row.weight, row.duty, row.workers), fields)
            }),
        )
}

fn main() -> ExitCode {
    bench_main("distributed_scaling", || {
        let options = parse_options()?;
        let (rows, recovery, crossover) = run(&options)?;
        // CI floors: the fleet must actually scale to the demanded width.
        if let Some(widest) = rows.iter().map(|row| row.workers).max() {
            if widest < options.min_workers {
                return Err(format!(
                    "widest fleet ran {widest} workers, below the --min-workers {} floor",
                    options.min_workers
                ));
            }
        }
        // The crossover gate: at least one swept cell where a 2+ worker fleet
        // beats the in-process monitor under the same duty cycle.
        if options.require_crossover
            && !crossover.iter().any(|row| row.workers >= 2 && row.speedup() > 1.0)
        {
            return Err("--require-crossover failed — no swept cell with 2+ workers beat the \
                        in-process run"
                .to_owned());
        }
        options.args.write(&report(&options, &rows, &recovery, &crossover)?)
    })
}
