//! The crash-recovery benchmark: snapshot/restore cost for the indexed
//! monitor and the checkpointed-audit speedup over the append-only log,
//! recorded as `BENCH_recovery.json`.
//!
//! PR 4 made the operation-time monitor probe the shared design-time index;
//! this benchmark tracks the *restartability* of that layer. Per scenario it
//! runs `Pipeline::analyse_population` once (the design-time build whose
//! shared index serves both fresh and resumed monitors), replays a
//! `privacy-synth` workload into an event stream, then measures:
//!
//! * **Snapshot / restore** — at the mid-stream cut point: encoding the
//!   monitor's state through the `privacy-interchange` binary codec
//!   (`snapshot().to_bytes()`), and the restart path
//!   (`MonitorSnapshot::from_bytes` + `IndexedMonitor::resume_from`) against
//!   re-ingesting the whole prefix from the log — the `restore_speedup`
//!   column is "resume instead of replay".
//! * **Checkpointed audit** — the log grows in `audits` increments; each
//!   period either re-audits from scratch (`check_log`: index rebuild +
//!   probes over the whole prefix) or appends the increment to one
//!   maintained `EventLogIndex` and runs `check_log_checkpointed` with the
//!   carried `AuditCheckpoint`, paying only for the suffix. The
//!   `suffix_speedup` column is the total-cost ratio across all periods and
//!   is what `--min-suffix-speedup` gates in CI.
//!
//! Before anything is timed, the benchmark proves the recovery is lossless:
//! drained-prefix + post-resume alerts must equal the uninterrupted run's
//! alert stream (with per-user states bit-identical, across snapshot and
//! resume thread counts), and the final checkpointed report must equal the
//! from-scratch `check_log_scan` over the full log.
//!
//! A third concern rides along since the sparse snapshot encoding (v3):
//! the **population scenario** measures snapshot footprint at realistic
//! population scale — a skewed `privacy-synth` population (cold majority,
//! small engaged minority) over the healthcare model, reported as snapshot
//! bytes per user, encode/resume throughput in users per second,
//! steady-state RSS and the per-row encoding-choice histogram. The full
//! run measures 1,000,000 users (`population_1m`); `--quick
//! --population-only` measures only the population, scaled down to 65,536
//! (`population_64k`). `--max-bytes-per-user` turns the footprint into a CI
//! gate.
//!
//! ```text
//! monitor_recovery [--quick] [--min-suffix-speedup X] [--out PATH]
//!                  [--threads N] [--force-baseline]
//!                  [--population-only] [--max-bytes-per-user X]
//! ```
//!
//! See `docs/PERFORMANCE.md` for the recorded baseline.

use privacy_bench::{
    audit_policy, bench_main, event_stream, min_or_zero, population, replay_workload,
    stream_scenarios, time_runs, BenchArgs, Object, Report, StreamScenario,
};
use privacy_compliance::{check_log, check_log_checkpointed, check_log_scan, AuditCheckpoint};
use privacy_core::{casestudy, Pipeline};
use privacy_lts::LtsIndex;
use privacy_runtime::snapshot::SnapshotEncodingHistogram;
use privacy_runtime::{EventLog, EventLogIndex, IndexedMonitor, MonitorSnapshot};
use privacy_synth::{skewed_population, SkewedPopulationConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// One measured row of the report.
struct Row {
    scenario: StreamScenario,
    events: usize,
    cut: usize,
    alerts: usize,
    snapshot_bytes: usize,
    snapshot_encode_secs: f64,
    resume_secs: f64,
    prefix_replay_secs: f64,
    audits: usize,
    audit_statements: usize,
    audit_scratch_secs: f64,
    audit_checkpoint_secs: f64,
}

/// Streams below this length time per-audit setup, not suffix cost; the
/// regression guard skips them.
const GUARD_MIN_EVENTS: usize = 1_000;

/// How many audit periods the log is split into.
const AUDIT_PERIODS: usize = 16;

impl Row {
    /// "Resume instead of replaying the prefix" speedup.
    fn restore_speedup(&self) -> f64 {
        self.prefix_replay_secs / self.resume_secs
    }

    /// Total checkpointed-audit speedup over from-scratch periodic audits.
    fn suffix_speedup(&self) -> f64 {
        self.audit_scratch_secs / self.audit_checkpoint_secs
    }

    fn guarded(&self) -> bool {
        self.events >= GUARD_MIN_EVENTS
    }
}

struct Options {
    args: BenchArgs,
    min_suffix_speedup: f64,
    threads: Option<usize>,
    /// Skip the standard scenarios and measure only the population row
    /// (which a full run always measures).
    population_only: bool,
    max_bytes_per_user: f64,
}

fn parse_options() -> Result<Options, String> {
    let mut args = BenchArgs::from_env("BENCH_recovery.json")?;
    let min_suffix_speedup = args.value("--min-suffix-speedup")?.unwrap_or(0.0);
    let threads = args.value("--threads")?;
    let population_only = args.flag("--population-only");
    let max_bytes_per_user = args.value("--max-bytes-per-user")?.unwrap_or(0.0);
    args.finish()?;
    Ok(Options { args, min_suffix_speedup, threads, population_only, max_bytes_per_user })
}

/// The audit period boundaries: `AUDIT_PERIODS` roughly equal increments
/// ending exactly at the stream length.
fn audit_bounds(events: usize) -> Vec<usize> {
    let step = events.div_ceil(AUDIT_PERIODS).max(1);
    let mut bounds: Vec<usize> = (1..=AUDIT_PERIODS).map(|i| (i * step).min(events)).collect();
    bounds.dedup();
    bounds
}

fn run(options: &Options) -> Result<Vec<Row>, String> {
    let quick = options.args.quick;
    let target = if quick { Duration::from_millis(200) } else { Duration::from_millis(700) };
    let snapshot_threads = options.threads.unwrap_or(4).max(1);
    let mut rows = Vec::new();

    for scenario in stream_scenarios(quick).map_err(|e| format!("building scenarios: {e}"))? {
        let catalog = scenario.system.catalog().clone();
        let policy = scenario.system.policy().clone();
        let users = population(&catalog, scenario.users, 13);

        // One design-time build serves the population analysis, every fresh
        // monitor and every resumed monitor.
        let outcome = Pipeline::new(&scenario.system)
            .analyse_population(&users, options.threads)
            .map_err(|e| format!("{}: population analysis failed: {e}", scenario.name))?;
        let index = outcome.shared_index();

        let events = event_stream(&scenario.system, &users, scenario.requests);
        let cut = events.len() / 2;
        let audit = audit_policy(&catalog);

        let mut proto = IndexedMonitor::new(catalog.clone(), policy.clone(), index.clone());
        for user in &users {
            proto.register_user(user);
        }

        // ── Correctness gates (nothing is timed until recovery is lossless).
        let mut uninterrupted = proto.clone();
        let full_alerts = uninterrupted.ingest_batch(&events).to_vec();

        let mut at_cut = proto.clone().with_threads(Some(snapshot_threads));
        let prefix_alerts = at_cut.ingest_batch(&events[..cut]).to_vec();
        let drained = at_cut.drain_alerts();
        if drained != prefix_alerts {
            return Err(format!("{}: drained prefix alerts diverge", scenario.name));
        }
        let snapshot_bytes_vec = at_cut.snapshot().to_bytes();
        for resume_threads in [1usize, 2] {
            let snapshot = MonitorSnapshot::from_bytes(&snapshot_bytes_vec)
                .map_err(|e| format!("{}: snapshot round-trip failed: {e}", scenario.name))?;
            let mut resumed = IndexedMonitor::resume_from(
                catalog.clone(),
                policy.clone(),
                index.clone(),
                &snapshot,
            )
            .map_err(|e| format!("{}: resume failed: {e}", scenario.name))?
            .with_threads(Some(resume_threads));
            let tail_alerts = resumed.ingest_batch(&events[cut..]).to_vec();
            let mut recovered = prefix_alerts.clone();
            recovered.extend(tail_alerts);
            if recovered != full_alerts {
                return Err(format!(
                    "{}: snapshot(t={snapshot_threads}) → resume(t={resume_threads}) alert \
                     stream diverges from the uninterrupted run",
                    scenario.name
                ));
            }
            for user in &users {
                if resumed.state_of(user.id()) != uninterrupted.state_of(user.id()) {
                    return Err(format!(
                        "{}: post-recovery state of `{}` diverges",
                        scenario.name,
                        user.id()
                    ));
                }
            }
        }

        // Checkpointed audits must equal the from-scratch scan at every
        // period boundary.
        let bounds = audit_bounds(events.len());
        let prefix_logs: Vec<EventLog> = bounds
            .iter()
            .map(|&bound| {
                let mut log = EventLog::new();
                log.extend(events[..bound].iter().cloned());
                log
            })
            .collect();
        {
            let mut maintained = EventLogIndex::build(&EventLog::new());
            let mut checkpoint: Option<AuditCheckpoint> = None;
            let mut covered = 0usize;
            for (log, &bound) in prefix_logs.iter().zip(&bounds) {
                maintained.append(&events[covered..bound]);
                covered = bound;
                let (report, next) =
                    check_log_checkpointed(log, &maintained, &audit, checkpoint.take()).map_err(
                        |e| format!("{}: checkpointed audit failed: {e}", scenario.name),
                    )?;
                if report != check_log_scan(log, &audit) {
                    return Err(format!(
                        "{}: checkpointed audit at {bound} events diverges from the scan",
                        scenario.name
                    ));
                }
                checkpoint = Some(next);
            }
        }

        // ── Timings.
        let (snapshot_encode_secs, snapshot_bytes) =
            time_runs(target, || at_cut.snapshot().to_bytes().len());
        let (resume_secs, _) = time_runs(target, || {
            let snapshot =
                MonitorSnapshot::from_bytes(&snapshot_bytes_vec).expect("validated above");
            IndexedMonitor::resume_from(catalog.clone(), policy.clone(), index.clone(), &snapshot)
                .expect("validated above")
                .user_count()
        });
        let (prefix_replay_secs, _) = time_runs(target, || {
            let mut monitor = proto.clone();
            monitor.ingest_batch(&events[..cut]).len()
        });

        let (audit_scratch_secs, _) = time_runs(target, || {
            let mut violations = 0usize;
            for log in &prefix_logs {
                violations += check_log(log, &audit).violation_count();
            }
            violations
        });
        let (audit_checkpoint_secs, _) = time_runs(target, || {
            let mut maintained = EventLogIndex::build(&EventLog::new());
            let mut checkpoint: Option<AuditCheckpoint> = None;
            let mut covered = 0usize;
            let mut violations = 0usize;
            for (log, &bound) in prefix_logs.iter().zip(&bounds) {
                maintained.append(&events[covered..bound]);
                covered = bound;
                let (report, next) =
                    check_log_checkpointed(log, &maintained, &audit, checkpoint.take())
                        .expect("validated above");
                violations += report.violation_count();
                checkpoint = Some(next);
            }
            violations
        });

        let row = Row {
            events: events.len(),
            cut,
            alerts: full_alerts.len(),
            snapshot_bytes,
            snapshot_encode_secs,
            resume_secs,
            prefix_replay_secs,
            audits: bounds.len(),
            audit_statements: audit.len(),
            audit_scratch_secs,
            audit_checkpoint_secs,
            scenario,
        };
        eprintln!(
            "{:<20} {:>6} events cut@{:<6} | snapshot {:>7} B, encode {:>7.3} ms, resume \
             {:>7.3} ms (replay {:>8.3} ms, {:>6.1}x) | {} audits {:>8.3} ms scratch vs \
             {:>8.3} ms checkpointed ({:>5.2}x)",
            row.scenario.name,
            row.events,
            row.cut,
            row.snapshot_bytes,
            row.snapshot_encode_secs * 1e3,
            row.resume_secs * 1e3,
            row.prefix_replay_secs * 1e3,
            row.restore_speedup(),
            row.audits,
            row.audit_scratch_secs * 1e3,
            row.audit_checkpoint_secs * 1e3,
            row.suffix_speedup(),
        );
        rows.push(row);
    }
    Ok(rows)
}

/// One measured population-scale footprint row.
struct PopulationRow {
    name: String,
    users: usize,
    engaged: usize,
    events: usize,
    alerts: usize,
    snapshot_bytes: usize,
    encode_secs: f64,
    resume_secs: f64,
    rss_mb: f64,
    histogram: SnapshotEncodingHistogram,
}

impl PopulationRow {
    fn bytes_per_user(&self) -> f64 {
        self.snapshot_bytes as f64 / self.users.max(1) as f64
    }

    fn encode_users_per_sec(&self) -> f64 {
        self.users as f64 / self.encode_secs
    }

    fn resume_users_per_sec(&self) -> f64 {
        self.users as f64 / self.resume_secs
    }
}

/// Resident set size in MiB, from `/proc/self/status` (0.0 where absent).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmRSS:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The population-scale footprint scenario: a skewed million-user (64k
/// under `--quick`) population over the healthcare model, where most users
/// are cold and a small minority is engaged. The design-time index is
/// built directly (`generate_lts` + `LtsIndex::build`) — no per-user
/// population analysis — because what is measured here is the *monitor's*
/// snapshot footprint and restart cost, not design-time analysis.
///
/// The same lossless-recovery gate as the main scenarios runs first at the
/// mid-stream cut: prefix + post-resume alerts must equal the
/// uninterrupted run, with per-user states equal on a deterministic sample
/// of the population plus every engaged user.
fn run_population(quick: bool) -> Result<PopulationRow, String> {
    let (name, count, requests) = if quick {
        ("population_64k", 65_536, 2_000)
    } else {
        ("population_1m", 1_000_000, 20_000)
    };
    let target = if quick { Duration::from_millis(200) } else { Duration::from_secs(2) };

    let system = casestudy::healthcare().map_err(|e| format!("{name}: healthcare model: {e}"))?;
    let catalog = system.catalog().clone();
    let policy = system.policy().clone();
    let lts = system.generate_lts().map_err(|e| format!("{name}: LTS generation: {e}"))?;
    let index = Arc::new(LtsIndex::build(&lts));

    let population = skewed_population(&SkewedPopulationConfig {
        count,
        seed: 41,
        services: catalog.services().map(|s| s.id().clone()).collect(),
        fields: catalog.fields().map(|f| f.id().clone()).collect(),
        ..SkewedPopulationConfig::default()
    });
    eprintln!("{name}: {count} users ({} engaged), registering…", population.engaged.len());

    let mut proto = IndexedMonitor::new(catalog.clone(), policy.clone(), index.clone());
    for user in &population.profiles {
        proto.register_user(user);
    }

    // The event stream exercises the engaged minority only — cold users
    // exist to be *carried* (registered, snapshotted, resumed), which is
    // exactly the skew the sparse encoding exploits.
    let events = replay_workload(&system, population.engaged.clone(), requests, 43);
    let cut = events.len() / 2;

    // ── Lossless-recovery gate at the cut point.
    let mut at_cut = proto.clone();
    let prefix_alerts = at_cut.ingest_batch(&events[..cut]).to_vec();
    let _ = at_cut.drain_alerts();
    let snapshot = at_cut.snapshot();
    let snapshot_bytes_vec = snapshot.to_bytes();
    let histogram = snapshot.encoding_histogram();
    drop(snapshot);

    let mut uninterrupted = proto;
    let full_alerts = uninterrupted.ingest_batch(&events).to_vec();

    let decoded = MonitorSnapshot::from_bytes(&snapshot_bytes_vec)
        .map_err(|e| format!("{name}: snapshot round-trip failed: {e}"))?;
    let mut resumed =
        IndexedMonitor::resume_from(catalog.clone(), policy.clone(), index.clone(), &decoded)
            .map_err(|e| format!("{name}: resume failed: {e}"))?;
    let tail_alerts = resumed.ingest_batch(&events[cut..]).to_vec();
    let mut recovered = prefix_alerts;
    recovered.extend(tail_alerts);
    if recovered != full_alerts {
        return Err(format!("{name}: recovered alert stream diverges from the uninterrupted run"));
    }
    for user in
        population.profiles.iter().step_by(499).map(|u| u.id()).chain(population.engaged.iter())
    {
        if resumed.state_of(user) != uninterrupted.state_of(user) {
            return Err(format!("{name}: post-recovery state of `{user}` diverges"));
        }
    }

    // ── Timings: encode the cut-point snapshot, resume from its bytes.
    let (encode_secs, snapshot_bytes) = time_runs(target, || at_cut.snapshot().to_bytes().len());
    let (resume_secs, _) = time_runs(target, || {
        let snapshot = MonitorSnapshot::from_bytes(&snapshot_bytes_vec).expect("validated above");
        IndexedMonitor::resume_from(catalog.clone(), policy.clone(), index.clone(), &snapshot)
            .expect("validated above")
            .user_count()
    });

    let row = PopulationRow {
        name: name.to_owned(),
        users: count,
        engaged: population.engaged.len(),
        events: events.len(),
        alerts: full_alerts.len(),
        snapshot_bytes,
        encode_secs,
        resume_secs,
        rss_mb: rss_mb(),
        histogram,
    };
    eprintln!(
        "{:<20} {:>7} users ({} engaged) | snapshot {:>9} B = {:>6.2} B/user | encode \
         {:>9.0} users/s, resume {:>9.0} users/s | rss {:>7.1} MB | rows: {} dense / {} \
         indexed / {} runs words, {} dense / {} based sens",
        row.name,
        row.users,
        row.engaged,
        row.snapshot_bytes,
        row.bytes_per_user(),
        row.encode_users_per_sec(),
        row.resume_users_per_sec(),
        row.rss_mb,
        row.histogram.words_dense,
        row.histogram.words_indexed,
        row.histogram.words_runs,
        row.histogram.sensitivities_dense,
        row.histogram.sensitivities_based,
    );
    Ok(row)
}

fn report(rows: &[Row], population_rows: &[PopulationRow], quick: bool) -> Result<Report, String> {
    let min_suffix = min_or_zero(rows.iter().filter(|row| row.guarded()).map(Row::suffix_speedup));
    Report::new("monitor_recovery", quick)
        .with("guard_min_events", GUARD_MIN_EVENTS)
        .with("audit_periods", AUDIT_PERIODS)
        .fixed("min_suffix_speedup_observed", min_suffix, 3)
        .rows(
            "rows",
            rows.iter().map(|row| {
                let fields = Object::new()
                    .with("users", row.scenario.users)
                    .with("events", row.events)
                    .with("cut", row.cut)
                    .with("alerts", row.alerts)
                    .with("snapshot_bytes", row.snapshot_bytes)
                    .fixed("snapshot_encode_ms", row.snapshot_encode_secs * 1e3, 3)
                    .fixed("resume_ms", row.resume_secs * 1e3, 3)
                    .fixed("prefix_replay_ms", row.prefix_replay_secs * 1e3, 3)
                    .fixed("restore_speedup", row.restore_speedup(), 3)
                    .with("audits", row.audits)
                    .with("audit_statements", row.audit_statements)
                    .fixed("audit_scratch_ms", row.audit_scratch_secs * 1e3, 3)
                    .fixed("audit_checkpoint_ms", row.audit_checkpoint_secs * 1e3, 3)
                    .fixed("suffix_speedup", row.suffix_speedup(), 3)
                    .with("guarded", row.guarded());
                (row.scenario.name.clone(), fields)
            }),
        )?
        .rows(
            "population_rows",
            population_rows.iter().map(|row| {
                let fields = Object::new()
                    .with("users", row.users)
                    .with("engaged", row.engaged)
                    .with("events", row.events)
                    .with("alerts", row.alerts)
                    .with("snapshot_bytes", row.snapshot_bytes)
                    .fixed("bytes_per_user", row.bytes_per_user(), 3)
                    .fixed("encode_users_per_sec", row.encode_users_per_sec(), 0)
                    .fixed("resume_users_per_sec", row.resume_users_per_sec(), 0)
                    .fixed("rss_mb", row.rss_mb, 1)
                    .with("words_dense", row.histogram.words_dense)
                    .with("words_indexed", row.histogram.words_indexed)
                    .with("words_runs", row.histogram.words_runs)
                    .with("sensitivities_dense", row.histogram.sensitivities_dense)
                    .with("sensitivities_based", row.histogram.sensitivities_based);
                (row.name.clone(), fields)
            }),
        )
}

fn main() -> ExitCode {
    bench_main("monitor_recovery", || {
        let options = parse_options()?;
        let quick = options.args.quick;
        let rows = if options.population_only { Vec::new() } else { run(&options)? };
        // The full run always measures the population; under --quick only
        // --population-only does, so the quick CI leg's timing is untouched.
        let population_rows = if options.population_only || !quick {
            vec![run_population(quick)?]
        } else {
            Vec::new()
        };
        options.args.write(&report(&rows, &population_rows, quick)?)?;

        if options.max_bytes_per_user > 0.0 {
            if population_rows.is_empty() {
                return Err("regression guard failed: --max-bytes-per-user given but no \
                            population row was measured (pass --population-only or drop --quick)"
                    .to_owned());
            }
            for row in &population_rows {
                if row.bytes_per_user() > options.max_bytes_per_user {
                    return Err(format!(
                        "regression guard failed: `{}` snapshot footprint {:.2} bytes/user \
                         exceeds the allowed {:.2}",
                        row.name,
                        row.bytes_per_user(),
                        options.max_bytes_per_user
                    ));
                }
            }
        }

        if options.min_suffix_speedup > 0.0 {
            let guarded: Vec<&Row> = rows.iter().filter(|row| row.guarded()).collect();
            if guarded.is_empty() {
                return Err(format!(
                    "regression guard failed: no stream reaches {GUARD_MIN_EVENTS} events, so \
                     the suffix-speedup floor cannot be enforced"
                ));
            }
            for row in &guarded {
                if row.suffix_speedup() < options.min_suffix_speedup {
                    return Err(format!(
                        "regression guard failed: `{}` checkpointed-audit speedup {:.2}x is \
                         below the required {:.2}x",
                        row.scenario.name,
                        row.suffix_speedup(),
                        options.min_suffix_speedup
                    ));
                }
            }
        }
        Ok(())
    })
}
