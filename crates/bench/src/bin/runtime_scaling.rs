//! The runtime scaling benchmark: index-backed sharded event ingestion
//! against the retained scan-path monitor, recorded as `BENCH_runtime.json`.
//!
//! PR 3 made the *design-time* analyses probe a columnar index; this
//! benchmark tracks the paper's operation-time deliverable — "monitor the
//! privacy risks during the lifetime of the service" — over the same shared
//! machinery. Per scenario it generates the LTS once, builds one
//! [`LtsIndex`], replays a `privacy-synth` workload through the service
//! engine to obtain a realistic event stream, then measures:
//!
//! * **Scan monitor throughput** — [`RuntimeMonitor::observe_all`] over the
//!   stream: per event, a state clone plus a sweep of every (actor, field)
//!   pair with string-keyed lookups.
//! * **Indexed monitor throughput** — [`IndexedMonitor::ingest_batch`] over
//!   the same stream, swept over ingestion thread counts: events resolve
//!   once through the index interners, per-user state shards by `UserId`
//!   hash, and only the bits an event touches are inspected. (On a
//!   single-core recorder the sweep measures fan-out overhead, not scaling —
//!   `threads_available` in the JSON says which regime a baseline was
//!   recorded in.)
//! * **Log audit** — the multi-statement runtime policy checked via
//!   `check_log_scan` (per-statement full scans) against `check_log` (one
//!   `EventLogIndex` build, then each statement decided once per label
//!   group and the flagged groups merged).
//!
//! Every scenario first cross-checks that the indexed monitor's alert
//! stream equals the scan monitor's (at every swept thread count) and that
//! the indexed audit report equals the scan report, so the benchmark
//! doubles as a coarse differential test.
//!
//! ```text
//! runtime_scaling [--quick] [--min-speedup X] [--min-t1-speedup Y]
//!                 [--out PATH] [--threads N]
//! ```
//!
//! `--quick` is the CI smoke configuration (shorter streams, shorter
//! measurement targets). `--min-speedup X` exits non-zero if any guarded
//! row's best sharded ingestion speedup falls below `X`;
//! `--min-t1-speedup Y` (default 1.0) guards the single-thread indexed
//! speedup the same way. See `docs/PERFORMANCE.md`.

use privacy_bench::{
    audit_policy, bench_main, event_stream, min_or_zero, population, stream_scenarios,
    thread_ladder, time_runs, BenchArgs, Object, Report, StreamScenario,
};
use privacy_compliance::{check_log, check_log_scan, ActorMatcher, FieldMatcher, Statement};
use privacy_lts::LtsIndex;
use privacy_model::ActorId;
use privacy_runtime::monitor::RuntimeMonitor;
use privacy_runtime::IndexedMonitor;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// One (threads, events/sec) sample of the ingestion sweep.
struct IngestSample {
    threads: usize,
    events_per_sec: f64,
}

/// One measured row of the report.
struct Row {
    scenario: StreamScenario,
    events: usize,
    space_variables: usize,
    alerts: usize,
    scan_events_per_sec: f64,
    indexed: Vec<IngestSample>,
    audit_statements: usize,
    audit_scan_secs: f64,
    audit_probe_secs: f64,
}

/// Streams below this length time per-batch setup, not ingestion
/// throughput; the regression guard skips them.
const GUARD_MIN_EVENTS: usize = 1_000;

impl Row {
    fn speedup_at(&self, threads: usize) -> Option<f64> {
        self.indexed
            .iter()
            .find(|sample| sample.threads == threads)
            .map(|sample| sample.events_per_sec / self.scan_events_per_sec)
    }

    /// The best sharded ingestion speedup over the scan monitor.
    fn best_speedup(&self) -> f64 {
        self.indexed
            .iter()
            .map(|sample| sample.events_per_sec / self.scan_events_per_sec)
            .fold(0.0, f64::max)
    }

    /// The single-thread indexed speedup (the "≥ 1× at t=1" criterion).
    fn t1_speedup(&self) -> f64 {
        self.speedup_at(1).unwrap_or(0.0)
    }

    fn audit_speedup(&self) -> f64 {
        self.audit_scan_secs / self.audit_probe_secs
    }

    fn guarded(&self) -> bool {
        self.events >= GUARD_MIN_EVENTS
    }
}

struct Options {
    args: BenchArgs,
    min_speedup: f64,
    min_t1_speedup: f64,
    /// The ingestion sweep: `--threads N` gives 1 and N, else the shared
    /// ladder.
    thread_counts: Vec<usize>,
}

fn parse_options() -> Result<Options, String> {
    let mut args = BenchArgs::from_env("BENCH_runtime.json")?;
    let min_speedup = args.value("--min-speedup")?.unwrap_or(0.0);
    let min_t1_speedup = args.value("--min-t1-speedup")?.unwrap_or(1.0);
    let thread_counts = match args.value::<usize>("--threads")? {
        Some(1) => vec![1],
        Some(threads) => vec![1, threads],
        None => thread_ladder(),
    };
    args.finish()?;
    Ok(Options { args, min_speedup, min_t1_speedup, thread_counts })
}

fn run(options: &Options) -> Result<Vec<Row>, String> {
    let quick = options.args.quick;
    let target = if quick { Duration::from_millis(200) } else { Duration::from_millis(700) };
    let counts = &options.thread_counts;
    let mut rows = Vec::new();

    for scenario in stream_scenarios(quick).map_err(|e| format!("building scenarios: {e}"))? {
        let lts = scenario
            .system
            .generate_lts()
            .map_err(|e| format!("{}: generation failed: {e}", scenario.name))?;
        let index = Arc::new(LtsIndex::build(&lts));
        let catalog = scenario.system.catalog();
        let policy = scenario.system.policy();
        let users = population(catalog, scenario.users, 13);
        let events = event_stream(&scenario.system, &users, scenario.requests);
        let log = {
            let mut log = privacy_runtime::EventLog::new();
            log.extend(events.iter().cloned());
            log
        };
        // The shared runtime hygiene policy plus two statements of this
        // bench's own: a prohibition on a role outside the model, and
        // erasure of every processed field.
        let mut audit = audit_policy(catalog);
        audit.add_statement(Statement::forbid(
            "NO-AUDITOR",
            "the external auditor never acts",
            ActorMatcher::only([ActorId::new("ExternalAuditor")]),
            None,
            FieldMatcher::Any,
        ));
        audit.add_statement(Statement::require_erasure(
            "ERASE-ALL",
            "every processed field must be erasable",
            FieldMatcher::Any,
        ));

        // Prototype monitors with every user registered; each timed run
        // clones the prototype so state evolution starts fresh.
        let mut scan_proto = RuntimeMonitor::new(catalog.clone(), policy.clone());
        let mut indexed_proto =
            IndexedMonitor::new(catalog.clone(), policy.clone(), Arc::clone(&index));
        for user in &users {
            scan_proto.register_user(user);
            indexed_proto.register_user(user);
        }

        // Differential check before timing anything: a speedup over a
        // different alert stream would be meaningless.
        let mut scan_check = scan_proto.clone();
        let scan_alerts = scan_check.observe_all(&events);
        for &threads in counts {
            let mut indexed_check = indexed_proto.clone().with_threads(Some(threads));
            let indexed_alerts = indexed_check.ingest_batch(&events).to_vec();
            if indexed_alerts != scan_alerts {
                return Err(format!(
                    "{}: indexed (t={threads}) and scan alert streams disagree",
                    scenario.name
                ));
            }
        }
        if check_log(&log, &audit) != check_log_scan(&log, &audit) {
            return Err(format!("{}: indexed and scan audit reports disagree", scenario.name));
        }

        // Scan monitor throughput.
        let (scan_secs, _) = time_runs(target, || {
            let mut monitor = scan_proto.clone();
            monitor.observe_all(&events).len()
        });

        // Indexed monitor throughput, swept over ingestion thread counts.
        let indexed = counts
            .iter()
            .map(|&threads| {
                let proto = indexed_proto.clone().with_threads(Some(threads));
                let (secs, _) = time_runs(target, || {
                    let mut monitor = proto.clone();
                    monitor.ingest_batch(&events).len()
                });
                IngestSample { threads, events_per_sec: events.len() as f64 / secs }
            })
            .collect();

        // Log audit: per-statement full scans vs one index build + probes.
        let (audit_scan_secs, _) = time_runs(target, || check_log_scan(&log, &audit));
        let (audit_probe_secs, _) = time_runs(target, || check_log(&log, &audit));

        let row = Row {
            events: events.len(),
            space_variables: index.space().variable_count(),
            alerts: scan_alerts.len(),
            scan_events_per_sec: events.len() as f64 / scan_secs,
            indexed,
            audit_statements: audit.len(),
            audit_scan_secs,
            audit_probe_secs,
            scenario,
        };
        eprintln!(
            "{:<20} {:>6} events {:>4} users {:>3} vars | scan {:>9.0} ev/s | indexed t1 \
             {:>9.0} ev/s ({:>5.2}x) best {:>5.2}x | audit {:>5.2}x | {} alerts",
            row.scenario.name,
            row.events,
            row.scenario.users,
            row.space_variables,
            row.scan_events_per_sec,
            row.indexed.first().map_or(0.0, |s| s.events_per_sec),
            row.t1_speedup(),
            row.best_speedup(),
            row.audit_speedup(),
            row.alerts,
        );
        rows.push(row);
    }
    Ok(rows)
}

fn report(options: &Options, rows: &[Row]) -> Result<Report, String> {
    let guarded = || rows.iter().filter(|row| row.guarded());
    Report::new("runtime_scaling", options.args.quick)
        .with("guard_min_events", GUARD_MIN_EVENTS)
        .fixed("min_best_speedup_observed", min_or_zero(guarded().map(Row::best_speedup)), 3)
        .fixed("min_t1_speedup_observed", min_or_zero(guarded().map(Row::t1_speedup)), 3)
        .rows(
            "rows",
            rows.iter().map(|row| {
                let indexed: Vec<Object> = row
                    .indexed
                    .iter()
                    .map(|s| {
                        Object::new()
                            .with("threads", s.threads)
                            .fixed("events_per_sec", s.events_per_sec, 0)
                            .fixed("speedup", s.events_per_sec / row.scan_events_per_sec, 3)
                    })
                    .collect();
                let fields = Object::new()
                    .with("users", row.scenario.users)
                    .with("events", row.events)
                    .with("space_variables", row.space_variables)
                    .with("alerts", row.alerts)
                    .fixed("scan_events_per_sec", row.scan_events_per_sec, 0)
                    .with("indexed", indexed)
                    .fixed("t1_speedup", row.t1_speedup(), 3)
                    .fixed("best_speedup", row.best_speedup(), 3)
                    .with("audit_statements", row.audit_statements)
                    .fixed("audit_scan_ms", row.audit_scan_secs * 1e3, 3)
                    .fixed("audit_probe_ms", row.audit_probe_secs * 1e3, 3)
                    .fixed("audit_speedup", row.audit_speedup(), 3)
                    .with("guarded", row.guarded());
                (row.scenario.name.clone(), fields)
            }),
        )
}

fn main() -> ExitCode {
    bench_main("runtime_scaling", || {
        let options = parse_options()?;
        let rows = run(&options)?;
        options.args.write(&report(&options, &rows)?)?;

        let guarded: Vec<&Row> = rows.iter().filter(|row| row.guarded()).collect();
        let enforcing = options.min_speedup > 0.0 || options.min_t1_speedup > 0.0;
        if enforcing && guarded.is_empty() {
            return Err(format!(
                "regression guard failed: no stream reaches {GUARD_MIN_EVENTS} events, so the \
                 speedup floors cannot be enforced"
            ));
        }
        for row in &guarded {
            if options.min_speedup > 0.0 && row.best_speedup() < options.min_speedup {
                return Err(format!(
                    "regression guard failed: `{}` best sharded ingestion speedup {:.2}x is \
                     below the required {:.2}x",
                    row.scenario.name,
                    row.best_speedup(),
                    options.min_speedup
                ));
            }
            // The t1 floor (default 1.0: indexed must never lose to the scan
            // monitor) is enforced independently of --min-speedup.
            if options.min_t1_speedup > 0.0 && row.t1_speedup() < options.min_t1_speedup {
                return Err(format!(
                    "regression guard failed: `{}` single-thread indexed speedup {:.2}x is \
                     below the required {:.2}x",
                    row.scenario.name,
                    row.t1_speedup(),
                    options.min_t1_speedup
                ));
            }
        }
        Ok(())
    })
}
