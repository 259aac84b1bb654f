//! The ingestion benchmark: wire-format parsing throughput into the
//! indexed monitor, recorded as `BENCH_ingest.json`.
//!
//! The `privacy-ingest` crate is the front door between real logs and the
//! runtime monitors; this bench tracks what it costs. Per scenario it
//! replays a seeded `privacy-synth` workload through the service engine to
//! obtain the reference event stream, renders that stream in each wire
//! format (JSON lines, logfmt, CSV, and gzip-wrapped JSON), then measures
//! `ingest_bytes` throughput — bytes → lines → records → resolved events —
//! in events/sec and MB/sec.
//!
//! Correctness gates run before any timing:
//!
//! * **round-trip** — the parsed event list must equal the rendered one,
//!   byte-for-byte in every column, for every format;
//! * **alert equivalence** — an [`IndexedMonitor`] fed the parsed events
//!   must produce exactly the alert stream of one fed the originals.
//!
//! A throughput number over a lossy parse would be meaningless, so a gate
//! failure aborts the bench with a non-zero exit.
//!
//! The healthcare scenario additionally gets a **tail-mode** row: the same
//! corpus consumed live through the `PipelineRunner` (poll → assemble →
//! parse → bounded queue → monitor), reporting steady-state events/sec
//! over a fully written log plus p50/p99 event-to-alert latency under a
//! paced writer. Both live runs are gated on alert equivalence too.
//!
//! ```text
//! ingest_scaling [--quick] [--min-json-events-per-sec X] [--out PATH]
//!                [--force-baseline]
//! ```
//!
//! `--quick` is the CI smoke configuration. `--min-json-events-per-sec X`
//! exits non-zero if the healthcare JSON row falls below `X` events/sec
//! (CI pins 50000). See `docs/PERFORMANCE.md`.

use privacy_bench::{time_runs, write_report};
use privacy_core::{casestudy, PrivacySystem};
use privacy_ingest::{
    gzip_compress_stored, ingest_bytes, FieldMapping, FollowConfig, IngestOptions, LiveSource,
};
use privacy_lts::LtsIndex;
use privacy_mde::pipeline::{IndexedSink, PipelineConfig, PipelineProgress, PipelineRunner};
use privacy_model::{Catalog, FieldId, ModelError, Record, ServiceId, UserProfile};
use privacy_runtime::{Alert, Event, IndexedMonitor, ServiceEngine};
use privacy_synth::{
    random_model, random_profiles, random_workload, render_events, LogFormat, ModelGeneratorConfig,
    ProfileGeneratorConfig, WorkloadConfig,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark scenario.
struct Scenario {
    name: String,
    users: usize,
    requests: usize,
    system: PrivacySystem,
}

/// One measured (scenario, wire format) row.
struct Row {
    scenario: String,
    format: &'static str,
    events: usize,
    bytes: usize,
    events_per_sec: f64,
    mbytes_per_sec: f64,
    alerts: usize,
}

struct Options {
    quick: bool,
    min_json_events_per_sec: f64,
    out: String,
    force_baseline: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        quick: false,
        min_json_events_per_sec: 0.0,
        out: "BENCH_ingest.json".to_owned(),
        force_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--min-json-events-per-sec" => {
                let value = args.next().ok_or("--min-json-events-per-sec needs a value")?;
                options.min_json_events_per_sec = value
                    .parse()
                    .map_err(|_| format!("bad --min-json-events-per-sec value `{value}`"))?;
            }
            "--out" => options.out = args.next().ok_or("--out needs a path")?,
            "--force-baseline" => options.force_baseline = true,
            other => return Err(format!("unknown argument `{other}` (see docs/PERFORMANCE.md)")),
        }
    }
    Ok(options)
}

/// The benchmark scenarios: the paper's healthcare model (the acceptance
/// row) and a wider synthetic model with a larger vocabulary per line.
fn scenarios(quick: bool) -> Result<Vec<Scenario>, ModelError> {
    let mut scenarios = Vec::new();
    scenarios.push(Scenario {
        name: "healthcare".to_owned(),
        users: if quick { 128 } else { 256 },
        requests: if quick { 1_500 } else { 6_000 },
        system: casestudy::healthcare()?,
    });

    let config = ModelGeneratorConfig {
        actors: 8,
        fields: 10,
        datastores: 3,
        services: 3,
        flows_per_service: 6,
        grant_probability: 0.5,
        seed: 11,
        ..ModelGeneratorConfig::default()
    };
    let (catalog, dataflows, policy) = random_model(&config)?;
    scenarios.push(Scenario {
        name: "synth_8a_10f_3s".to_owned(),
        users: if quick { 64 } else { 128 },
        requests: if quick { 1_000 } else { 4_000 },
        system: PrivacySystem::new(catalog, dataflows, policy),
    });
    Ok(scenarios)
}

/// A seeded user population over the catalog's services and fields.
fn population(catalog: &Catalog, count: usize) -> Vec<UserProfile> {
    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    random_profiles(&ProfileGeneratorConfig {
        count,
        seed: 13,
        services,
        consent_probability: 0.5,
        fields,
        sensitivity_probability: 0.6,
    })
}

/// Replays a seeded workload through the service engine and returns the
/// resulting event stream (the same construction as `runtime_scaling`).
fn event_stream(scenario: &Scenario, users: &[UserProfile]) -> Vec<Event> {
    let catalog = scenario.system.catalog();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let services: Vec<(ServiceId, f64)> =
        catalog.services().map(|s| (s.id().clone(), 1.0)).collect();
    let mut engine = ServiceEngine::new(
        catalog.clone(),
        scenario.system.dataflows().clone(),
        scenario.system.policy().clone(),
    );
    let workload = random_workload(&WorkloadConfig {
        length: scenario.requests,
        seed: 17,
        users: users.iter().map(|u| u.id().clone()).collect(),
        services,
    });
    for request in &workload {
        let record = fields
            .iter()
            .fold(Record::new(), |record, field| record.with(field.clone(), format!("v-{field}")));
        let _ = engine.execute(request.user(), request.service(), &record);
    }
    engine.log().events().to_vec()
}

/// The wire encodings measured per scenario.
fn encodings(events: &[Event]) -> Vec<(&'static str, Vec<u8>)> {
    let json = render_events(events, LogFormat::Json);
    vec![
        ("json", json.clone().into_bytes()),
        ("logfmt", render_events(events, LogFormat::Logfmt).into_bytes()),
        ("csv", render_events(events, LogFormat::Csv).into_bytes()),
        ("json.gz", gzip_compress_stored(json.as_bytes())),
    ]
}

/// The live tail row: the whole `PipelineRunner` path (poll → assemble →
/// parse → bounded queue → monitor) measured in tail mode.
struct LiveRow {
    events: usize,
    events_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    alerts: usize,
}

/// Pipeline tuning for the live rows: a tight poll so the tail, not the
/// poll interval, dominates; no checkpoint/dead-letter IO in the
/// measured path (the corpus is gated clean before timing).
fn live_config(mapping: &FieldMapping) -> PipelineConfig {
    let mut config = PipelineConfig::new(mapping.clone());
    config.follow =
        FollowConfig { poll_interval: Duration::from_millis(1), ..FollowConfig::default() };
    config
}

/// Spins until `counter` reaches `target` (1 ms polls, 60 s cap).
fn wait_counter(counter: &AtomicU64, target: u64, what: &str) -> Result<(), String> {
    let started = Instant::now();
    while counter.load(Ordering::Relaxed) < target {
        if started.elapsed() > Duration::from_secs(60) {
            return Err(format!(
                "live: pipeline saw {} of {target} {what} within 60s",
                counter.load(Ordering::Relaxed)
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Tails `log` with a fresh clone of the gated monitor while `writer`
/// feeds it, then drains gracefully once every event has been resolved.
/// Returns the alert stream and the arrival instant of each alert.
fn tail_once(
    proto: &IndexedMonitor,
    services: &[ServiceId],
    mapping: &FieldMapping,
    log: &Path,
    total_events: u64,
    writer: impl FnOnce(&PipelineProgress) -> Result<(), String> + Send,
) -> Result<(Vec<Alert>, Vec<Instant>), String> {
    let runner = PipelineRunner::new(live_config(mapping));
    let progress = runner.progress();
    let stop = runner.stop_handle();
    let mut sink = IndexedSink::new(proto.clone(), services.to_vec(), false);
    std::thread::scope(|scope| {
        let pipeline = scope.spawn(|| {
            let source = LiveSource::tail(log, live_config(mapping).follow);
            let mut alerts = Vec::new();
            let mut arrivals = Vec::new();
            let outcome = runner.run(source, &mut sink, |alert| {
                arrivals.push(Instant::now());
                alerts.push(alert.clone());
            });
            (outcome, alerts, arrivals)
        });
        // Feed the tail, wait for the monitor to catch up, then request a
        // graceful drain. The stop flag must be raised even when the
        // writer fails, or the scope would join a tail that never ends.
        let fed = writer(&progress)
            .and_then(|()| wait_counter(&progress.ingested, total_events, "ingested events"));
        stop.store(true, Ordering::Relaxed);
        let (outcome, alerts, arrivals) = pipeline.join().expect("pipeline thread");
        fed?;
        outcome.map_err(|error| format!("live: pipeline failed: {error}"))?;
        Ok((alerts, arrivals))
    })
}

/// Sorted rendered alerts, for order-insensitive equivalence checks.
fn rendered(alerts: &[Alert]) -> Vec<String> {
    let mut rendered: Vec<String> = alerts.iter().map(ToString::to_string).collect();
    rendered.sort();
    rendered
}

/// Nearest-rank percentile over an ascending sample, in milliseconds.
fn percentile_ms(ascending: &[Duration], p: f64) -> f64 {
    if ascending.is_empty() {
        return 0.0;
    }
    let index = ((ascending.len() as f64 - 1.0) * p).round() as usize;
    ascending[index.min(ascending.len() - 1)].as_secs_f64() * 1e3
}

/// Measures the tail-mode pipeline on the healthcare corpus: steady-state
/// events/sec draining a fully written log, then a paced writer run for
/// per-alert event-to-alert latency. Both runs are gated on producing
/// exactly the direct monitor's alert stream.
fn live_tail(
    events: &[Event],
    proto: &IndexedMonitor,
    services: &[ServiceId],
    mapping: &FieldMapping,
    quick: bool,
) -> Result<LiveRow, String> {
    let stream = render_events(events, LogFormat::Json);
    let lines: Vec<&str> = stream.lines().collect();
    if lines.len() != events.len() {
        return Err(format!("live: {} lines rendered for {} events", lines.len(), events.len()));
    }

    // The oracle: one whole-stream batch through a clone of the gated
    // monitor (the pipeline's drain adds nothing — its sink reports each
    // alert exactly once).
    let expected = proto.clone().ingest_batch(events);
    let expected_rendered = rendered(&expected);

    let dir = std::env::temp_dir().join(format!("ingest-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("live: creating {}: {e}", dir.display()))?;
    let total = events.len() as u64;

    // Steady state: the log is fully written before the tail starts, so
    // throughput is the pipeline's capacity, not the writer's pace.
    let steady_log = dir.join("steady.jsonl");
    std::fs::write(&steady_log, stream.as_bytes()).map_err(|e| format!("live: {e}"))?;
    let started = Instant::now();
    let (steady_alerts, _) = tail_once(proto, services, mapping, &steady_log, total, |_| Ok(()))?;
    let steady_secs = started.elapsed().as_secs_f64();
    if rendered(&steady_alerts) != expected_rendered {
        return Err("live/steady: alert stream diverged from direct ingestion".to_owned());
    }

    // Latency: pace the writer well below capacity and timestamp each
    // appended chunk; an alert's latency is its arrival minus the write
    // instant of the line (= event) that raised it, matched by sequence.
    let paced_log = dir.join("paced.jsonl");
    std::fs::write(&paced_log, b"").map_err(|e| format!("live: {e}"))?;
    let chunk = if quick { 32 } else { 64 };
    let write_instants: std::sync::Mutex<Vec<Instant>> = std::sync::Mutex::new(Vec::new());
    let (paced_alerts, arrivals) = tail_once(proto, services, mapping, &paced_log, total, |_| {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&paced_log)
            .map_err(|e| format!("live: opening {}: {e}", paced_log.display()))?;
        let mut instants = write_instants.lock().map_err(|_| "live: poisoned lock")?;
        for batch in lines.chunks(chunk) {
            let mut block = batch.join("\n");
            block.push('\n');
            let now = Instant::now();
            instants.extend(std::iter::repeat_n(now, batch.len()));
            file.write_all(block.as_bytes()).map_err(|e| format!("live: append: {e}"))?;
            file.flush().map_err(|e| format!("live: flush: {e}"))?;
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    })?;
    if rendered(&paced_alerts) != expected_rendered {
        return Err("live/paced: alert stream diverged from direct ingestion".to_owned());
    }
    if arrivals.len() != paced_alerts.len() {
        return Err(format!(
            "live/paced: {} arrival instants for {} alerts",
            arrivals.len(),
            paced_alerts.len()
        ));
    }

    // Event sequence → line index (the render is 1:1 and the round-trip
    // gate pins that parsed events keep their sequence column).
    let by_sequence: BTreeMap<u64, usize> =
        events.iter().enumerate().map(|(index, event)| (event.sequence(), index)).collect();
    let instants = write_instants.into_inner().map_err(|_| "live: poisoned lock")?;
    let mut latencies = Vec::with_capacity(arrivals.len());
    for (alert, arrival) in paced_alerts.iter().zip(&arrivals) {
        let index = *by_sequence
            .get(&alert.sequence())
            .ok_or_else(|| format!("live: alert for unknown sequence {}", alert.sequence()))?;
        latencies.push(arrival.saturating_duration_since(instants[index]));
    }
    latencies.sort();

    let _ = std::fs::remove_dir_all(&dir);
    Ok(LiveRow {
        events: events.len(),
        events_per_sec: events.len() as f64 / steady_secs,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
        alerts: expected.len(),
    })
}

fn run(options: &Options) -> Result<(Vec<Row>, Option<LiveRow>), String> {
    let target =
        if options.quick { Duration::from_millis(200) } else { Duration::from_millis(700) };
    let mapping = FieldMapping::canonical();
    let ingest_options = IngestOptions::default();
    let mut rows = Vec::new();
    let mut live = None;

    for scenario in scenarios(options.quick).map_err(|e| format!("building scenarios: {e}"))? {
        let users = population(scenario.system.catalog(), scenario.users);
        let events = event_stream(&scenario, &users);

        // Alert-equivalence gate: one monitor per side, identical streams
        // in, identical alerts out. The LTS/index build is shared.
        let lts = scenario
            .system
            .generate_lts()
            .map_err(|e| format!("{}: generation failed: {e}", scenario.name))?;
        let index = Arc::new(LtsIndex::build(&lts));
        let mut proto = IndexedMonitor::new(
            scenario.system.catalog().clone(),
            scenario.system.policy().clone(),
            Arc::clone(&index),
        );
        for user in &users {
            proto.register_user(user);
        }
        let direct_alerts = proto.clone().ingest_batch(&events);

        for (format, bytes) in encodings(&events) {
            // Round-trip gate before timing.
            let report = ingest_bytes(&bytes, &mapping, &ingest_options)
                .map_err(|e| format!("{}/{format}: ingest failed: {e}", scenario.name))?;
            if report.events != events {
                return Err(format!(
                    "{}/{format}: parsed events differ from the rendered stream",
                    scenario.name
                ));
            }
            let parsed_alerts = proto.clone().ingest_batch(&report.events);
            if parsed_alerts != direct_alerts {
                return Err(format!(
                    "{}/{format}: alert stream from parsed events differs from direct ingestion",
                    scenario.name
                ));
            }

            let (secs, timed_report) = time_runs(target, || {
                ingest_bytes(&bytes, &mapping, &ingest_options).expect("gated ingest succeeds")
            });
            let row = Row {
                scenario: scenario.name.clone(),
                format,
                events: timed_report.events.len(),
                bytes: bytes.len(),
                events_per_sec: events.len() as f64 / secs,
                mbytes_per_sec: bytes.len() as f64 / secs / 1e6,
                alerts: direct_alerts.len(),
            };
            eprintln!(
                "{:<20} {:>8} {:>6} events {:>9} bytes | {:>10.0} ev/s {:>7.1} MB/s",
                row.scenario,
                row.format,
                row.events,
                row.bytes,
                row.events_per_sec,
                row.mbytes_per_sec,
            );
            rows.push(row);
        }

        // The acceptance scenario also gets a tail-mode row: the same
        // corpus consumed live through the `PipelineRunner`.
        if scenario.name == "healthcare" {
            let services: Vec<ServiceId> =
                scenario.system.catalog().services().map(|s| s.id().clone()).collect();
            let row = live_tail(&events, &proto, &services, &mapping, options.quick)?;
            eprintln!(
                "{:<20} {:>8} {:>6} events | {:>10.0} ev/s steady | {:>6.1} ms p50 {:>6.1} ms \
                 p99 event-to-alert",
                "healthcare", "tail", row.events, row.events_per_sec, row.p50_ms, row.p99_ms,
            );
            live = Some(row);
        }
    }
    Ok((rows, live))
}

fn json_report(options: &Options, rows: &[Row], live: Option<&LiveRow>) -> String {
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"ingest_scaling\",");
    let _ = writeln!(out, "  \"quick\": {},", options.quick);
    let _ = writeln!(out, "  \"generated_unix\": {unix_secs},");
    let _ = writeln!(
        out,
        "  \"guarded_row\": \"healthcare/json\", \"min_json_events_per_sec\": {:.0},",
        options.min_json_events_per_sec
    );
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"scenario\": \"{}\", \"format\": \"{}\", \"events\": {}, \"bytes\": {}, \
             \"events_per_sec\": {:.0}, \"mbytes_per_sec\": {:.2}, \"alerts\": {}",
            row.scenario,
            row.format,
            row.events,
            row.bytes,
            row.events_per_sec,
            row.mbytes_per_sec,
            row.alerts,
        );
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]");
    if let Some(live) = live {
        out.push_str(",\n  \"live\": {");
        let _ = write!(
            out,
            "\"scenario\": \"healthcare\", \"mode\": \"tail\", \"format\": \"json\", \
             \"events\": {}, \"events_per_sec\": {:.0}, \"event_to_alert_p50_ms\": {:.2}, \
             \"event_to_alert_p99_ms\": {:.2}, \"alerts\": {}",
            live.events, live.events_per_sec, live.p50_ms, live.p99_ms, live.alerts,
        );
        out.push('}');
    }
    out.push_str("\n}\n");
    out
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("ingest_scaling: {message}");
            return ExitCode::FAILURE;
        }
    };

    let (rows, live) = match run(&options) {
        Ok(results) => results,
        Err(message) => {
            eprintln!("ingest_scaling: {message}");
            return ExitCode::FAILURE;
        }
    };

    let report = json_report(&options, &rows, live.as_ref());
    if let Err(message) = write_report(&options.out, &report, options.force_baseline) {
        eprintln!("ingest_scaling: {message}");
        return ExitCode::FAILURE;
    }
    eprintln!("ingest_scaling: wrote {}", options.out);

    if options.min_json_events_per_sec > 0.0 {
        let guarded = rows.iter().find(|row| row.scenario == "healthcare" && row.format == "json");
        match guarded {
            Some(row) if row.events_per_sec >= options.min_json_events_per_sec => {
                eprintln!(
                    "ingest_scaling: guard ok: healthcare/json {:.0} ev/s >= {:.0}",
                    row.events_per_sec, options.min_json_events_per_sec
                );
            }
            Some(row) => {
                eprintln!(
                    "ingest_scaling: regression guard failed: healthcare/json {:.0} ev/s < {:.0}",
                    row.events_per_sec, options.min_json_events_per_sec
                );
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("ingest_scaling: regression guard failed: no healthcare/json row");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
