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
//! Each row is named `<scenario>/<format>`. The live tail path is measured
//! end to end by the repository benchmark (`e2e_bench`'s `live_stream`
//! workload), not here.
//!
//! ```text
//! ingest_scaling [--quick] [--min-json-events-per-sec X] [--out PATH]
//!                [--force-baseline]
//! ```
//!
//! `--quick` is the CI smoke configuration. `--min-json-events-per-sec X`
//! exits non-zero if the healthcare JSON row falls below `X` events/sec
//! (CI pins 50000). See `docs/PERFORMANCE.md`.

use privacy_bench::{
    bench_main, event_stream, population, stream_scenarios, time_runs, BenchArgs, Object, Report,
};
use privacy_ingest::{gzip_compress_stored, ingest_bytes, FieldMapping, IngestOptions};
use privacy_lts::LtsIndex;
use privacy_runtime::{Event, IndexedMonitor};
use privacy_synth::{render_events, LogFormat};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The row the `--min-json-events-per-sec` floor applies to.
const GUARDED_ROW: &str = "healthcare/json";

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

impl Row {
    fn name(&self) -> String {
        format!("{}/{}", self.scenario, self.format)
    }
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

fn run(quick: bool) -> Result<Vec<Row>, String> {
    let target = if quick { Duration::from_millis(200) } else { Duration::from_millis(700) };
    let mapping = FieldMapping::canonical();
    let ingest_options = IngestOptions::default();
    let mut rows = Vec::new();

    for scenario in stream_scenarios(quick).map_err(|e| format!("building scenarios: {e}"))? {
        let users = population(scenario.system.catalog(), scenario.users, 13);
        let events = event_stream(&scenario.system, &users, scenario.requests);

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
        let direct_alerts = proto.clone().ingest_batch(&events).to_vec();

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
            let parsed_alerts = proto.clone().ingest_batch(&report.events).to_vec();
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
    }
    Ok(rows)
}

fn main() -> ExitCode {
    bench_main("ingest_scaling", || {
        let mut args = BenchArgs::from_env("BENCH_ingest.json")?;
        let min_json_events_per_sec = args.value("--min-json-events-per-sec")?.unwrap_or(0.0);
        args.finish()?;

        let rows = run(args.quick)?;
        let report = Report::new("ingest_scaling", args.quick)
            .with("guarded_row", GUARDED_ROW)
            .fixed("min_json_events_per_sec", min_json_events_per_sec, 0)
            .rows(
                "rows",
                rows.iter().map(|row| {
                    let fields = Object::new()
                        .with("scenario", row.scenario.as_str())
                        .with("format", row.format)
                        .with("events", row.events)
                        .with("bytes", row.bytes)
                        .fixed("events_per_sec", row.events_per_sec, 0)
                        .fixed("mbytes_per_sec", row.mbytes_per_sec, 2)
                        .with("alerts", row.alerts);
                    (row.name(), fields)
                }),
            )?;
        args.write(&report)?;

        if min_json_events_per_sec > 0.0 {
            let Some(row) = rows.iter().find(|row| row.name() == GUARDED_ROW) else {
                return Err(format!("regression guard failed: no {GUARDED_ROW} row"));
            };
            if row.events_per_sec < min_json_events_per_sec {
                return Err(format!(
                    "regression guard failed: {GUARDED_ROW} {:.0} ev/s < {min_json_events_per_sec:.0}",
                    row.events_per_sec
                ));
            }
            eprintln!(
                "ingest_scaling: guard ok: {GUARDED_ROW} {:.0} ev/s >= {min_json_events_per_sec:.0}",
                row.events_per_sec
            );
        }
        Ok(())
    })
}
