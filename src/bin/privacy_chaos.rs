//! Live-pipeline chaos gate: the composed fault matrix as one binary.
//!
//! Runs the same ingest-fault compositions the differential tests in
//! `tests/live_chaos.rs` pin — torn appends with stalled writers,
//! rotation mid-record over poison lines, in-place truncation, gzip
//! corruption — through a tailing
//! [`PipelineRunner`], and holds
//! each run to the differential contract: the live alert stream equals
//! the offline single-process run over the exact bytes the tail
//! observed, event and skip counts agree, and the dead-letter file lists
//! exactly the byte offsets the offline run refuses — none missing, none
//! extra.
//!
//! Every scenario runs even after a failure; the report (one JSON row
//! per scenario) is always written, and the exit code is non-zero if any
//! row diverged. CI runs this off the release build with `--quick` and
//! uploads the report as an artifact.
//!
//! ```text
//! privacy-chaos [--quick] [--out PATH]
//! ```

use privacy_ingest::deadletter::read_dead_letters;
use privacy_ingest::live::{FollowConfig, LiveSource};
use privacy_ingest::{gzip_compress_stored, FieldMapping, IngestError};
use privacy_mde::chaos::{
    corrupt_gzip, offline_reference, sorted, torn_appends, ChaosScript, ChaosStep, MonitorContext,
    OfflineRun,
};
use privacy_mde::pipeline::{PipelineConfig, PipelineError, PipelineReport, PipelineRunner};
use privacy_synth::{render_events, LogFormat};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    quick: bool,
    out: String,
}

/// What one scenario did, as a report row. `error` is `None` when the
/// differential contract held.
struct ScenarioRow {
    name: &'static str,
    bytes: u64,
    events: u64,
    skipped: u64,
    dead_letters: usize,
    alerts: usize,
    rotations: u64,
    truncations: u64,
    error: Option<String>,
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options { quick: false, out: "CHAOS_live.json".to_owned() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--out" => options.out = args.next().ok_or("--out needs a path")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn pipeline_config(dir: &Path) -> PipelineConfig {
    let mut config = PipelineConfig::new(FieldMapping::canonical());
    config.batch = 64;
    config.checkpoint = Some(dir.join("pipeline.ckpt"));
    config.checkpoint_every_events = 128;
    config.dead_letter = Some(dir.join("dead.ndjson"));
    config.follow =
        FollowConfig { poll_interval: Duration::from_millis(2), ..FollowConfig::default() };
    config
}

/// What one live run produced: the pipeline's outcome, the alerts it
/// passed to `on_alert` (rendered), and the bytes the script wrote.
type LiveRun = (Result<PipelineReport, PipelineError>, Vec<String>, Vec<u8>);

/// Runs `script` against a tailing pipeline over a fresh indexed sink,
/// requesting a graceful drain once the script completes.
fn run_live(
    context: &MonitorContext,
    dir: &Path,
    log: &Path,
    script: &ChaosScript,
) -> Result<LiveRun, String> {
    let runner = PipelineRunner::new(pipeline_config(dir));
    let progress = runner.progress();
    let stop = runner.stop_handle();
    let mut sink = context.indexed_sink(false);
    let source = LiveSource::tail(log, pipeline_config(dir).follow);
    let mut live_alerts = Vec::new();
    let (outcome, observed) = std::thread::scope(|scope| {
        let pipeline = scope
            .spawn(|| runner.run(source, &mut sink, |alert| live_alerts.push(alert.to_string())));
        // Raise the stop flag before inspecting the script outcome: an
        // early return here would leave the scope joining a tail that
        // never learns it should drain.
        let observed = script.run(&progress);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let outcome = pipeline.join().expect("pipeline thread");
        let observed = observed.map_err(|error| format!("chaos script: {error}"))?;
        Ok::<_, String>((outcome, observed))
    })?;
    Ok((outcome, live_alerts, observed))
}

/// The differential contract between a completed live run and the
/// offline oracle over the observed bytes.
fn check_differential(
    report: &PipelineReport,
    live_alerts: &[String],
    dead_letter: &Path,
    offline: &OfflineRun,
) -> Result<(), String> {
    if sorted(live_alerts) != sorted(&offline.alerts) {
        return Err(format!(
            "live alert stream diverged from the offline run ({} live vs {} offline)",
            live_alerts.len(),
            offline.alerts.len()
        ));
    }
    if report.alerts != live_alerts.len() as u64 {
        return Err(format!(
            "the report counts {} alerts, on_alert saw {}",
            report.alerts,
            live_alerts.len()
        ));
    }
    if report.events != offline.report.stats.events {
        return Err(format!(
            "event counts diverged: {} live vs {} offline",
            report.events, offline.report.stats.events
        ));
    }
    if report.skipped != offline.report.stats.skipped {
        return Err(format!(
            "skip counts diverged: {} live vs {} offline",
            report.skipped, offline.report.stats.skipped
        ));
    }
    let dead = if dead_letter.exists() {
        read_dead_letters(dead_letter).map_err(|error| format!("dead-letter file: {error}"))?
    } else {
        Vec::new()
    };
    let mut live_offsets: Vec<u64> = dead.iter().map(|record| record.offset).collect();
    live_offsets.sort_unstable();
    let mut offline_offsets: Vec<u64> =
        offline.report.diagnostics.iter().map(|d| d.offset()).collect();
    offline_offsets.sort_unstable();
    if live_offsets != offline_offsets {
        return Err(format!(
            "dead-letter offsets diverged: {live_offsets:?} live vs {offline_offsets:?} offline"
        ));
    }
    Ok(())
}

fn scenario_dir(name: &str) -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("privacy-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .map_err(|error| format!("creating {}: {error}", dir.display()))?;
    Ok(dir)
}

/// A completed-run scenario: executes `steps`, checks the differential,
/// and applies `extra` checks to the live report.
fn completed_scenario(
    context: &MonitorContext,
    name: &'static str,
    steps: Vec<ChaosStep>,
    extra: impl FnOnce(&PipelineReport) -> Result<(), String>,
) -> ScenarioRow {
    let mut row = ScenarioRow {
        name,
        bytes: 0,
        events: 0,
        skipped: 0,
        dead_letters: 0,
        alerts: 0,
        rotations: 0,
        truncations: 0,
        error: None,
    };
    let outcome = (|| -> Result<(), String> {
        let dir = scenario_dir(name)?;
        let log = dir.join("app.log");
        let script = ChaosScript::new(&log, steps);
        let (outcome, live_alerts, observed) = run_live(context, &dir, &log, &script)?;
        let report = outcome.map_err(|error| format!("pipeline failed: {error}"))?;
        row.bytes = report.bytes;
        row.events = report.events;
        row.skipped = report.skipped;
        row.alerts = live_alerts.len();
        row.rotations = report.rotations;
        row.truncations = report.truncations;
        let offline = offline_reference(context, &observed, &FieldMapping::canonical(), 64, false)?;
        row.dead_letters = offline.report.diagnostics.len();
        check_differential(&report, &live_alerts, &dir.join("dead.ndjson"), &offline)?;
        extra(&report)?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    })();
    row.error = outcome.err();
    row
}

/// Torn appends with stalled-writer gaps: every record survives, nothing
/// is quarantined.
fn torn_writes_scenario(context: &MonitorContext, corpus: &str) -> ScenarioRow {
    let len = corpus.len();
    let cuts = [1, len / 7, len / 7 + 3, len / 3, len / 2 + 11, len - 2];
    let steps = torn_appends(corpus.as_bytes(), &cuts, Duration::from_millis(10));
    completed_scenario(context, "torn_writes_and_stalls", steps, |report| {
        if report.skipped != 0 {
            return Err(format!("{} records quarantined in a clean stream", report.skipped));
        }
        Ok(())
    })
}

/// Rotation mid-record over a stream salted with poison lines: the
/// poison is quarantined with exact offsets, the rotation loses nothing.
fn rotation_poison_scenario(context: &MonitorContext, corpus: &str) -> ScenarioRow {
    let mut lines: Vec<&str> = corpus.lines().collect();
    let poison = "seq=9000001 user=u-broken service=MedicalService actor=Doctor \
                  action=frobnicate fields=HealthRecord permitted=true";
    lines.insert(lines.len() / 3, poison);
    let salted = format!("{}\n", lines.join("\n"));
    let head = &salted[..salted.len() / 2];
    let tail = &salted[salted.len() / 2..];
    let mut steps = torn_appends(head.as_bytes(), &[head.len() / 2 + 1], Duration::from_millis(5));
    steps.push(ChaosStep::Rotate);
    steps.extend(torn_appends(tail.as_bytes(), &[3], Duration::from_millis(5)));
    completed_scenario(context, "rotation_mid_record_poison", steps, |report| {
        if report.rotations != 1 {
            return Err(format!("{} rotations observed, expected 1", report.rotations));
        }
        if report.skipped == 0 {
            return Err("the poison line was not quarantined".to_owned());
        }
        Ok(())
    })
}

/// In-place truncation: the file is rewritten *shorter* than the
/// consumed position (the only truncation a poller can observe), and the
/// replacement replays from offset zero.
fn truncation_scenario(context: &MonitorContext, corpus: &str) -> ScenarioRow {
    let lines: Vec<&str> = corpus.lines().collect();
    let split = lines.len() * 4 / 5;
    let head = format!("{}\n", lines[..split].join("\n"));
    let replacement = format!("{}\n", lines[split..].join("\n"));
    assert!(
        replacement.len() < head.len(),
        "fixture: the replacement must be shorter than the consumed head"
    );
    let steps =
        vec![ChaosStep::Append(head.into_bytes()), ChaosStep::Truncate(replacement.into_bytes())];
    completed_scenario(context, "truncation_rewrite", steps, |report| {
        if report.truncations != 1 {
            return Err(format!("{} truncations observed, expected 1", report.truncations));
        }
        Ok(())
    })
}

/// A corrupt gzip stream: a stream-level failure on both sides, recorded
/// as one dead letter.
fn gzip_scenario(context: &MonitorContext, corpus: &str) -> ScenarioRow {
    let mut row = ScenarioRow {
        name: "gzip_corruption",
        bytes: 0,
        events: 0,
        skipped: 0,
        dead_letters: 0,
        alerts: 0,
        rotations: 0,
        truncations: 0,
        error: None,
    };
    let outcome = (|| -> Result<(), String> {
        let dir = scenario_dir("gzip")?;
        let log = dir.join("app.log.gz");
        let archive = corrupt_gzip(gzip_compress_stored(corpus.as_bytes()));
        let cut = archive.len() / 2;
        let steps = torn_appends(&archive, &[cut], Duration::from_millis(5));
        let script = ChaosScript::new(&log, steps);
        let (outcome, _, observed) = run_live(context, &dir, &log, &script)?;
        row.bytes = observed.len() as u64;
        match outcome {
            Err(PipelineError::Ingest(IngestError::Gzip(_))) => {}
            Err(error) => return Err(format!("expected a gzip failure, got: {error}")),
            Ok(report) => {
                return Err(format!(
                    "a corrupt archive parsed: {} events from {} bytes",
                    report.events, report.bytes
                ))
            }
        }
        if offline_reference(context, &observed, &FieldMapping::canonical(), 64, false).is_ok() {
            return Err("the offline run accepted the corrupt archive".to_owned());
        }
        let dead = read_dead_letters(&dir.join("dead.ndjson"))
            .map_err(|error| format!("dead-letter file: {error}"))?;
        row.dead_letters = dead.len();
        if dead.len() != 1 || dead[0].kind != "gzip" {
            return Err(format!("expected one stream-level gzip dead letter, got {dead:?}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    })();
    row.error = outcome.err();
    row
}

fn json_report(options: &Options, rows: &[ScenarioRow]) -> String {
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"gate\": \"live_pipeline_chaos\",");
    let _ = writeln!(out, "  \"quick\": {},", options.quick);
    let _ = writeln!(out, "  \"generated_unix\": {unix_secs},");
    out.push_str("  \"scenarios\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"name\": \"{}\", \"ok\": {}, \"bytes\": {}, \"events\": {}, \"skipped\": {}, \
             \"dead_letters\": {}, \"alerts\": {}, \"rotations\": {}, \"truncations\": {}",
            row.name,
            row.error.is_none(),
            row.bytes,
            row.events,
            row.skipped,
            row.dead_letters,
            row.alerts,
            row.rotations,
            row.truncations,
        );
        if let Some(error) = &row.error {
            let _ = write!(
                out,
                ", \"error\": \"{}\"",
                error.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("privacy-chaos: {message}");
            return ExitCode::FAILURE;
        }
    };
    let context = match MonitorContext::healthcare() {
        Ok(context) => context,
        Err(message) => {
            eprintln!("privacy-chaos: building the healthcare context: {message}");
            return ExitCode::FAILURE;
        }
    };
    let requests = if options.quick { 80 } else { 240 };
    let corpus = render_events(&context.corpus_events(requests), LogFormat::Logfmt);
    let corpus = format!("{corpus}\n");

    let rows = vec![
        torn_writes_scenario(&context, &corpus),
        rotation_poison_scenario(&context, &corpus),
        truncation_scenario(&context, &corpus),
        gzip_scenario(&context, &corpus),
    ];
    let mut failed = 0usize;
    for row in &rows {
        match &row.error {
            None => eprintln!(
                "privacy-chaos: {:<28} ok  ({} bytes, {} events, {} quarantined, {} alerts)",
                row.name, row.bytes, row.events, row.skipped, row.alerts
            ),
            Some(error) => {
                failed += 1;
                eprintln!("privacy-chaos: {:<28} FAILED: {error}", row.name);
            }
        }
    }

    let report = json_report(&options, &rows);
    if let Err(error) = std::fs::write(&options.out, &report) {
        eprintln!("privacy-chaos: writing {}: {error}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!("privacy-chaos: wrote {}", options.out);
    if failed > 0 {
        eprintln!("privacy-chaos: {failed} of {} scenarios diverged", rows.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
