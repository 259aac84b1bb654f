//! End-to-end chaos differentials for the live pipeline.
//!
//! Every test here follows the same contract: a hostile writer (torn
//! writes, rotation mid-record, truncation, stalls, gzip corruption —
//! composed with the distrib fault plan where a supervisor is involved)
//! feeds the live pipeline, and the pipeline's alert stream must equal
//! the offline single-process run over the exact bytes the tail
//! observed, modulo the records listed in the dead-letter file — with
//! every quarantined record accounted for record for record (offset,
//! line, kind and message), none silently dropped.

use privacy_ingest::deadletter::{error_kind, read_dead_letters};
use privacy_ingest::live::{FollowConfig, LiveSource};
use privacy_ingest::{gzip_compress_stored, FieldMapping, IngestError};
use privacy_mde::chaos::{
    corrupt_gzip, offline_reference, sorted, torn_appends, ChaosScript, ChaosStep, MonitorContext,
    OfflineRun,
};
use privacy_mde::pipeline::{
    DistributedSink, IndexedSink, MonitorSink, PipelineCheckpoint, PipelineConfig, PipelineError,
    PipelineReport, PipelineRunner,
};
use privacy_runtime::{Event, MonitorSnapshot};
use privacy_synth::{render_events, LogFormat};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

fn context() -> &'static MonitorContext {
    static CONTEXT: OnceLock<MonitorContext> = OnceLock::new();
    CONTEXT.get_or_init(|| MonitorContext::healthcare().expect("healthcare context"))
}

/// A seeded healthcare event stream (the fixture the fault differentials
/// in `crates/distrib` also build on). The context registers the same
/// population on every monitor it hands out, so this corpus raises a
/// non-empty alert stream — the differentials below compare real alerts,
/// not two empty lists.
fn corpus_events(requests: usize) -> Vec<Event> {
    context().corpus_events(requests)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("live-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

fn fast_follow() -> FollowConfig {
    FollowConfig { poll_interval: Duration::from_millis(2), ..FollowConfig::default() }
}

fn config(dir: &Path) -> PipelineConfig {
    let mut config = PipelineConfig::new(FieldMapping::canonical());
    config.batch = 64;
    config.checkpoint = Some(dir.join("pipeline.ckpt"));
    config.checkpoint_every_events = 128;
    config.dead_letter = Some(dir.join("dead.ndjson"));
    config.follow = fast_follow();
    config
}

/// Runs `script` against a tailing pipeline over `sink`, requesting a
/// graceful drain once the script completes. Returns the run's outcome,
/// the alerts it passed to `on_alert` (rendered), and the bytes the script
/// wrote.
fn run_live<S: MonitorSink + Send>(
    runner: &PipelineRunner,
    log: &Path,
    script: ChaosScript,
    sink: &mut S,
) -> (Result<PipelineReport, PipelineError>, Vec<String>, Vec<u8>) {
    let progress = runner.progress();
    let stop = runner.stop_handle();
    let source = LiveSource::tail(log, runner_follow(runner));
    let mut live_alerts = Vec::new();
    let outcome = std::thread::scope(|scope| {
        let pipeline =
            scope.spawn(|| runner.run(source, sink, |alert| live_alerts.push(alert.to_string())));
        // Stop the pipeline *before* asserting on the script outcome — a
        // panic here would otherwise leave the scope joining a tail that
        // never learns it should drain.
        let observed = script.run(&progress);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let outcome = pipeline.join().expect("pipeline thread");
        let observed = match observed {
            Ok(observed) => observed,
            Err(error) => panic!("chaos script: {error}; pipeline outcome: {outcome:?}"),
        };
        (outcome, observed)
    });
    (outcome.0, live_alerts, outcome.1)
}

/// The runner's follow config (tests tweak `start_offset` for resume).
fn runner_follow(_runner: &PipelineRunner) -> FollowConfig {
    fast_follow()
}

/// Asserts the full differential contract between a live run and the
/// offline oracle for the same observed bytes.
fn assert_differential(
    report: &PipelineReport,
    live_alerts: &[String],
    dead_letter: &Path,
    offline: &OfflineRun,
) {
    assert_eq!(
        sorted(live_alerts),
        sorted(&offline.alerts),
        "live alert stream diverged from the offline run"
    );
    assert_eq!(report.alerts, live_alerts.len() as u64, "the report counts every alert");
    assert_eq!(report.events, offline.report.stats.events, "event counts diverged");
    assert_eq!(report.skipped, offline.report.stats.skipped, "skip counts diverged");
    assert_dead_letters(dead_letter, offline);
}

/// Every quarantined record accounted for: the dead-letter file lists
/// exactly the records the offline run refused — none missing, none extra,
/// none silently dropped — and says of each what the offline diagnostic at
/// the same offset says.
fn assert_dead_letters(dead_letter: &Path, offline: &OfflineRun) {
    let mut dead = if dead_letter.exists() {
        read_dead_letters(dead_letter).expect("readable dead-letter file")
    } else {
        Vec::new()
    };
    dead.sort_by_key(|record| record.offset);
    let mut diagnostics: Vec<_> = offline.report.diagnostics.iter().collect();
    diagnostics.sort_by_key(|diag| diag.offset());
    let live_offsets: Vec<u64> = dead.iter().map(|record| record.offset).collect();
    let offline_offsets: Vec<u64> = diagnostics.iter().map(|diag| diag.offset()).collect();
    assert_eq!(
        live_offsets, offline_offsets,
        "dead-letter offsets diverged from offline diagnostics"
    );
    for (record, diag) in dead.iter().zip(diagnostics) {
        let at = record.offset;
        let error = diag.error();
        assert_eq!(record.line, error.line(), "dead letter at offset {at}: line diverged");
        assert_eq!(record.kind, error_kind(error), "dead letter at offset {at}: kind diverged");
        assert_eq!(
            record.message,
            error.to_string(),
            "dead letter at offset {at}: message diverged"
        );
    }
}

#[test]
fn torn_writes_and_stalls_lose_nothing() {
    let dir = tempdir("torn");
    let log = dir.join("app.log");
    let corpus = render_events(&corpus_events(240), LogFormat::Logfmt).into_bytes();

    // Cut at hostile boundaries: mid-line, one byte in, just before a
    // newline — partial lines must carry across reads.
    let len = corpus.len();
    let cuts = [1, len / 7, len / 7 + 3, len / 3, len / 2 + 11, len - 2];
    let steps = torn_appends(&corpus, &cuts, Duration::from_millis(15));
    let script = ChaosScript::new(&log, steps);

    let runner = PipelineRunner::new(config(&dir));
    let mut sink = context().indexed_sink(false);
    let (outcome, live_alerts, observed) = run_live(&runner, &log, script, &mut sink);
    let report = outcome.expect("pipeline run");
    assert_eq!(observed, corpus, "torn appends reassemble the corpus verbatim");

    let offline = offline_reference(context(), &observed, &FieldMapping::canonical(), 64, false)
        .expect("offline reference");
    assert_differential(&report, &live_alerts, &dir.join("dead.ndjson"), &offline);
    assert_eq!(report.skipped, 0, "clean torn writes quarantine nothing");
    assert!(report.checkpoints > 0, "periodic checkpoints were written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_mid_record_and_poison_lines_are_quarantined_exactly() {
    let dir = tempdir("rotate");
    let log = dir.join("app.log");
    let rendered = render_events(&corpus_events(200), LogFormat::Json);
    let mut lines: Vec<&str> = rendered.lines().collect();
    assert!(lines.len() > 40);

    // Inject known poison: an unknown verb, invalid UTF-8, a
    // syntactically broken record, and a record three times the default
    // 1 MiB line limit (the tail stores only the limit plus one byte of
    // it, the offline read all of it; both must report the same length).
    let poison_verb = "{\"sequence\":9000000,\"user\":\"u-poison\",\"service\":\"Portal\",\
                       \"actor\":\"nurse\",\"action\":\"frobnicate\"}";
    let poison_syntax = "{\"user\":\"u-broken\",";
    let over_long = format!(
        "{{\"user\":\"u-huge\",\"service\":\"Portal\",\"actor\":\"nurse\",\"action\":\"read\",\
         \"fields\":\"{}\"}}",
        "x".repeat(3 << 20)
    );
    lines.insert(5, &over_long);
    lines.insert(10, poison_verb);
    lines.insert(25, poison_syntax);
    let first: String = lines[..20].join("\n");
    let second: String = lines[20..].join("\n");

    // Rotate mid-record: the first segment ends with a *partial* line (a
    // record cut at an arbitrary byte), the new file starts fresh — the
    // seam becomes one torn record.
    let mut head = first.into_bytes();
    let torn_record = lines[19].as_bytes();
    head.extend_from_slice(b"\n");
    head.extend_from_slice(&torn_record[..torn_record.len() / 2]);
    let mut tail_bytes = second.into_bytes();
    tail_bytes.push(b'\n');
    let invalid_utf8 = b"user=u-bad service=\xFF\xFEportal actor=a action=read\n";

    let steps = vec![
        ChaosStep::Append(head.clone()),
        ChaosStep::Rotate,
        ChaosStep::Append(tail_bytes.clone()),
        ChaosStep::Stall(Duration::from_millis(10)),
        ChaosStep::Append(invalid_utf8.to_vec()),
    ];
    let script = ChaosScript::new(&log, steps);

    let runner = PipelineRunner::new(config(&dir));
    let mut sink = context().indexed_sink(false);
    let (outcome, live_alerts, observed) = run_live(&runner, &log, script, &mut sink);
    let report = outcome.expect("pipeline run");
    assert_eq!(report.rotations, 1, "the one scripted rotation was observed exactly once");

    let offline = offline_reference(context(), &observed, &FieldMapping::canonical(), 64, false)
        .expect("offline reference");
    assert_differential(&report, &live_alerts, &dir.join("dead.ndjson"), &offline);

    // The injected corruptions are all present in the quarantine, each
    // with its kind: the bad verb, the torn seam, the UTF-8 garbage and the
    // over-long record.
    let dead = read_dead_letters(&dir.join("dead.ndjson")).expect("dead letters");
    assert_eq!(dead.len() as u64, report.skipped);
    assert!(dead.len() >= 4, "expected at least 4 quarantined records, got {}", dead.len());
    let kinds: Vec<&str> = dead.iter().map(|record| record.kind.as_str()).collect();
    assert!(kinds.contains(&"bad_value"), "bad verb quarantined: {kinds:?}");
    assert!(kinds.contains(&"invalid_utf8"), "UTF-8 garbage quarantined: {kinds:?}");
    assert!(kinds.contains(&"syntax"), "torn/broken records quarantined: {kinds:?}");
    assert!(kinds.contains(&"line_too_long"), "over-long record quarantined: {kinds:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_replays_the_rewritten_file() {
    let dir = tempdir("trunc");
    let log = dir.join("app.log");
    let events = corpus_events(160);
    let rendered = render_events(&events, LogFormat::Logfmt);
    let lines: Vec<&str> = rendered.lines().collect();
    // Truncation is only observable by a poller when the rewritten file
    // is shorter than the consumed position, so the head carries most of
    // the stream and the replacement is a short tail.
    let split = lines.len() * 4 / 5;
    let head = format!("{}\n", lines[..split].join("\n"));
    let replacement = format!("{}\n", lines[split..].join("\n"));
    assert!(replacement.len() < head.len(), "replacement must be shorter than the consumed head");

    let steps = vec![
        ChaosStep::Append(head.clone().into_bytes()),
        ChaosStep::Truncate(replacement.clone().into_bytes()),
    ];
    let script = ChaosScript::new(&log, steps);

    let runner = PipelineRunner::new(config(&dir));
    let mut sink = context().indexed_sink(false);
    let (outcome, live_alerts, observed) = run_live(&runner, &log, script, &mut sink);
    let report = outcome.expect("pipeline run");
    assert_eq!(report.truncations, 1, "the truncation was observed");
    assert_eq!(observed.len(), head.len() + replacement.len());

    let offline = offline_reference(context(), &observed, &FieldMapping::canonical(), 64, false)
        .expect("offline reference");
    assert_differential(&report, &live_alerts, &dir.join("dead.ndjson"), &offline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_gzip_is_a_stream_level_dead_letter_matching_offline() {
    let dir = tempdir("gzip");
    let log = dir.join("app.log.gz");
    let corpus = render_events(&corpus_events(60), LogFormat::Json);
    let archive = corrupt_gzip(gzip_compress_stored(corpus.as_bytes()));

    // Torn around a stall, so the tail buffers the archive across reads.
    let steps = torn_appends(&archive, &[archive.len() / 2], Duration::from_millis(5));
    let script = ChaosScript::new(&log, steps);
    let runner = PipelineRunner::new(config(&dir));
    let mut sink = context().indexed_sink(false);
    let (outcome, _, observed) = run_live(&runner, &log, script, &mut sink);

    // Live fails the stream, like the offline run on the same bytes.
    let error = outcome.expect_err("corrupt gzip must fail the run");
    assert!(
        matches!(&error, PipelineError::Ingest(IngestError::Gzip(_))),
        "unexpected error: {error}"
    );
    let offline = offline_reference(context(), &observed, &FieldMapping::canonical(), 64, false);
    assert!(offline.is_err(), "offline must also refuse the archive");

    // ... and the failure is accounted for, not silent.
    let dead = read_dead_letters(&dir.join("dead.ndjson")).expect("dead letters");
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].kind, "gzip");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_then_resume_completes_the_identical_stream() {
    let dir = tempdir("resume");
    let log = dir.join("app.log");
    let ckpt = dir.join("pipeline.ckpt");
    let corpus = render_events(&corpus_events(200), LogFormat::Logfmt);
    let lines: Vec<&str> = corpus.lines().collect();
    let half = lines.len() / 2;
    let first = format!("{}\n", lines[..half].join("\n"));
    let second = format!("{}\n", lines[half..].join("\n"));

    // Run 1: write the first half, then request a graceful drain via the
    // stop file.
    let stop_file = dir.join("stop");
    let mut config1 = config(&dir);
    config1.stop_file = Some(stop_file.clone());
    let runner1 = PipelineRunner::new(config1);
    let mut sink1 = context().indexed_sink(false);
    let progress1 = runner1.progress();
    let mut live_alerts = Vec::new();
    let report1 = std::thread::scope(|scope| {
        let source = LiveSource::tail(&log, fast_follow());
        let pipeline = scope
            .spawn(|| runner1.run(source, &mut sink1, |alert| live_alerts.push(alert.to_string())));
        let script = ChaosScript::new(&log, vec![ChaosStep::Append(first.clone().into_bytes())]);
        let scripted = script.run(&progress1);
        std::fs::write(&stop_file, b"drain").expect("stop file");
        let report = pipeline.join().expect("pipeline thread").expect("run 1");
        scripted.expect("chaos script");
        report
    });
    assert_eq!(report1.offset, first.len() as u64, "run 1 drained everything it observed");
    assert!(ckpt.exists(), "a final checkpoint was written at drain");
    drop(sink1);

    // Run 2: resume from the final checkpoint — monitor state from the
    // embedded snapshot, the stream from the recorded offset.
    let bytes = std::fs::read(&ckpt).expect("checkpoint bytes");
    let resume = PipelineCheckpoint::from_bytes(&bytes).expect("decode checkpoint");
    assert_eq!(resume.offset, first.len() as u64);
    let snapshot = MonitorSnapshot::from_bytes(&resume.snapshot).expect("embedded snapshot");
    let system = context().system();
    let monitor = privacy_runtime::IndexedMonitor::resume_from(
        system.catalog().clone(),
        system.policy().clone(),
        std::sync::Arc::clone(context().index()),
        &snapshot,
    )
    .expect("resume monitor");
    let mut sink2 = IndexedSink::new(monitor, context().services().to_vec(), false);

    let mut config2 = config(&dir);
    config2.follow.start_offset = resume.offset;
    config2.follow.poll_interval = Duration::from_millis(2);
    config2.resume = Some(resume);
    let runner2 = PipelineRunner::new(config2);
    let progress2 = runner2.progress();
    let stop2 = runner2.stop_handle();
    let report2 = std::thread::scope(|scope| {
        let source = LiveSource::tail(
            &log,
            FollowConfig { start_offset: first.len() as u64, ..fast_follow() },
        );
        let pipeline = scope
            .spawn(|| runner2.run(source, &mut sink2, |alert| live_alerts.push(alert.to_string())));
        let script = ChaosScript::new(&log, vec![ChaosStep::Append(second.clone().into_bytes())]);
        // Run 2 only observes the second half: offsets continue, bytes
        // observed this run start at zero.
        let observed = script.run(&progress2);
        assert!(observed.is_ok() || progress2.bytes.load(std::sync::atomic::Ordering::Relaxed) > 0);
        stop2.store(true, std::sync::atomic::Ordering::Relaxed);
        pipeline.join().expect("pipeline thread").expect("run 2")
    });
    assert_eq!(report2.offset, (first.len() + second.len()) as u64);

    // The two runs together equal one offline pass over the whole stream.
    let whole = format!("{first}{second}");
    let offline =
        offline_reference(context(), whole.as_bytes(), &FieldMapping::canonical(), 64, false)
            .expect("offline reference");
    assert_eq!(sorted(&live_alerts), sorted(&offline.alerts), "resumed stream diverged");
    assert_eq!(report2.events, offline.report.stats.events, "cumulative event count diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipe_source_drains_on_eof_and_matches_offline() {
    struct ChunkReader {
        chunks: std::vec::IntoIter<Vec<u8>>,
        current: Vec<u8>,
    }
    impl std::io::Read for ChunkReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.current.is_empty() {
                match self.chunks.next() {
                    Some(chunk) => self.current = chunk,
                    None => return Ok(0),
                }
            }
            let n = buf.len().min(self.current.len());
            buf[..n].copy_from_slice(&self.current[..n]);
            self.current.drain(..n);
            Ok(n)
        }
    }

    let dir = tempdir("pipe");
    let corpus = render_events(&corpus_events(120), LogFormat::Csv).into_bytes();
    // Hostile chunking: 7-byte reads tear every record across reads.
    let chunks: Vec<Vec<u8>> = corpus.chunks(7).map(<[u8]>::to_vec).collect();
    let reader = ChunkReader { chunks: chunks.into_iter(), current: Vec::new() };

    let mut config = config(&dir);
    config.checkpoint = None;
    let runner = PipelineRunner::new(config);
    let mut sink = context().indexed_sink(false);
    let source = LiveSource::pipe(Box::new(reader), fast_follow());
    let mut live_alerts = Vec::new();
    let report = runner
        .run(source, &mut sink, |alert| live_alerts.push(alert.to_string()))
        .expect("pipe run");

    let offline = offline_reference(context(), &corpus, &FieldMapping::canonical(), 64, false)
        .expect("offline reference");
    assert_differential(&report, &live_alerts, &dir.join("dead.ndjson"), &offline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The composed case: ingest chaos in front, the distrib fault plan
/// behind — a worker killed mid-run recovers from its checkpoint while
/// the tail keeps quarantining poison, and the differential still holds.
#[test]
fn distributed_sink_with_fault_plan_survives_composed_chaos() {
    use privacy_distrib::{DistributedMonitor, FaultPlan, SupervisorConfig};

    // The shard worker binary is built by `cargo test` / CI alongside this
    // test; skip (loudly) if only this package was built.
    let shardd = Path::new(env!("CARGO_BIN_EXE_privacy-monitor")).with_file_name("privacy-shardd");
    if !shardd.exists() {
        eprintln!("skipping: {} not built", shardd.display());
        return;
    }

    let dir = tempdir("distrib");
    let log = dir.join("app.log");
    let rendered = render_events(&corpus_events(200), LogFormat::Json);
    let mut lines: Vec<&str> = rendered.lines().collect();
    let poison = "{\"sequence\":9000001,\"user\":\"u-poison\",\"service\":\"Portal\",\
                  \"actor\":\"nurse\",\"action\":\"frobnicate\"}";
    lines.insert(15, poison);
    let corpus = format!("{}\n", lines.join("\n"));
    let len = corpus.len();
    let cuts = [len / 5, len / 5 + 2, len / 2];
    let steps = torn_appends(corpus.as_bytes(), &cuts, Duration::from_millis(10));
    let script = ChaosScript::new(&log, steps);

    let system = context().system();
    let mut supervisor_config = SupervisorConfig::new(&shardd, dir.join("ckpt"));
    supervisor_config.workers = 2;
    supervisor_config.checkpoint_every = 3;
    // Compose with the distrib fault plan: kill worker 0 after 4 events.
    supervisor_config.fault_plan = FaultPlan::none().kill_after(0, 0, 4);
    let fingerprint = context().index().fingerprint();
    let mut monitor =
        DistributedMonitor::launch("Healthcare", system, fingerprint, supervisor_config)
            .expect("launch supervisor");
    // Mirror the offline oracle's pre-registered population: the workers
    // must hold the same partial-consent profiles as the indexed monitor
    // the offline run uses, or the alert differential would compare
    // different policies.
    for user in context().population() {
        monitor.register_user(user).expect("register population");
    }
    let mut sink = DistributedSink::new(monitor, context().services().to_vec(), false);

    let mut config = config(&dir);
    config.checkpoint = None; // the supervisor checkpoints its workers
    config.batch = 16;
    let runner = PipelineRunner::new(config);
    let (outcome, mut live_alerts, observed) = run_live(&runner, &log, script, &mut sink);
    let report = outcome.expect("pipeline run over the distributed sink");
    assert_eq!(report.alerts, live_alerts.len() as u64, "the report counts every alert");
    let mut monitor = sink.into_monitor();
    let (late, stats) = monitor.shutdown().expect("shutdown");
    assert!(!stats.recoveries.is_empty(), "the injected kill forced a recovery");

    let offline = offline_reference(context(), &observed, &FieldMapping::canonical(), 16, false)
        .expect("offline reference");
    live_alerts.extend(late.iter().map(ToString::to_string));
    assert_eq!(
        sorted(&live_alerts),
        sorted(&offline.alerts),
        "distributed live alerts diverged from the offline run"
    );

    // The poison record is quarantined as the offline run refuses it.
    assert_dead_letters(&dir.join("dead.ndjson"), &offline);
    let dead = read_dead_letters(&dir.join("dead.ndjson")).expect("dead letters");
    assert!(dead.iter().any(|record| record.kind == "bad_value"));
    let _ = std::fs::remove_dir_all(&dir);
}
