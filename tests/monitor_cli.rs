//! End-to-end tests of the `privacy-monitor` binary.
//!
//! Every case runs the built CLI over a small seeded healthcare JSON log
//! under `--no-consent` (first-sight users consent to nothing, so the log
//! raises a few hundred alerts) and compares the alert lines it prints:
//! one-shot file vs stdin pipe vs the offline oracle, a checkpointed run
//! split across a `--resume`, and the typed exit codes of each failure.

use privacy_ingest::deadletter::read_dead_letters;
use privacy_ingest::{gzip_compress_stored, FieldMapping};
use privacy_mde::chaos::{offline_reference, MonitorContext};
use privacy_mde::distrib::exit;
use privacy_mde::pipeline::PipelineCheckpoint;
use privacy_model::{FieldId, Record, UserId};
use privacy_runtime::{MonitorSnapshot, ServiceEngine};
use privacy_synth::{random_workload, render_events, LogFormat, WorkloadConfig};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

/// Lines in the first half of a split run: past one periodic checkpoint
/// (every 1,024 events) and short of the whole log.
const SPLIT: usize = 1_300;

fn context() -> &'static MonitorContext {
    static CONTEXT: OnceLock<MonitorContext> = OnceLock::new();
    CONTEXT.get_or_init(|| MonitorContext::healthcare().expect("healthcare context"))
}

/// A seeded healthcare request log as JSON lines, one event per line. Its
/// users are outside the context's registered population, so the CLI and
/// the offline oracle both meet every user first in the log.
fn healthcare_log() -> &'static Vec<String> {
    static LOG: OnceLock<Vec<String>> = OnceLock::new();
    LOG.get_or_init(|| {
        let system = context().system();
        let fields: Vec<FieldId> = system.catalog().fields().map(|f| f.id().clone()).collect();
        let mut engine = ServiceEngine::new(
            system.catalog().clone(),
            system.dataflows().clone(),
            system.policy().clone(),
        );
        let workload = random_workload(&WorkloadConfig {
            length: 600,
            seed: 7,
            users: (0..40).map(|i| UserId::new(format!("patient-{i:03}"))).collect(),
            services: context().services().iter().map(|s| (s.clone(), 1.0)).collect(),
        });
        for request in &workload {
            let record = fields.iter().fold(Record::new(), |record, field| {
                record.with(field.clone(), format!("v-{field}"))
            });
            let _ = engine.execute(request.user(), request.service(), &record);
        }
        let log = render_events(engine.log().events(), LogFormat::Json);
        let lines: Vec<String> = log.lines().map(|line| format!("{line}\n")).collect();
        assert!(lines.len() > SPLIT + 1_000, "the log must outgrow the split: {}", lines.len());
        lines
    })
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monitor-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

fn write(path: &Path, lines: &[String]) {
    std::fs::write(path, lines.concat()).expect("write log");
}

/// Runs the CLI with `--no-consent` plus `args`, feeding `stdin`.
fn monitor(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_privacy-monitor"))
        .arg("--no-consent")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("privacy-monitor spawns");
    child.stdin.take().expect("piped stdin").write_all(stdin).expect("feed stdin");
    child.wait_with_output().expect("privacy-monitor exits")
}

/// The alert lines of a run that must succeed.
fn alerts(args: &[&str]) -> Vec<String> {
    let output = monitor(args, b"");
    assert!(output.status.success(), "{args:?} failed: {}", stderr(&output));
    stdout_lines(&output)
}

fn stdout_lines(output: &Output) -> Vec<String> {
    String::from_utf8_lossy(&output.stdout).lines().map(str::to_owned).collect()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn str_of(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn split_resume_prints_exactly_the_uninterrupted_alerts() {
    let dir = tempdir("split");
    let log = dir.join("access.log");
    let checkpoint = dir.join("state.ckpt");
    let (log_arg, checkpoint_arg) = (str_of(&log), str_of(&checkpoint));
    write(&log, healthcare_log());
    let uninterrupted = alerts(&[log_arg]);
    assert!(!uninterrupted.is_empty(), "the log must raise alerts for this test to pin anything");

    // The first run sees only a prefix of the file; the second resumes
    // over the grown file from the first run's final checkpoint.
    write(&log, &healthcare_log()[..SPLIT]);
    let first = alerts(&[log_arg, "--checkpoint", checkpoint_arg]);
    let periodic = dir.join("periodic.ckpt");
    std::fs::copy(dir.join("state.ckpt.prev"), &periodic)
        .expect("the prefix run wrote a periodic checkpoint before its final one");
    write(&log, healthcare_log());
    let second = alerts(&[log_arg, "--resume", checkpoint_arg, "--checkpoint", checkpoint_arg]);
    assert_eq!(
        [first.clone(), second.clone()].concat(),
        uninterrupted,
        "{} + {} alerts across the resume, {} uninterrupted",
        first.len(),
        second.len(),
        uninterrupted.len()
    );

    // Resuming from the earlier, periodic generation (a run that died
    // after it) replays a longer suffix of the same stream.
    let replayed = alerts(&[log_arg, "--resume", str_of(&periodic)]);
    assert!(replayed.len() > second.len(), "{} vs {}", replayed.len(), second.len());
    assert!(uninterrupted.ends_with(&replayed));
}

#[test]
fn file_pipe_gzip_and_offline_oracle_agree() {
    let dir = tempdir("oracle");
    let log = dir.join("access.log");
    write(&log, healthcare_log());
    let bytes = std::fs::read(&log).expect("read log");
    let from_file = alerts(&[str_of(&log)]);
    assert!(!from_file.is_empty(), "the log must raise alerts for this test to pin anything");

    let piped = monitor(&["-"], &bytes);
    assert!(piped.status.success(), "stdin run failed: {}", stderr(&piped));
    assert_eq!(stdout_lines(&piped), from_file, "stdin pipe vs file");

    let offline = offline_reference(context(), &bytes, &FieldMapping::canonical(), 64, true)
        .expect("offline oracle");
    assert_eq!(offline.alerts, from_file, "offline oracle vs file");

    let gzipped = dir.join("access.log.gz");
    std::fs::write(&gzipped, gzip_compress_stored(&bytes)).expect("write gzip");
    assert_eq!(alerts(&[str_of(&gzipped)]), from_file, "gzip file vs plain file");
}

#[test]
fn the_final_checkpoint_carries_no_pending_alerts() {
    let dir = tempdir("pending");
    let log = dir.join("access.log");
    let checkpoint = dir.join("state.ckpt");
    write(&log, healthcare_log());
    let raised = alerts(&[str_of(&log), "--checkpoint", str_of(&checkpoint)]);
    assert!(!raised.is_empty());
    let file = PipelineCheckpoint::from_bytes(&std::fs::read(&checkpoint).expect("read"))
        .expect("a pipeline checkpoint");
    assert_eq!(file.events, healthcare_log().len() as u64);
    let snapshot = MonitorSnapshot::from_bytes(&file.snapshot).expect("embedded snapshot");
    assert!(
        snapshot.pending_alerts().is_empty(),
        "{} printed alerts were also kept in the checkpoint",
        snapshot.pending_alerts().len()
    );
}

#[test]
fn failures_map_to_typed_exit_codes() {
    let dir = tempdir("exits");
    let log = dir.join("access.log");
    let (log_arg, checkpoint) = (str_of(&log), dir.join("state.ckpt"));
    let checkpoint_arg = str_of(&checkpoint);
    let state_fatal = Some(exit::SNAPSHOT_FATAL);

    // A bare monitor snapshot (`PMSN`) is not a pipeline checkpoint.
    let bare = dir.join("bare.snapshot");
    std::fs::write(&bare, context().monitor().snapshot().to_bytes()).expect("write snapshot");
    write(&log, healthcare_log());
    let output = monitor(&[log_arg, "--resume", str_of(&bare)], b"");
    assert_eq!(output.status.code(), state_fatal, "{}", stderr(&output));
    assert!(stderr(&output).contains("PMSN"), "{}", stderr(&output));

    // A checkpoint past the end of a shorter file cannot be continued.
    let _ = alerts(&[log_arg, "--checkpoint", checkpoint_arg]);
    write(&log, &healthcare_log()[..SPLIT]);
    let output = monitor(&[log_arg, "--resume", checkpoint_arg], b"");
    assert_eq!(output.status.code(), state_fatal, "{}", stderr(&output));
    assert!(output.stdout.is_empty());
    // A tail counts its offset across rotations, so it takes a shorter
    // file (here a rotated one, holding the next 1,000 lines of the stream)
    // as truncated and reads it from the start. The stop file, made once
    // the tail has polled, drains it.
    let rotated = dir.join("rotated.ckpt");
    let _ = alerts(&[log_arg, "--checkpoint", str_of(&rotated)]);
    write(&log, &healthcare_log()[SPLIT..SPLIT + 1_000]);
    let stop = dir.join("stop");
    let stopper = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(500));
            std::fs::write(stop, b"").expect("write stop file");
        })
    };
    let output = monitor(
        &[log_arg, "--follow", "--stop-file", str_of(&stop), "--resume", str_of(&rotated)],
        b"",
    );
    stopper.join().expect("stop file written");
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(stderr(&output).contains(" 1 truncations"), "{}", stderr(&output));
    write(&log, &healthcare_log()[..SPLIT]);

    // Neither can a checkpoint inside a gzip stream.
    let gzipped = dir.join("access.log.gz");
    std::fs::write(&gzipped, gzip_compress_stored(healthcare_log().concat().as_bytes()))
        .expect("write gzip");
    let output = monitor(&[str_of(&gzipped), "--resume", checkpoint_arg], b"");
    assert_eq!(output.status.code(), state_fatal, "{}", stderr(&output));
    // Not even as a tail, which would otherwise seek into the compressed
    // bytes. The stop file drains a tail that wrongly started at once.
    let output = monitor(
        &[str_of(&gzipped), "--follow", "--stop-file", str_of(&stop), "--resume", checkpoint_arg],
        b"",
    );
    assert_eq!(output.status.code(), state_fatal, "{}", stderr(&output));
    assert!(stderr(&output).contains("gzip"), "{}", stderr(&output));

    // A checkpoint that cannot be written is an I/O failure: here its
    // parent directory is a regular file.
    let blocked = log.join("state.ckpt");
    let output = monitor(&[log_arg, "--checkpoint", str_of(&blocked)], b"");
    assert_eq!(output.status.code(), Some(exit::IO_FATAL), "{}", stderr(&output));
    assert!(stderr(&output).contains(str_of(&blocked)), "{}", stderr(&output));

    // A malformed line: fatal under the default fail-fast policy, after
    // printing the alerts of every line before it.
    let before = alerts(&[log_arg]);
    let mut poisoned = healthcare_log()[..SPLIT].to_vec();
    poisoned.push("{\"user\": \"patient-001\", \"service\": \n".to_owned());
    let bad_offset = poisoned[..SPLIT].concat().len() as u64;
    poisoned.extend_from_slice(&healthcare_log()[SPLIT..]);
    write(&log, &poisoned);
    let output = monitor(&[log_arg], b"");
    assert_eq!(output.status.code(), Some(exit::INGEST_FATAL), "{}", stderr(&output));
    assert_eq!(stdout_lines(&output), before);

    // Under `skip` the line is quarantined by offset and the run goes on.
    let dead = dir.join("dead.ndjson");
    let skipped = alerts(&[log_arg, "--error-policy", "skip", "--dead-letter", str_of(&dead)]);
    write(&log, healthcare_log());
    assert_eq!(skipped, alerts(&[log_arg]));
    let records = read_dead_letters(&dead).expect("dead-letter file");
    assert_eq!(
        records.iter().map(|record| record.offset).collect::<Vec<_>>(),
        vec![bad_offset],
        "{records:?}"
    );
}
