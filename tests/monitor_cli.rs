//! End-to-end tests of the `privacy-monitor` binary.
//!
//! Every case runs the built CLI over a small seeded healthcare JSON log
//! under `--no-consent` (first-sight users consent to nothing, so the log
//! raises a few hundred alerts) and compares the alert lines it prints:
//! one-shot file vs stdin pipe vs the offline oracle, the in-process
//! monitor vs a `--workers 1`, `2` and `4` fleet (file, gzip, stdin, and a
//! `--follow` tail drained by `--stop-file` with its dead letters), a
//! checkpointed run split across a `--resume`, and the typed exit codes of
//! each failure. The fleet cases skip, saying so, when `privacy-shardd` is
//! not built next to the binary, as a build of the root package alone
//! leaves it.

use privacy_ingest::deadletter::read_dead_letters;
use privacy_ingest::{gzip_compress_stored, FieldMapping};
use privacy_mde::chaos::{offline_reference, MonitorContext};
use privacy_mde::distrib::exit;
use privacy_mde::pipeline::PipelineCheckpoint;
use privacy_model::{FieldId, Record, UserId};
use privacy_runtime::{MonitorSnapshot, ServiceEngine};
use privacy_synth::{random_workload, render_events, LogFormat, WorkloadConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
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

/// A test's scratch directory, emptied before use and removed when the
/// test ends, whether it passed or not.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tempdir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("monitor-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    TempDir(dir)
}

fn write(path: &Path, lines: &[String]) {
    std::fs::write(path, lines.concat()).expect("write log");
}

/// Starts the CLI with `--no-consent` plus `args`, every stream piped.
fn spawn_monitor(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_privacy-monitor"))
        .arg("--no-consent")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("privacy-monitor spawns")
}

/// Runs the CLI with `--no-consent` plus `args`, feeding `stdin`.
fn monitor(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = spawn_monitor(args);
    child.stdin.take().expect("piped stdin").write_all(stdin).expect("feed stdin");
    child.wait_with_output().expect("privacy-monitor exits")
}

/// Whether the fleet's worker binary is built next to the CLI, as a
/// workspace build does; says so loudly when it is not.
fn shardd_built() -> bool {
    let shardd = Path::new(env!("CARGO_BIN_EXE_privacy-monitor")).with_file_name("privacy-shardd");
    let built = shardd.exists();
    if !built {
        eprintln!("skipping the fleet cases: {} not built", shardd.display());
    }
    built
}

/// The worker checkpoint directory a fleet run with process id `pid`
/// owns.
fn fleet_dir(pid: u32) -> PathBuf {
    std::env::temp_dir().join(format!("privacy-monitor-fleet-{pid}"))
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

    // A fleet merges its workers' alerts back into the in-process order.
    if !shardd_built() {
        return;
    }
    for workers in ["1", "2", "4"] {
        let fleet = ["--workers", workers];
        assert_eq!(alerts(&[&[str_of(&log)], &fleet[..]].concat()), from_file, "{workers} file");
        assert_eq!(
            alerts(&[&[str_of(&gzipped)], &fleet[..]].concat()),
            from_file,
            "{workers} gzip"
        );
        let piped = monitor(&[&["-"], &fleet[..]].concat(), &bytes);
        assert!(piped.status.success(), "{workers} stdin: {}", stderr(&piped));
        assert_eq!(stdout_lines(&piped), from_file, "{workers} stdin");
        assert!(stderr(&piped).contains(&format!("; {workers} workers, ")), "{}", stderr(&piped));
    }
}

#[test]
fn a_fleet_tail_drained_by_a_stop_file_equals_the_one_shot_run() {
    if !shardd_built() {
        return;
    }
    let dir = tempdir("fleet-follow");
    let log = dir.join("access.log");
    let mut poisoned = healthcare_log().clone();
    poisoned.insert(SPLIT / 2, "{\"user\": \"patient-001\", \"service\": \n".to_owned());
    write(&log, &poisoned);
    let (one_shot_dead, fleet_dead) = (dir.join("one-shot.ndjson"), dir.join("fleet.ndjson"));
    let skip = ["--error-policy", "skip", "--batch", "64"];
    let one_shot =
        alerts(&[&[str_of(&log), "--dead-letter", str_of(&one_shot_dead)], &skip[..]].concat());

    // The tail starts on the first part of the log; the rest is appended
    // once the fleet prints its first alert, and the stop file is made
    // well after the tail has read it.
    write(&log, &poisoned[..SPLIT]);
    let stop = dir.join("stop");
    let mut child = spawn_monitor(
        &[
            &[str_of(&log), "--workers", "2", "--follow", "--stop-file", str_of(&stop)],
            &["--dead-letter", str_of(&fleet_dead)][..],
            &skip[..],
        ]
        .concat(),
    );
    // Stdout is read as it comes, so the fleet never blocks on a full pipe.
    let stdout = child.stdout.take().expect("piped stdout");
    let (first, first_seen) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut printed = Vec::new();
        for line in BufReader::new(stdout).lines() {
            printed.push(line.expect("read an alert"));
            let _ = first.send(());
        }
        printed
    });
    let _ = first_seen.recv();
    std::fs::OpenOptions::new()
        .append(true)
        .open(&log)
        .and_then(|mut file| file.write_all(poisoned[SPLIT..].concat().as_bytes()))
        .expect("append the rest of the log");
    std::thread::sleep(std::time::Duration::from_secs(2));
    std::fs::write(&stop, b"").expect("write stop file");
    let printed = reader.join().expect("stdout reader");
    let output = child.wait_with_output().expect("privacy-monitor exits");
    assert!(output.status.success(), "{}", stderr(&output));
    assert_eq!(printed, one_shot, "a --workers 2 tail vs the in-process one-shot run");
    let dead = read_dead_letters(&fleet_dead).expect("the fleet's dead letters");
    assert_eq!(dead.len(), 1, "{dead:?}");
    assert_eq!(dead, read_dead_letters(&one_shot_dead).expect("the one-shot dead letters"));
}

#[test]
fn two_fleet_runs_print_the_same_alerts_and_leave_no_directory_behind() {
    if !shardd_built() {
        return;
    }
    let dir = tempdir("fleet-twice");
    let log = dir.join("access.log");
    write(&log, healthcare_log());
    let runs: Vec<Vec<String>> = (0..2)
        .map(|run| {
            let child = spawn_monitor(&[str_of(&log), "--workers", "2"]);
            let pid = child.id();
            let output = child.wait_with_output().expect("privacy-monitor exits");
            assert!(output.status.success(), "run {run}: {}", stderr(&output));
            assert!(!fleet_dir(pid).exists(), "run {run} left {} behind", fleet_dir(pid).display());
            assert!(
                stderr(&output).contains(" worker checkpoints, 0 recoveries"),
                "{}",
                stderr(&output)
            );
            stdout_lines(&output)
        })
        .collect();
    assert!(!runs[0].is_empty(), "the log must raise alerts for this test to pin anything");
    assert_eq!(runs[0], runs[1], "a second fleet run diverged from the first");
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
fn worker_counts_outside_the_shard_range_are_usage_errors() {
    let dir = tempdir("workers");
    let log = dir.join("access.log");
    write(&log, healthcare_log());
    for workers in ["0", "33"] {
        let output = monitor(&[str_of(&log), "--workers", workers], b"");
        assert_eq!(output.status.code(), Some(exit::USAGE), "--workers {workers}");
        assert!(stderr(&output).contains("--workers must be in 1..=32"), "{}", stderr(&output));
        assert!(output.stdout.is_empty(), "--workers {workers} printed alerts");
    }
}

#[test]
fn failures_map_to_typed_exit_codes() {
    let dir = tempdir("exits");
    let log = dir.join("access.log");
    let (log_arg, checkpoint) = (str_of(&log), dir.join("state.ckpt"));
    let checkpoint_arg = str_of(&checkpoint);
    let state_fatal = Some(exit::SNAPSHOT_FATAL);

    // A zero thread count, batch size or poll interval is a usage error.
    for flag in ["--threads", "--batch", "--poll-ms"] {
        let output = monitor(&[log_arg, flag, "0"], b"");
        assert_eq!(output.status.code(), Some(exit::USAGE), "{flag} 0: {}", stderr(&output));
        assert!(stderr(&output).contains(flag), "{flag} 0: {}", stderr(&output));
        assert!(output.stdout.is_empty(), "{flag} 0 printed alerts");
    }
    // So is a fleet asked to fan out, checkpoint or resume the pipeline:
    // it does those itself.
    for (flag, value) in
        [("--threads", "2"), ("--checkpoint", checkpoint_arg), ("--resume", checkpoint_arg)]
    {
        let output = monitor(&[log_arg, "--workers", "2", flag, value], b"");
        assert_eq!(output.status.code(), Some(exit::USAGE), "--workers with {flag}");
        assert!(
            stderr(&output).contains(&format!("--workers cannot be combined with {flag}")),
            "{}",
            stderr(&output)
        );
        assert!(output.stdout.is_empty(), "--workers with {flag} printed alerts");
    }

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
