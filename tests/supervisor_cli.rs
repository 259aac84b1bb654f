//! End-to-end tests of the `privacy-supervisor` binary: its worker-count
//! range is a usage error, runs with the default checkpoint directory
//! never see each other's checkpoints, and a run over a checkpoint
//! directory another run used exits with the usage code.

use privacy_mde::distrib::exit;
use std::path::Path;
use std::process::{Command, Output, Stdio};

fn supervisor(args: &[&str]) -> (Output, u32) {
    let child = Command::new(env!("CARGO_BIN_EXE_privacy-supervisor"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("privacy-supervisor spawns");
    let pid = child.id();
    (child.wait_with_output().expect("privacy-supervisor exits"), pid)
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn worker_counts_outside_the_shard_range_are_usage_errors() {
    for workers in ["0", "33"] {
        let (output, _) = supervisor(&["--workers", workers, "--quiet"]);
        assert_eq!(output.status.code(), Some(exit::USAGE), "--workers {workers}: {output:?}");
        assert!(stderr(&output).contains("--workers must be in 1..=32"), "{}", stderr(&output));
    }
}

/// Whether the shard worker is built next to this binary, as a workspace
/// build does; says so loudly when it is not.
fn shardd_built() -> bool {
    let shardd =
        Path::new(env!("CARGO_BIN_EXE_privacy-supervisor")).with_file_name("privacy-shardd");
    let built = shardd.exists();
    if !built {
        eprintln!("skipping: {} not built", shardd.display());
    }
    built
}

#[test]
fn a_second_run_over_a_used_checkpoint_dir_exits_with_the_usage_code() {
    if !shardd_built() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("supervisor-cli-used-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let (first, _) = supervisor(&["--quiet", "--checkpoint-dir", dir_arg]);
    assert!(first.status.success(), "the first run failed: {}", stderr(&first));
    let (second, _) = supervisor(&["--quiet", "--checkpoint-dir", dir_arg]);
    assert_eq!(second.status.code(), Some(exit::USAGE), "{}", stderr(&second));
    assert!(stderr(&second).contains("bad supervisor config"), "{}", stderr(&second));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_default_runs_print_the_same_alert_count() {
    if !shardd_built() {
        return;
    }
    let summaries: Vec<String> = (0..2)
        .map(|run| {
            let (output, pid) = supervisor(&["--quiet"]);
            assert!(output.status.success(), "run {run} failed: {}", stderr(&output));
            let own_dir = std::env::temp_dir().join(format!("privacy-supervisor-ckpt-{pid}"));
            assert!(!own_dir.exists(), "run {run} left {} behind", own_dir.display());
            stderr(&output).lines().next().expect("a summary line").to_owned()
        })
        .collect();
    assert!(summaries[0].contains(" alerts, "), "unexpected summary: {}", summaries[0]);
    assert!(!summaries[0].contains(" 0 alerts, "), "the workload must alert: {}", summaries[0]);
    assert_eq!(summaries[0], summaries[1], "a second default run diverged from the first");
}
