//! The failure-injection differential harness: a supervised multi-process
//! run must produce **exactly** the alert stream of a single in-process
//! [`IndexedMonitor`] over the same batches — under no faults, under every
//! named fault the plan language can express, and under proptest-generated
//! fault schedules.
//!
//! The reference is `IndexedMonitor::ingest_batch` per super-batch; the
//! candidate is a [`DistributedMonitor`] driving real `privacy-shardd`
//! worker processes (via `CARGO_BIN_EXE_privacy-shardd`) with the same
//! batches. Equality of the merged streams proves the whole robustness
//! story at once: sharded routing preserves order, restarts lose nothing,
//! replay duplicates nothing, and checkpoint fallback resumes from
//! consistent state.

use privacy_core::PrivacySystem;
use privacy_distrib::{
    exit, DistribError, DistribStats, DistributedMonitor, FaultPlan, Message, SupervisorConfig,
};
use privacy_lts::LtsIndex;
use privacy_model::{FieldId, Record, ServiceId, UserProfile};
use privacy_runtime::{Alert, Event, IndexedMonitor, ServiceEngine};
use privacy_synth::{
    random_model, random_profiles, random_workload, ModelGeneratorConfig, ProfileGeneratorConfig,
    WorkloadConfig,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The shared scenario: a small synthetic model (worker processes rebuild
/// its LTS per spawn under the dev profile, so size is kept modest), a
/// registered population, and an engine-produced event stream.
struct Fixture {
    system: PrivacySystem,
    fingerprint: u64,
    index: Arc<LtsIndex>,
    users: Vec<UserProfile>,
    batches: Vec<Vec<Event>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = ModelGeneratorConfig {
            actors: 3,
            fields: 4,
            datastores: 1,
            services: 2,
            flows_per_service: 3,
            grant_probability: 0.7,
            seed: 5,
            ..ModelGeneratorConfig::default()
        };
        let (catalog, dataflows, policy) = random_model(&config).expect("synth model");
        let system = PrivacySystem::new(catalog, dataflows, policy);
        let lts = system.generate_lts().expect("tiny model generates");
        let index = Arc::new(LtsIndex::build(&lts));
        let fingerprint = index.fingerprint();

        let services: Vec<ServiceId> =
            system.catalog().services().map(|s| s.id().clone()).collect();
        let fields: Vec<FieldId> = system.catalog().fields().map(|f| f.id().clone()).collect();
        let users = random_profiles(&ProfileGeneratorConfig {
            count: 24,
            seed: 13,
            services: services.clone(),
            consent_probability: 0.5,
            fields: fields.clone(),
            sensitivity_probability: 0.6,
        });

        let mut engine = ServiceEngine::new(
            system.catalog().clone(),
            system.dataflows().clone(),
            system.policy().clone(),
        );
        let workload = random_workload(&WorkloadConfig {
            length: 480,
            seed: 17,
            users: users.iter().map(|u| u.id().clone()).collect(),
            services: services.iter().map(|s| (s.clone(), 1.0)).collect(),
        });
        for request in &workload {
            let record = fields.iter().fold(Record::new(), |record, field| {
                record.with(field.clone(), format!("v-{field}"))
            });
            let _ = engine.execute(request.user(), request.service(), &record);
        }
        let events = engine.log().events().to_vec();
        assert!(events.len() >= 200, "fixture stream too small to be interesting");
        let batches: Vec<Vec<Event>> = events.chunks(16).map(<[Event]>::to_vec).collect();

        Fixture { system, fingerprint, index, users, batches }
    })
}

/// The in-process reference: one monitor, every user, every batch.
fn reference_alerts(fixture: &Fixture, batches: &[Vec<Event>]) -> Vec<Alert> {
    let mut monitor = IndexedMonitor::new(
        fixture.system.catalog().clone(),
        fixture.system.policy().clone(),
        fixture.index.clone(),
    );
    for user in &fixture.users {
        monitor.register_user(user);
    }
    let mut alerts = Vec::new();
    for batch in batches {
        alerts.extend_from_slice(monitor.ingest_batch(batch));
    }
    alerts
}

fn checkpoint_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let run = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("privacy-distrib-diff-{tag}-{}-{run}", std::process::id()))
}

fn config(tag: &str, workers: usize, plan: FaultPlan) -> SupervisorConfig {
    let mut config =
        SupervisorConfig::new(env!("CARGO_BIN_EXE_privacy-shardd"), checkpoint_dir(tag));
    config.workers = workers;
    config.window = 2;
    config.checkpoint_every = 3;
    // Short enough that a stalled or ack-dropping worker is reaped quickly,
    // long enough that a healthy dev-profile worker never trips it.
    config.ack_timeout = Duration::from_secs(5);
    config.fault_plan = plan;
    config
}

/// The candidate: a supervised fleet fed the same batches, drained fully.
fn distributed_alerts(
    fixture: &Fixture,
    batches: &[Vec<Event>],
    config: SupervisorConfig,
) -> (Vec<Alert>, DistribStats) {
    let dir = config.checkpoint_dir.clone();
    let mut monitor =
        DistributedMonitor::launch("Tiny", &fixture.system, fixture.fingerprint, config)
            .expect("fleet launches");
    for user in &fixture.users {
        monitor.register_user(user).expect("registration routes");
    }
    let mut alerts = Vec::new();
    for batch in batches {
        alerts.extend(monitor.submit_batch(batch).expect("batch is processed"));
    }
    let (rest, stats) = monitor.shutdown().expect("clean shutdown");
    alerts.extend(rest);
    let _ = std::fs::remove_dir_all(dir);
    (alerts, stats)
}

#[test]
fn no_faults_matches_in_process_run_across_worker_counts() {
    let fixture = fixture();
    let expected = reference_alerts(fixture, &fixture.batches);
    assert!(!expected.is_empty(), "fixture must raise alerts for the diff to mean anything");
    for workers in [1, 2, 3] {
        let (alerts, stats) = distributed_alerts(
            fixture,
            &fixture.batches,
            config("clean", workers, FaultPlan::none()),
        );
        assert_eq!(alerts, expected, "{workers}-worker fleet diverged");
        assert!(stats.recoveries.is_empty(), "no faults, no restarts");
        assert_eq!(stats.batches, fixture.batches.len() as u64);
    }
}

#[test]
fn kill_mid_stream_recovers_from_checkpoint_and_matches() {
    let fixture = fixture();
    let expected = reference_alerts(fixture, &fixture.batches);
    // Kill worker 0's first incarnation mid-batch, twice more in later
    // incarnations: the replacement must resume, replay the unacked suffix
    // and change nothing downstream.
    let plan = FaultPlan::none().kill_after(0, 0, 30).kill_after(0, 1, 45).kill_after(1, 0, 70);
    let (alerts, stats) = distributed_alerts(fixture, &fixture.batches, config("kill", 2, plan));
    assert_eq!(alerts, expected);
    assert!(stats.recoveries.len() >= 3, "every scheduled kill must be recovered");
    for recovery in &stats.recoveries {
        assert!(!recovery.cause.is_empty());
    }
}

#[test]
fn stalled_worker_is_reaped_restarted_and_matches() {
    let fixture = fixture();
    let expected = reference_alerts(fixture, &fixture.batches);
    let mut config = config("stall", 2, FaultPlan::none().stall(0, 0, 25, 120_000));
    config.ack_timeout = Duration::from_millis(400);
    let (alerts, stats) = distributed_alerts(fixture, &fixture.batches, config);
    assert_eq!(alerts, expected);
    assert!(
        stats.recoveries.iter().any(|r| r.worker == 0 && r.cause.contains("no ack")),
        "the stall must surface as an ack timeout: {:?}",
        stats.recoveries
    );
}

#[test]
fn dropped_ack_forces_replay_without_duplicate_alerts() {
    let fixture = fixture();
    let expected = reference_alerts(fixture, &fixture.batches);
    // The worker processes its 2nd sub-batch fully but swallows the
    // cumulative ack of the frame carrying it. A window of 1 makes the lane
    // stop-and-wait: no later frame can reach the worker to carry a healing
    // cumulative AckThrough, so the loss is terminal for this window — the
    // timeout must reap the worker and the replacement must replay. The
    // merged stream must contain that batch's alerts exactly once.
    let mut config = config("dropack", 2, FaultPlan::none().drop_ack(1, 0, 2));
    config.ack_timeout = Duration::from_millis(400);
    config.window = 1;
    let (alerts, stats) = distributed_alerts(fixture, &fixture.batches, config);
    assert_eq!(alerts, expected);
    assert!(
        stats.recoveries.iter().any(|r| r.worker == 1),
        "the window-wide ack loss must force a replay: {:?} (warnings: {:?})",
        stats.recoveries,
        stats.checkpoint_warnings
    );
}

#[test]
fn dropped_mid_stream_ack_self_heals_without_restart() {
    let fixture = fixture();
    let expected = reference_alerts(fixture, &fixture.batches);
    // Same swallowed ack as above, but with one part per frame
    // (max_frame_events 1) the loss is genuinely mid-stream: the next
    // frame's cumulative AckThrough re-carries the dropped batch's alerts
    // and advances `through` past it, so the supervisor catches up without
    // ever arming the ack timeout. The restart path must stay cold.
    let mut config = config("selfheal", 2, FaultPlan::none().drop_ack(1, 0, 2));
    config.window = 8;
    config.max_frame_events = 1;
    let (alerts, stats) = distributed_alerts(fixture, &fixture.batches, config);
    assert_eq!(alerts, expected);
    assert!(
        stats.recoveries.is_empty(),
        "a mid-stream ack loss must self-heal via the next cumulative ack, not a restart: {:?}",
        stats.recoveries
    );
}

#[test]
fn final_frame_ack_loss_recovers_via_the_ack_timeout() {
    let fixture = fixture();
    let expected = reference_alerts(fixture, &fixture.batches);
    // The very last part's ack is swallowed. No subsequent frame exists to
    // piggyback a healing AckThrough on, so the loss surfaces either as an
    // ack timeout at the final flush or — when a periodic checkpoint rides
    // right behind the dropped frame — as the supervisor catching that
    // checkpoint's coverage outrunning the merged stream. Both paths must
    // end in a replacement worker replaying the unacked suffix, with the
    // stream still matching.
    let last = fixture.batches.len() as u64;
    let mut config = config("dropfinal", 1, FaultPlan::none().drop_ack(0, 0, last));
    config.ack_timeout = Duration::from_millis(400);
    let (alerts, stats) = distributed_alerts(fixture, &fixture.batches, config);
    assert_eq!(alerts, expected);
    assert!(
        stats.recoveries.iter().any(|r| r.worker == 0 && r.cause.contains("no ack")),
        "a final-frame ack loss must surface as a missing ack: {:?}",
        stats.recoveries
    );
}

#[test]
fn kill_and_stall_mid_multi_part_frame_recover_and_match() {
    let fixture = fixture();
    let expected = reference_alerts(fixture, &fixture.batches);
    // Force genuinely multi-part frames: a wide window, no periodic
    // checkpoint flushes and a long linger let the writer coalesce many
    // sub-batches per frame. Worker 0 is killed mid-frame (event 40 lands
    // inside a coalesced frame's part sequence) and worker 1 stalls before
    // acking a mid-frame part — both must be reaped and replayed without
    // disturbing the merged stream.
    let plan = FaultPlan::none().kill_after(0, 0, 40).stall(1, 0, 30, 120_000);
    let mut config = config("midframe", 2, plan);
    config.window = 8;
    config.checkpoint_every = 0;
    config.linger = Duration::from_millis(50);
    config.ack_timeout = Duration::from_millis(600);
    let (alerts, stats) = distributed_alerts(fixture, &fixture.batches, config);
    assert_eq!(alerts, expected);
    assert!(
        stats.recoveries.iter().any(|r| r.worker == 0),
        "the mid-frame kill must be recovered: {:?}",
        stats.recoveries
    );
    assert!(
        stats.recoveries.iter().any(|r| r.worker == 1),
        "the mid-frame stall must be recovered: {:?}",
        stats.recoveries
    );
}

#[test]
fn large_legitimate_batches_do_not_trip_the_scaled_ack_timeout() {
    let fixture = fixture();
    let batches = &fixture.batches[..4];
    let expected = reference_alerts(fixture, batches);
    // A slow-but-healthy worker: 40ms per event makes one 16-event part
    // take ~640ms, well past the 400ms base ack timeout. The per-event
    // grace must scale the deadline with the in-flight event count so a
    // large legitimate batch is waited out, never mistaken for a wedge.
    let mut config = config("slowok", 1, FaultPlan::none().sleep_per_event(0, 0, 40));
    config.ack_timeout = Duration::from_millis(400);
    config.ack_grace_per_event = Duration::from_millis(50);
    let (alerts, stats) = distributed_alerts(fixture, batches, config);
    assert_eq!(alerts, expected);
    assert!(
        stats.recoveries.is_empty(),
        "a slow legitimate batch must not trigger a restart: {:?}",
        stats.recoveries
    );
}

/// End-to-end protocol-skew rejection: a peer speaking the wrong wire
/// version at a real `privacy-shardd` process gets a typed [`Message::Fatal`]
/// and a [`exit::PROTOCOL_FATAL`] exit, not a misparse or a hang.
#[test]
fn protocol_version_skew_is_rejected_with_a_typed_fatal() {
    use privacy_distrib::wire::MESSAGE_VERSION;
    use privacy_interchange::{read_frame, write_frame};
    use std::process::{Command, Stdio};

    let event = fixture().batches[0][0].clone();
    let cases: Vec<(Vec<u8>, &str)> = vec![
        // A data-plane frame in a version-1 envelope: no longer spoken,
        // and the diagnostic must name the unsupported version.
        (
            Message::IngestBatch { acked_through: 0, parts: vec![(1, vec![(0, event)])] }
                .encode_at(1),
            "unsupported format version 1",
        ),
        // A frame from the future: unsupported version, typed as such.
        (Message::Checkpoint.encode_at(MESSAGE_VERSION + 1), "version"),
    ];
    for (frame, needle) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_privacy-shardd"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("shardd spawns");
        let mut stdin = child.stdin.take().expect("piped stdin");
        write_frame(&mut stdin, &frame).expect("skewed frame is written");
        drop(stdin);
        let mut stdout = child.stdout.take().expect("piped stdout");
        let mut fatal = None;
        while let Some(reply) = read_frame(&mut stdout).expect("replies frame cleanly") {
            fatal = Some(Message::decode(&reply).expect("reply decodes at current version"));
        }
        match fatal {
            Some(Message::Fatal { code, message }) => {
                assert_eq!(code, exit::PROTOCOL_FATAL as u32, "wrong fatal code: {message}");
                assert!(message.contains(needle), "diagnostic does not name the cause: {message}");
            }
            other => panic!("expected a Fatal reply, got {other:?}"),
        }
        let status = child.wait().expect("shardd exits");
        assert_eq!(status.code(), Some(exit::PROTOCOL_FATAL));
    }
}

#[test]
fn corrupt_checkpoint_falls_back_a_generation_and_matches() {
    let fixture = fixture();
    let expected = reference_alerts(fixture, &fixture.batches);
    // Corrupt worker 0's second checkpoint file on disk, then kill the
    // worker afterwards: the restart must detect the corruption via the
    // frame checksum, fall back to the `.prev` generation and replay the
    // longer suffix.
    let plan = FaultPlan::none().corrupt_checkpoint(0, 2).kill_after(0, 0, 120);
    let (alerts, stats) = distributed_alerts(fixture, &fixture.batches, config("corrupt", 2, plan));
    assert_eq!(alerts, expected);
    assert_eq!(stats.corruptions_injected, 1);
    let recovered = stats.recoveries.iter().find(|r| r.worker == 0).expect("worker 0 restarted");
    if recovered.fell_back {
        assert!(
            !stats.checkpoint_warnings.is_empty(),
            "a generation fallback must be reported as a warning"
        );
    }
}

#[test]
fn a_launch_over_an_earlier_runs_checkpoints_is_refused() {
    // The retained suffix and the registry die with the supervisor that
    // held them, so a checkpoint an earlier run left behind cannot be
    // resumed soundly: a second launch over the same directory, at the same
    // or another worker count, must refuse rather than resume it.
    let fixture = fixture();
    let first = config("reuse", 2, FaultPlan::none());
    let dir = first.checkpoint_dir.clone();
    let mut monitor =
        DistributedMonitor::launch("Tiny", &fixture.system, fixture.fingerprint, first)
            .expect("fleet launches over an empty directory");
    for user in &fixture.users {
        monitor.register_user(user).expect("registration routes");
    }
    // Checkpoints land through the fixture's `checkpoint_every = 3`, each
    // worker on its own phase of the interval: six batches give both
    // workers two generations, and `shutdown` waits for the last of them.
    for batch in &fixture.batches[..6] {
        monitor.submit_batch(batch).expect("batch is processed");
    }
    monitor.shutdown().expect("clean shutdown");
    for w in 0..2 {
        assert!(dir.join(format!("worker-{w}.ckpt.prev")).exists(), "worker {w}: one generation");
    }
    for workers in [2, 1, 4] {
        let mut again = config("reuse", workers, FaultPlan::none());
        again.checkpoint_dir = dir.clone();
        let error = DistributedMonitor::launch("Tiny", &fixture.system, fixture.fingerprint, again)
            .expect_err("a used checkpoint directory must be refused");
        assert!(
            matches!(&error, DistribError::Config { detail } if detail.contains("earlier run")),
            "{workers} workers: unexpected error: {error}"
        );
    }
    // The previous generation alone is a leftover too.
    std::fs::remove_file(dir.join("worker-0.ckpt")).expect("live generation exists");
    std::fs::remove_file(dir.join("worker-1.ckpt")).expect("live generation exists");
    let mut again = config("reuse", 2, FaultPlan::none());
    again.checkpoint_dir = dir.clone();
    assert!(matches!(
        DistributedMonitor::launch("Tiny", &fixture.system, fixture.fingerprint, again),
        Err(DistribError::Config { .. })
    ));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn restart_budget_is_not_renewed_by_a_single_ack_per_incarnation() {
    let fixture = fixture();
    // A worker that limps through exactly one batch per incarnation and
    // then dies is not making progress: the supervisor must run out of
    // restart budget (a typed RestartsExhausted error), not crash-loop
    // behind a budget renewed by every lone ack. With one worker each
    // super-batch is one 16-event sub-batch, so a kill at 20 events lands
    // after the first ack of every incarnation — including replays.
    let mut plan = FaultPlan::none();
    for incarnation in 0..10 {
        plan = plan.kill_after(0, incarnation, 20);
    }
    let config = config("budget", 1, plan);
    let dir = config.checkpoint_dir.clone();
    let mut monitor =
        DistributedMonitor::launch("Tiny", &fixture.system, fixture.fingerprint, config)
            .expect("fleet launches");
    for user in &fixture.users {
        monitor.register_user(user).expect("registration routes");
    }
    let mut outcome = Ok(());
    for batch in &fixture.batches {
        if let Err(error) = monitor.submit_batch(batch) {
            outcome = Err(error);
            break;
        }
    }
    drop(monitor);
    let _ = std::fs::remove_dir_all(dir);
    let error = outcome.expect_err("one ack per incarnation must exhaust the restart budget");
    assert!(
        matches!(error, DistribError::RestartsExhausted { worker: 0, .. }),
        "expected RestartsExhausted, got: {error}"
    );
}

#[test]
fn double_generation_corruption_recovers_by_full_replay() {
    let fixture = fixture();
    let expected = reference_alerts(fixture, &fixture.batches);
    // Corrupt the worker's first two checkpoints — every generation that
    // ever reaches disk is undecodable. Read-back validation must refuse
    // to advance coverage past either of them (pruning the replay suffix
    // against an unreadable checkpoint is exactly how the data gets
    // lost), so when the kill lands before the third checkpoint, the
    // replacement restarts clean and replays the entire retained suffix.
    let plan =
        FaultPlan::none().corrupt_checkpoint(0, 1).corrupt_checkpoint(0, 2).kill_after(0, 0, 100);
    let mut config = config("doublecorrupt", 1, plan);
    // One worker, 16-event sub-batches, checkpoints at batches 3 and 6
    // (events 48 and 96): the kill at event 100 lands after the second
    // corruption and before a third (valid) checkpoint could exist.
    config.checkpoint_every = 3;
    let (alerts, stats) = distributed_alerts(fixture, &fixture.batches, config);
    assert_eq!(alerts, expected);
    assert_eq!(stats.corruptions_injected, 2);
    assert!(
        stats.checkpoint_warnings.iter().any(|w| w.contains("read-back")),
        "read-back validation must record the unusable checkpoints: {:?}",
        stats.checkpoint_warnings
    );
    let recovery = stats.recoveries.iter().find(|r| r.worker == 0).expect("worker 0 restarted");
    assert_eq!(
        recovery.resumed_from_batch, 0,
        "with both generations unreadable the resume point is a clean start"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: for an **arbitrary** fault schedule — kills,
    /// stalls, dropped acks and checkpoint corruptions at generated points,
    /// over a generated worker count and checkpoint period — the merged
    /// distributed stream equals the in-process run.
    #[test]
    fn arbitrary_fault_schedules_preserve_the_alert_stream(
        workers in 1usize..=3,
        checkpoint_every in 1u64..=4,
        kill_worker in 0usize..3,
        kill_events in 1u64..200,
        second_fault in 0usize..4,
        drop_ordinal in 1u64..6,
        corrupt_ordinal in 1u64..4,
    ) {
        let fixture = fixture();
        let expected = reference_alerts(fixture, &fixture.batches);
        let mut plan = FaultPlan::none().kill_after(kill_worker % workers, 0, kill_events);
        plan = match second_fault {
            0 => plan,
            1 => plan.kill_after((kill_worker + 1) % workers, 0, kill_events / 2 + 1),
            2 => plan.drop_ack((kill_worker + 1) % workers, 0, drop_ordinal),
            _ => plan.corrupt_checkpoint(kill_worker % workers, corrupt_ordinal),
        };
        let mut config = config("prop", workers, plan);
        config.checkpoint_every = checkpoint_every;
        config.ack_timeout = Duration::from_millis(600);
        let (alerts, _stats) = distributed_alerts(fixture, &fixture.batches, config);
        prop_assert_eq!(alerts, expected);
    }
}

/// Supervisor misconfiguration surfaces as typed errors, not panics.
#[test]
fn bad_configs_are_typed_errors() {
    let fixture = fixture();
    let mut zero_workers = config("cfg0", 2, FaultPlan::none());
    zero_workers.workers = 0;
    let error =
        DistributedMonitor::launch("Tiny", &fixture.system, fixture.fingerprint, zero_workers)
            .expect_err("zero workers is unrunnable");
    assert!(error.to_string().contains("worker count"));

    let mut zero_window = config("cfgw", 2, FaultPlan::none());
    zero_window.window = 0;
    let error =
        DistributedMonitor::launch("Tiny", &fixture.system, fixture.fingerprint, zero_window)
            .expect_err("zero window is unrunnable");
    assert!(error.to_string().contains("window"));
}

/// A fingerprint the workers cannot reproduce is refused at launch: the
/// fleet must never run against a model that disagrees with the supervisor.
#[test]
fn fingerprint_mismatch_refuses_to_launch() {
    let fixture = fixture();
    let config = config("fpr", 1, FaultPlan::none());
    let dir = config.checkpoint_dir.clone();
    let error = DistributedMonitor::launch("Tiny", &fixture.system, 0xDEAD_BEEF, config)
        .expect_err("mismatched fingerprint must refuse");
    let _ = std::fs::remove_dir_all(dir);
    let message = error.to_string();
    assert!(
        message.contains("terminal") || message.contains("fingerprint"),
        "unexpected error: {message}"
    );
}
