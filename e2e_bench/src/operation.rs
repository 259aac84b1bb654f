//! The operation-time workloads: a log goes in through `PipelineRunner`,
//! alerts and durable checkpoints come out.
//!
//! A run alternates two kinds of phase, each on a freshly set-up monitor,
//! and reports medians over them:
//!
//! * **capacity** (closed loop): the log is fully written before the pass
//!   starts and `LiveSource::pipe` reads it until EOF, through the final
//!   drain and checkpoint.
//! * **paced** (open loop): a writer thread appends line `i` to a tailed
//!   file at `t0 + i / rate`, whether or not the pipeline keeps up. An
//!   alert's latency runs from the due time of the line that raised it to
//!   its arrival in `on_alert`.
//!
//! Every phase is gated: its alert digest must equal the offline oracle for
//! the lines it offered, every line must be ingested and none quarantined.

use crate::corpus::{Corpus, CorpusSpec, Prefix};
use crate::measure::{self, AlertDigest, Schedule};
use crate::trace::{self, TimedReader, TimedSink, Tracer};
use crate::{Outcome, RunContext};
use privacy_mde::core::{casestudy, PrivacySystem};
use privacy_mde::distrib::CheckpointStore;
use privacy_mde::ingest::{FieldMapping, LiveSource};
use privacy_mde::lts::LtsIndex;
use privacy_mde::model::{ServiceId, UserProfile};
use privacy_mde::pipeline::{
    IndexedSink, PipelineCheckpoint, PipelineConfig, PipelineReport, PipelineRunner,
};
use privacy_mde::runtime::{IndexedMonitor, MonitorSnapshot};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events per monitor batch: the `privacy-monitor` CLI's default.
const BATCH: usize = 1024;
/// Untraced capacity passes per run, whatever `--seconds` allows.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 25;
/// How long a paced phase may take to drain after its last line.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One operation workload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OperationSpec {
    pub(crate) corpus: CorpusSpec,
    /// Events between pipeline checkpoints; 0 checkpoints only at drain.
    pub(crate) checkpoint_every: u64,
    /// Lines of each capacity pass.
    pub(crate) capacity_lines: u64,
    /// Lines per second offered in the paced phase.
    pub(crate) paced_rate: f64,
    /// Lines of the unmeasured warm-up pass.
    pub(crate) warmup_lines: u64,
}

/// What a set-up took, split by step.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetupTimes {
    pub(crate) total: f64,
    pub(crate) generate: f64,
    pub(crate) index: f64,
    pub(crate) states: usize,
}

/// The healthcare monitor of the operation workloads: LTS, index,
/// `IndexedMonitor::new` and the registered population.
pub(crate) fn build_monitor(
    system: &PrivacySystem,
    profiles: &[UserProfile],
) -> Result<(IndexedMonitor, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let lts = system.generate_lts().map_err(|error| format!("generating the LTS: {error}"))?;
    times.generate = start.elapsed().as_secs_f64();
    times.states = lts.state_count();
    let start = Instant::now();
    let index = Arc::new(LtsIndex::build(&lts));
    times.index = start.elapsed().as_secs_f64();
    let mut monitor = IndexedMonitor::new(system.catalog().clone(), system.policy().clone(), index);
    for profile in profiles {
        monitor.register_user(profile);
    }
    Ok((monitor, times))
}

fn services(system: &PrivacySystem) -> Vec<ServiceId> {
    system.catalog().services().map(|s| s.id().clone()).collect()
}

/// Sets up the monitor under test — the timed `setup_s` — from the model
/// onwards.
fn set_up(corpus: &Corpus) -> Result<(IndexedSink, SetupTimes), String> {
    let start = Instant::now();
    let system = casestudy::healthcare().map_err(|error| format!("healthcare model: {error}"))?;
    let (monitor, mut times) = build_monitor(&system, &corpus.profiles)?;
    let sink = IndexedSink::new(monitor, services(&system), false);
    times.total = start.elapsed().as_secs_f64();
    Ok((sink, times))
}

/// The pipeline as the `privacy-monitor` CLI runs it by default: batches of
/// 1024 and the default 25 ms poll of an idle source.
fn pipeline_config(spec: &OperationSpec, checkpoint: PathBuf) -> PipelineConfig {
    let mut config = PipelineConfig::new(FieldMapping::canonical());
    config.batch = BATCH;
    config.checkpoint = Some(checkpoint);
    config.checkpoint_every_events = spec.checkpoint_every;
    config
}

/// What one phase measured.
#[derive(Debug, Default)]
struct Phase {
    secs: f64,
    events: u64,
    offered: u64,
    quarantined: u64,
    digest: AlertDigest,
    peak_mb: f64,
}

impl Phase {
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.secs
    }

    /// Failed records: quarantined, or offered and never ingested.
    fn failed(&self) -> u64 {
        self.quarantined + self.offered.saturating_sub(self.events)
    }

    /// The correctness gates of one phase.
    fn check(&self, what: &str, prefix: Prefix, outcome: &mut Outcome) {
        outcome.attempted += self.offered;
        outcome.failed += self.failed();
        if self.digest != prefix.digest {
            outcome.errors.push(format!(
                "{what}: alerts {} differ from the oracle's {}",
                self.digest, prefix.digest
            ));
        }
        if self.events != prefix.lines || self.quarantined != 0 {
            outcome.errors.push(format!(
                "{what}: {} of {} lines ingested, {} quarantined",
                self.events, prefix.lines, self.quarantined
            ));
        }
    }

    fn absorb(&mut self, report: &PipelineReport) {
        self.events = report.events;
        self.quarantined = report.skipped;
    }
}

/// One closed-loop pass over `prefix`, optionally traced.
fn capacity_pass(
    spec: &OperationSpec,
    corpus: &Corpus,
    prefix: Prefix,
    monitor: &mut IndexedSink,
    work: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Phase, String> {
    let source = std::fs::File::open(&corpus.path)
        .map_err(|error| format!("opening {}: {error}", corpus.path.display()))?
        .take(prefix.bytes);
    let config = pipeline_config(spec, work.join("pipeline.ckpt"));
    let follow = config.follow.clone();
    let runner = PipelineRunner::new(config);
    let mut phase = Phase { offered: prefix.lines, ..Phase::default() };
    let mut scratch = String::new();
    let digest = &mut phase.digest;
    let on_alert = |alert: &_| digest.add(alert, &mut scratch);

    measure::reset_peak_rss()?;
    let start = Instant::now();
    let report = match tracer {
        None => runner.run(LiveSource::pipe(Box::new(source), follow), monitor, on_alert),
        Some(tracer) => {
            let root = tracer.open("pipeline.run", None);
            let reader = TimedReader::new(source, Arc::clone(tracer), root);
            let mut sink = TimedSink::new(monitor, tracer, root);
            let report =
                runner.run(LiveSource::pipe(Box::new(reader), follow), &mut sink, on_alert);
            tracer.close(root);
            report
        }
    }
    .map_err(|error| format!("pipeline: {error}"))?;
    phase.secs = start.elapsed().as_secs_f64();
    phase.peak_mb = measure::status_mb("VmHWM")?;
    phase.absorb(&report);
    Ok(phase)
}

/// The paced writer: appends each line of `prefix` to `tail` when it falls
/// due, several due lines per write. Returns each line's lateness in ms.
fn write_paced(
    corpus: &Corpus,
    prefix: Prefix,
    tail: &Path,
    schedule: Schedule,
) -> Result<Vec<f64>, String> {
    let mut lines = BufReader::new(
        std::fs::File::open(&corpus.path)
            .map_err(|error| format!("opening {}: {error}", corpus.path.display()))?,
    );
    let mut out = std::fs::OpenOptions::new()
        .append(true)
        .open(tail)
        .map_err(|error| format!("opening {}: {error}", tail.display()))?;
    let mut lateness = Vec::with_capacity(prefix.lines as usize);
    let mut block = Vec::new();
    let mut next = 0u64;
    while next < prefix.lines {
        let due = schedule.due_by(Instant::now()).min(prefix.lines);
        if due <= next {
            std::thread::sleep(schedule.due(next).saturating_duration_since(Instant::now()));
            continue;
        }
        block.clear();
        for _ in next..due {
            lines
                .read_until(b'\n', &mut block)
                .map_err(|error| format!("reading {}: {error}", corpus.path.display()))?;
        }
        out.write_all(&block).map_err(|error| format!("appending to the tail: {error}"))?;
        let sent = Instant::now();
        lateness.extend((next..due).map(|i| schedule.lateness(i, sent).as_secs_f64() * 1e3));
        next = due;
    }
    Ok(lateness)
}

/// One open-loop phase over `prefix` at `spec.paced_rate` lines per second.
/// Returns the phase, each alert's latency in ms, and each line's lateness.
fn paced_pass(
    spec: &OperationSpec,
    corpus: &Corpus,
    prefix: Prefix,
    monitor: &mut IndexedSink,
    work: &Path,
) -> Result<(Phase, Vec<f64>, Vec<f64>), String> {
    let tail = work.join("paced.log");
    std::fs::write(&tail, b"").map_err(|error| format!("creating {}: {error}", tail.display()))?;
    let config = pipeline_config(spec, work.join("pipeline.ckpt"));
    let source = LiveSource::tail(&tail, config.follow.clone());
    let runner = PipelineRunner::new(config);
    let progress = runner.progress();
    let stop = runner.stop_handle();
    let mut phase = Phase { offered: prefix.lines, ..Phase::default() };
    let mut arrivals = Vec::new();
    let mut scratch = String::new();

    measure::reset_peak_rss()?;
    // A short lead lets the tail open the file before line 0 is due.
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(20), spec.paced_rate);
    let (report, written) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let written = write_paced(corpus, prefix, &tail, schedule).and_then(|lateness| {
                let waited = Instant::now();
                while progress.ingested.load(Ordering::Relaxed) < prefix.lines {
                    if waited.elapsed() > DRAIN_TIMEOUT {
                        return Err(format!(
                            "paced: {} of {} lines ingested {DRAIN_TIMEOUT:?} after the last write",
                            progress.ingested.load(Ordering::Relaxed),
                            prefix.lines
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(lateness)
            });
            // Raised even when the writer failed, or the pipeline would
            // follow a tail that never ends.
            stop.store(true, Ordering::Relaxed);
            written
        });
        let report = runner.run(source, monitor, |alert| {
            arrivals.push((alert.sequence(), Instant::now()));
            phase.digest.add(alert, &mut scratch);
        });
        (report, writer.join().expect("the paced writer does not panic"))
    });
    let report = report.map_err(|error| format!("pipeline: {error}"))?;
    let lateness = written?;
    phase.peak_mb = measure::status_mb("VmHWM")?;
    phase.absorb(&report);

    let mut latencies = Vec::with_capacity(arrivals.len());
    for (sequence, arrived) in arrivals {
        let line = sequence
            .checked_sub(corpus.first_sequence)
            .ok_or_else(|| format!("paced: an alert for sequence {sequence} precedes the log"))?;
        latencies.push(arrived.saturating_duration_since(schedule.due(line)).as_secs_f64() * 1e3);
    }
    Ok((phase, latencies, lateness))
}

/// How many cycles of capacity passes followed by a paced phase a run is
/// split into — each at least five seconds long — so both kinds of sample
/// are spread over the whole run and a burst of host noise reaches only
/// some of them.
fn cycles(seconds: f64) -> usize {
    ((seconds / 5.0) as usize).max(1)
}

/// Runs one operation workload.
pub(crate) fn run(spec: &OperationSpec, ctx: &RunContext) -> Result<Outcome, String> {
    let cycles = cycles(ctx.seconds);
    let capacity_secs = ctx.seconds * 0.5 / cycles as f64;
    let paced_secs = ctx.seconds * if ctx.trace { 0.25 } else { 0.5 } / cycles as f64;
    let paced_lines = (spec.paced_rate * paced_secs).round() as u64;
    let corpus = Corpus::build(
        ctx.workload,
        spec.corpus,
        ctx.seed,
        &ctx.work,
        spec.capacity_lines.max(paced_lines),
        &[spec.warmup_lines, spec.capacity_lines, paced_lines],
    )?;
    let floor_mb = measure::status_mb("VmRSS")?;

    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut peaks_mb = Vec::new();
    let fresh = |setups: &mut Vec<SetupTimes>| -> Result<IndexedSink, String> {
        let (monitor, times) = set_up(&corpus)?;
        setups.push(times);
        Ok(monitor)
    };

    // Warm-up: unmeasured, but gated like every phase. Its set-up, the
    // first, shows the monitor's resident size on a fresh heap.
    let warmup = corpus.prefix(spec.warmup_lines);
    let before_mb = measure::status_mb("VmRSS")?;
    let mut monitor = fresh(&mut setups)?;
    let resident_mb = measure::status_mb("VmRSS")? - before_mb;
    let phase = capacity_pass(spec, &corpus, warmup, &mut monitor, &ctx.work, None)?;
    drop(monitor);
    phase.check("warm-up", warmup, &mut outcome);

    // Cycles of capacity passes (traced runs alternate untraced and traced
    // ones) and one paced phase, each on a fresh monitor.
    let full = corpus.prefix(spec.capacity_lines);
    let paced = corpus.prefix(paced_lines);
    let tracer = Tracer::new();
    let (mut untraced, mut traced, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latencies, mut lateness) = (Vec::new(), Vec::new());
    for cycle in 0..cycles {
        let deadline = Instant::now() + Duration::from_secs_f64(capacity_secs);
        let least = if ctx.trace {
            2
        } else if cycle + 1 == cycles {
            MIN_PASSES.saturating_sub(untraced.len()).max(1)
        } else {
            1
        };
        for pass in 0.. {
            if pass >= least && (Instant::now() >= deadline || untraced.len() >= MAX_PASSES) {
                break;
            }
            let traced_pass = ctx.trace && untraced.len() > traced.len();
            let mut monitor = fresh(&mut setups)?;
            let phase = capacity_pass(
                spec,
                &corpus,
                full,
                &mut monitor,
                &ctx.work,
                traced_pass.then_some(&tracer),
            )?;
            drop(monitor);
            phase.check("capacity", full, &mut outcome);
            peaks_mb.push(phase.peak_mb);
            if traced_pass {
                traced.push(phase.events_per_s());
                traced_walls.push(phase.secs);
            } else {
                untraced.push(phase.events_per_s());
            }
        }

        let mut monitor = fresh(&mut setups)?;
        let (phase, phase_latencies, phase_lateness) =
            paced_pass(spec, &corpus, paced, &mut monitor, &ctx.work)?;
        drop(monitor);
        phase.check("paced", paced, &mut outcome);
        peaks_mb.push(phase.peak_mb);
        latencies.push(phase_latencies);
        lateness.extend(phase_lateness);
    }

    let name = ctx.workload.name();
    let late_p99 = measure::percentile(&lateness, 99.0)?;
    eprintln!(
        "{name}: {cycles} paced phases of {} lines at {} lines/s: writer late p99 {:.3} ms (n={})",
        paced.lines, spec.paced_rate, late_p99.value, late_p99.n
    );
    if late_p99.value >= 1.0 {
        eprintln!("{name}: warning: the paced writer ran late; latencies include its delay");
    }
    let mut rates = untraced.clone();
    rates.sort_by(f64::total_cmp);
    eprintln!(
        "{name}: {} capacity passes of {} lines, events/s {:?}",
        rates.len(),
        full.lines,
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );

    let median_setup = |pick: fn(&SetupTimes) -> f64| {
        measure::median(&setups.iter().map(pick).collect::<Vec<_>>())
    };
    if !ctx.trace {
        outcome.metric("throughput_per_s", measure::pooled_rate(&untraced));
        outcome.sampled("latency_p50_ms", measure::median_percentile(&latencies, 50.0)?);
        outcome.sampled("latency_p99_ms", measure::median_percentile(&latencies, 99.0)?);
        outcome.metric("peak_rss_mb", measure::median(&peaks_mb));
        outcome.metric("setup_s", median_setup(|t| t.total));
        return Ok(outcome);
    }

    // Per-layer metrics.
    let on_time = lateness.iter().filter(|&&late| late < 1.0).count();
    outcome.metric("loadgen.on_time_share", on_time as f64 / lateness.len() as f64);
    outcome.metric("loadgen.rss_mb", floor_mb);
    outcome.metric("lts.generate_ms", median_setup(|t| t.generate) * 1e3);
    outcome.metric("lts.states_per_s", setups[0].states as f64 / median_setup(|t| t.generate));
    outcome.metric("lts.index_build_ms", median_setup(|t| t.index) * 1e3);
    outcome.metric(
        "trace.overhead_share",
        1.0 - measure::pooled_rate(&traced) / measure::pooled_rate(&untraced),
    );

    let spans = tracer.spans();
    let roots: Vec<usize> =
        (0..spans.len()).filter(|&id| spans[id].name == "pipeline.run").collect();
    let mut read_secs = 0.0;
    let mut sink_secs = 0.0;
    for &root in &roots {
        let totals = trace::self_times(&spans, root);
        let get = |name| totals.get(name).map_or(0.0, |&(secs, _)| secs);
        read_secs += get("read");
        sink_secs += get("sink.ingest") + get("sink.snapshot") + get("sink.flush");
    }
    let passes = roots.len() as f64;
    outcome.metric("ingest.read_mb_per_s", passes * full.bytes as f64 / 1e6 / read_secs);
    outcome.metric("pipeline.monitor_busy_share", sink_secs / traced_walls.iter().sum::<f64>());

    // The serial replay of the same bytes, in process, then a resume from
    // its final checkpoint.
    let system = casestudy::healthcare().map_err(|error| format!("healthcare model: {error}"))?;
    let (monitor, _) = build_monitor(&system, &corpus.profiles)?;
    outcome.metric("runtime.resident_mb", resident_mb);
    let mut sink = IndexedSink::new(monitor, services(&system), false);
    let store = CheckpointStore::new(ctx.work.join("replay.ckpt"));
    let replay = trace::replay(
        &corpus.path,
        full,
        &mut sink,
        BATCH,
        spec.checkpoint_every,
        &store,
        &tracer,
    )?;
    let spans = tracer.spans();
    let totals = trace::self_times(&spans, replay.root);
    let get = |name| totals.get(name).map_or(0.0, |&(secs, _)| secs);
    let events = replay.events as f64;
    let users = sink.monitor().user_count() as f64;
    outcome.metric("ingest.assemble_ev_per_s", events / get("assemble"));
    outcome.metric("ingest.parse_ev_per_s", events / get("parse"));
    outcome.metric("ingest.quarantined", replay.quarantined as f64);
    outcome.metric("runtime.monitor_ev_per_s", events / get("monitor"));
    outcome.metric(
        "runtime.snapshot_capture_users_per_s",
        users * replay.checkpoints as f64 / get("snapshot.capture"),
    );
    outcome.metric(
        "runtime.snapshot_encode_mb_per_s",
        replay.snapshot_bytes as f64 / 1e6 / get("snapshot.encode"),
    );
    outcome.metric(
        "pipeline.checkpoint_frame_mb_per_s",
        replay.checkpoint_bytes as f64 / 1e6 / get("checkpoint.frame"),
    );
    outcome.metric(
        "runtime.snapshot_bytes_per_user",
        replay.snapshot_bytes as f64 / replay.checkpoints as f64 / users,
    );
    outcome.metric(
        "distrib.store_write_mb_per_s",
        replay.checkpoint_bytes as f64 / 1e6 / get("store.write"),
    );
    outcome.metric("distrib.checkpoint_bytes_per_event", replay.checkpoint_bytes as f64 / events);
    let shares = trace::shares(&spans, replay.root);
    eprintln!("{}: replay breakdown: {}", ctx.workload.name(), trace::describe_shares(&shares));
    outcome.metric("trace.unattributed_share", trace::unattributed(&shares));
    let replayed = Phase {
        secs: 0.0,
        events: replay.events,
        offered: full.lines,
        quarantined: replay.quarantined,
        digest: replay.alerts,
        ..Phase::default()
    };
    replayed.check("replay", full, &mut outcome);

    let lts = system.generate_lts().map_err(|error| format!("generating the LTS: {error}"))?;
    let index = Arc::new(LtsIndex::build(&lts));
    let start = Instant::now();
    let resumed = resume(&system, index, &store)?;
    outcome.metric("runtime.resume_users_per_s", users / start.elapsed().as_secs_f64());
    let live = sink.monitor();
    for profile in corpus.profiles.iter().step_by(97) {
        if resumed.state_of(profile.id()) != live.state_of(profile.id()) {
            outcome.errors.push(format!("resume: the state of `{}` diverges", profile.id()));
        }
    }
    if let Some(path) = &ctx.trace_out {
        tracer.write_ndjson(path)?;
    }
    Ok(outcome)
}

/// The restart path: load the newest valid checkpoint generation, decode
/// the pipeline frame and the embedded snapshot, resume the monitor.
fn resume(
    system: &PrivacySystem,
    index: Arc<LtsIndex>,
    store: &CheckpointStore,
) -> Result<IndexedMonitor, String> {
    let (loaded, warnings) = store.load_latest(|bytes| {
        PipelineCheckpoint::from_bytes(bytes).map(|_| ()).map_err(|error| error.to_string())
    });
    if let Some(warning) = warnings.first() {
        return Err(format!("resume: {warning}"));
    }
    let (bytes, _) = loaded.ok_or("resume: no checkpoint generation")?;
    let checkpoint =
        PipelineCheckpoint::from_bytes(&bytes).map_err(|error| format!("resume: {error}"))?;
    let snapshot = MonitorSnapshot::from_bytes(&checkpoint.snapshot)
        .map_err(|error| format!("resume: {error}"))?;
    IndexedMonitor::resume_from(system.catalog().clone(), system.policy().clone(), index, &snapshot)
        .map_err(|error| format!("resume: {error}"))
}
