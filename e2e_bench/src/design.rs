//! The design-time workload: the paper's analysis pass over the healthcare
//! model with potential reads explored — LTS generation, the analysis
//! index, per-user disclosure reports and policy compliance.
//!
//! A request is one user's audit report: `DisclosureAnalysis::assess` for
//! the user plus `check_lts_indexed` of the hygiene policy. Clients (one
//! per core) issue requests back to back — a closed loop — and every
//! report is checked against the one computed before timing; the check is
//! the clients' think time and counts towards neither latency nor
//! throughput.

use crate::measure;
use crate::trace::{self, Tracer};
use crate::{Outcome, RunContext};
use privacy_mde::compliance::{
    check_lts_indexed, check_lts_scan, ActorMatcher, ComplianceReport, FieldMatcher, PrivacyPolicy,
    Statement,
};
use privacy_mde::core::{casestudy, PrivacySystem};
use privacy_mde::lts::{ActionKind, GeneratorConfig, Lts, LtsIndex};
use privacy_mde::model::{ActorId, Catalog, FieldId, ServiceId, UserProfile};
use privacy_mde::risk::{DisclosureAnalysis, DisclosureReport};
use privacy_mde::synth::{random_profiles, ProfileGeneratorConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One design-time workload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DesignSpec {
    pub(crate) potential_reads: bool,
    /// The LTS the model must generate.
    pub(crate) states: usize,
    pub(crate) transitions: usize,
    /// Users whose reports the requests cycle through.
    pub(crate) users: usize,
    /// Users checked against `assess_scan` before timing.
    pub(crate) scan_users: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub(crate) setups: usize,
}

/// The designer's artefacts after set-up.
struct Design {
    system: PrivacySystem,
    lts: Lts,
    index: LtsIndex,
}

/// Set-up: the model, `generate_lts_with` and `LtsIndex::build`, with the
/// generation and index times.
fn set_up(spec: &DesignSpec) -> Result<(Design, f64, f64), String> {
    let system = casestudy::healthcare().map_err(|error| format!("healthcare model: {error}"))?;
    let mut config = GeneratorConfig::default().with_max_states(5_000_000);
    config.explore_potential_reads = spec.potential_reads;
    let start = Instant::now();
    let lts = system.generate_lts_with(&config).map_err(|error| format!("generation: {error}"))?;
    let generate = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let index = LtsIndex::build(&lts);
    Ok((Design { system, lts, index }, generate, start.elapsed().as_secs_f64()))
}

/// A multi-statement hygiene policy over the catalog's own vocabulary,
/// built like `analysis_scaling`'s for a potential-read LTS.
fn hygiene_policy(catalog: &Catalog) -> PrivacyPolicy {
    let actors: Vec<ActorId> = catalog.identifying_actors().map(|a| a.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let mut policy = PrivacyPolicy::new("e2e hygiene policy");
    for (i, actor) in actors.iter().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("NO-DELETE-{i}"),
            format!("{actor} never deletes records"),
            ActorMatcher::only([actor.clone()]),
            Some(ActionKind::Delete),
            FieldMatcher::Any,
        ));
        policy.add_statement(Statement::forbid(
            format!("NO-DELETE-CORE-{i}"),
            format!("{actor} never deletes the core record"),
            ActorMatcher::only([actor.clone()]),
            Some(ActionKind::Delete),
            FieldMatcher::only(fields.iter().take(3).cloned()),
        ));
    }
    for (i, action) in ActionKind::ALL.iter().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("NO-AUDITOR-{i}"),
            format!("the external auditor never performs {action}"),
            ActorMatcher::only([ActorId::new("ExternalAuditor")]),
            Some(*action),
            FieldMatcher::Any,
        ));
    }
    policy.add_statement(Statement::require_erasure(
        "ERASE-ALL",
        "every processed field must be erasable",
        FieldMatcher::Any,
    ));
    for (i, field) in fields.iter().enumerate() {
        policy.add_statement(Statement::require_erasure(
            format!("ERASE-{i}"),
            format!("{field} must be erasable on request"),
            FieldMatcher::only([field.clone()]),
        ));
        policy.add_statement(Statement::max_exposure(
            format!("EXPOSE-{i}"),
            format!("at most two actors may identify {field}"),
            field.clone(),
            2,
        ));
    }
    policy
}

/// A digest of everything a disclosure report says. The oracle keeps one
/// per user rather than the reports: over this LTS each finding lists
/// thousands of annotated transitions, and stored reports would dwarf the
/// memory the audit itself needs.
fn report_digest(report: &DisclosureReport) -> u64 {
    let mut hasher = DefaultHasher::new();
    report.user().id().hash(&mut hasher);
    report.allowed_actors().hash(&mut hasher);
    report.non_allowed_actors().hash(&mut hasher);
    for finding in report.findings() {
        (finding.actor(), finding.field(), finding.datastore()).hash(&mut hasher);
        (finding.severity(), finding.likelihood(), finding.level()).hash(&mut hasher);
        finding.probability().to_bits().hash(&mut hasher);
        finding.exposed_states().hash(&mut hasher);
        // The transition lists dominate a report; fold them with one
        // multiply per id rather than through the general hasher.
        let fold =
            finding.annotated_transitions().iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, id| {
                (acc ^ id.0 as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        (finding.annotated_transitions().len(), fold).hash(&mut hasher);
    }
    hasher.finish()
}

/// What a closed loop measured.
#[derive(Debug, Default)]
struct Loop {
    clients: usize,
    latencies_ms: Vec<f64>,
    mismatches: u64,
    assess_secs: f64,
    check_secs: f64,
}

impl Loop {
    /// Requests per second the clients kept the library busy with: the
    /// request count over the clients' summed latency, per client. The
    /// oracle comparison between requests is the clients' think time.
    fn rate(&self) -> f64 {
        let busy_secs = self.latencies_ms.iter().sum::<f64>() / 1e3;
        self.latencies_ms.len() as f64 * self.clients as f64 / busy_secs
    }

    /// Adds another loop's requests, pooling them with this one's.
    fn absorb(&mut self, other: Loop) {
        self.latencies_ms.extend(other.latencies_ms);
        self.mismatches += other.mismatches;
        self.assess_secs += other.assess_secs;
        self.check_secs += other.check_secs;
    }
}

/// Requests back to back from `clients` threads until `duration` is spent.
/// Traced loops also time each layer call.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    design: &Design,
    analysis: &DisclosureAnalysis<'_>,
    policy: &PrivacyPolicy,
    users: &[UserProfile],
    expected: &[u64],
    expected_check: &ComplianceReport,
    clients: usize,
    duration: Duration,
    traced: bool,
) -> Loop {
    let next = AtomicU64::new(0);
    let deadline = Instant::now() + duration;
    let per_client: Vec<Loop> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut own = Loop::default();
                    while Instant::now() < deadline {
                        let k = next.fetch_add(1, Ordering::Relaxed) as usize % users.len();
                        let begun = Instant::now();
                        let report = analysis.assess(&design.index, &users[k]);
                        let assessed = Instant::now();
                        let check = check_lts_indexed(&design.lts, &design.index, policy);
                        let done = Instant::now();
                        if traced {
                            own.assess_secs += (assessed - begun).as_secs_f64();
                            own.check_secs += (done - assessed).as_secs_f64();
                        }
                        own.latencies_ms.push((done - begun).as_secs_f64() * 1e3);
                        if report_digest(&report) != expected[k] || check != *expected_check {
                            own.mismatches += 1;
                        }
                    }
                    own
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("a client does not panic")).collect()
    });
    let mut total = Loop { clients, ..Loop::default() };
    per_client.into_iter().for_each(|own| total.absorb(own));
    total
}

/// Runs the design-time workload: `setups` rounds of set-up followed by
/// requests, each round on a freshly generated LTS.
pub(crate) fn run(spec: &DesignSpec, ctx: &RunContext) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let catalog = casestudy::healthcare().map_err(|error| format!("healthcare model: {error}"))?;
    let users = random_profiles(&ProfileGeneratorConfig {
        count: spec.users,
        seed: ctx.seed,
        services: catalog.catalog().services().map(|s| s.id().clone()).collect::<Vec<ServiceId>>(),
        consent_probability: 0.5,
        fields: catalog.catalog().fields().map(|f| f.id().clone()).collect(),
        sensitivity_probability: 0.6,
    });
    let policy = hygiene_policy(catalog.catalog());
    drop(catalog);
    let floor_mb = measure::status_mb("VmRSS")?;
    let clients = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let round = ctx.seconds / spec.setups as f64;

    // The first round's answers are the oracle for every later round; they
    // are checked against the scan paths once that round is measured.
    let mut oracle: Option<(Vec<u64>, ComplianceReport)> = None;
    let (mut setups, mut generates, mut indexes) = (vec![], vec![], vec![]);
    // Every round's requests, pooled: untraced ones, and traced ones.
    let mut untraced = Loop { clients, ..Loop::default() };
    let mut traced = Loop { clients, ..Loop::default() };
    let mut unattributed = None;
    let mut peak_mb = 0.0;
    for round_index in 0..spec.setups {
        // The peak is the first round's: the memory one audit needs in a
        // fresh process, before later rounds reuse a fragmented heap.
        if round_index == 0 {
            measure::reset_peak_rss()?;
        }
        let start = Instant::now();
        let (design, generate, index) = set_up(spec)?;
        let setup = start.elapsed().as_secs_f64();
        setups.push(setup);
        // Set-up is part of the round's measured time, as it is in the
        // operation workloads; the requests get what it leaves, and at
        // least half the round.
        let loop_secs = (round - setup).max(round / 2.0);
        generates.push(generate);
        indexes.push(index);
        let analysis = DisclosureAnalysis::new(design.system.catalog(), design.system.policy());
        let (expected, expected_check) = &*oracle.get_or_insert_with(|| {
            (
                // A few users at a time: the reports are large and only
                // their digests are kept.
                users
                    .chunks(clients)
                    .flat_map(|chunk| {
                        let reports = analysis.analyse_users_batch(&design.index, chunk, None);
                        reports.iter().map(report_digest).collect::<Vec<_>>()
                    })
                    .collect(),
                check_lts_indexed(&design.lts, &design.index, &policy),
            )
        });
        let mut run_loop = |duration: f64, traced: bool| {
            let measured = closed_loop(
                &design,
                &analysis,
                &policy,
                &users,
                expected,
                expected_check,
                clients,
                Duration::from_secs_f64(duration),
                traced,
            );
            outcome.attempted += measured.latencies_ms.len() as u64;
            outcome.failed += measured.mismatches;
            measured
        };
        if ctx.trace {
            untraced.absorb(run_loop(loop_secs / 2.0, false));
            traced.absorb(run_loop(loop_secs / 2.0, true));
            if unattributed.is_none() {
                let oracle = (expected.as_slice(), expected_check);
                unattributed = Some(replay(&design, &analysis, &policy, &users, oracle, ctx)?);
            }
        } else {
            untraced.absorb(run_loop(loop_secs, false));
        }
        if round_index == 0 {
            peak_mb = measure::status_mb("VmHWM")?;
            check_against_scans(
                spec,
                &design,
                &analysis,
                &policy,
                &users,
                expected,
                expected_check,
            )
            .into_iter()
            .for_each(|error| outcome.errors.push(error));
        }
    }
    if outcome.failed > 0 {
        outcome.errors.push(format!("{} reports differ from the oracle", outcome.failed));
    }

    if !ctx.trace {
        outcome.metric("throughput_per_s", untraced.rate());
        outcome.sampled("latency_p50_ms", measure::percentile(&untraced.latencies_ms, 50.0)?);
        outcome.sampled("latency_p99_ms", measure::percentile(&untraced.latencies_ms, 99.0)?);
        outcome.metric("peak_rss_mb", peak_mb);
        outcome.metric("setup_s", measure::median(&setups));
        return Ok(outcome);
    }
    let states = spec.states as f64;
    outcome.metric("loadgen.rss_mb", floor_mb);
    outcome.metric("lts.generate_ms", measure::median(&generates) * 1e3);
    outcome.metric("lts.states_per_s", states / measure::median(&generates));
    outcome.metric("lts.index_build_ms", measure::median(&indexes) * 1e3);
    let requests = traced.latencies_ms.len() as f64;
    outcome.metric("risk.disclosure_users_per_s", requests / traced.assess_secs);
    outcome.metric("compliance.checks_per_s", requests / traced.check_secs);
    outcome.metric("trace.overhead_share", 1.0 - traced.rate() / untraced.rate());
    outcome.metric("trace.unattributed_share", unattributed.unwrap_or_default());
    Ok(outcome)
}

/// The gates of the first round: the LTS counts, and its indexed answers
/// against the scan paths'. Returns the failures.
fn check_against_scans(
    spec: &DesignSpec,
    design: &Design,
    analysis: &DisclosureAnalysis<'_>,
    policy: &PrivacyPolicy,
    users: &[UserProfile],
    expected: &[u64],
    expected_check: &ComplianceReport,
) -> Vec<String> {
    let mut errors = Vec::new();
    let (states, transitions) = (design.lts.state_count(), design.lts.transition_count());
    if (states, transitions) != (spec.states, spec.transitions) {
        errors.push(format!(
            "the LTS has {states} states and {transitions} transitions, not {} and {}",
            spec.states, spec.transitions
        ));
    }
    if *expected_check != check_lts_scan(&design.lts, policy) {
        errors.push("check_lts_indexed differs from check_lts_scan".to_owned());
    }
    for (user, &digest) in users.iter().zip(expected).take(spec.scan_users) {
        if digest != report_digest(&analysis.assess_scan(&design.lts, user)) {
            errors.push(format!("assess differs from assess_scan for `{}`", user.id()));
        }
    }
    errors
}

/// Requests in the traced run's serial replay.
const REPLAY_REQUESTS: usize = 64;

/// A serial replay of the first requests with a span per layer call;
/// returns the share of its wall time no span accounts for. Checking each
/// answer against the oracle (and dropping it) is a span of its own.
fn replay(
    design: &Design,
    analysis: &DisclosureAnalysis<'_>,
    policy: &PrivacyPolicy,
    users: &[UserProfile],
    (expected, expected_check): (&[u64], &ComplianceReport),
    ctx: &RunContext,
) -> Result<f64, String> {
    let tracer = Tracer::new();
    let root = tracer.open("replay", None);
    let mut differing = None;
    for (k, user) in users.iter().enumerate().take(REPLAY_REQUESTS) {
        let start = Instant::now();
        let report = analysis.assess(&design.index, user);
        let assessed = Instant::now();
        tracer.record("risk.assess", start, assessed, Some(root), k as u64);
        let check = check_lts_indexed(&design.lts, &design.index, policy);
        let checked = Instant::now();
        tracer.record("compliance.check", assessed, checked, Some(root), k as u64);
        if report_digest(&report) != expected[k] || check != *expected_check {
            differing.get_or_insert(k);
        }
        drop((report, check));
        tracer.record("oracle", checked, Instant::now(), Some(root), k as u64);
    }
    tracer.close(root);
    if let Some(k) = differing {
        return Err(format!("replay: the report for `{}` differs", users[k].id()));
    }
    let shares = trace::shares(&tracer.spans(), root);
    eprintln!("{}: replay breakdown: {}", ctx.workload.name(), trace::describe_shares(&shares));
    if let Some(path) = &ctx.trace_out {
        tracer.write_ndjson(path)?;
    }
    Ok(trace::unattributed(&shares))
}
