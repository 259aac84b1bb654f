//! The analysis scaling benchmark: indexed risk/compliance checking against
//! the retained scan paths, recorded as `BENCH_analysis.json`.
//!
//! PR 2 made LTS *generation* fast; this benchmark tracks the paper's actual
//! deliverable — risk identification and policy compliance over the
//! generated model. Per scenario it generates the LTS once, then measures:
//!
//! * **Index build cost** — one [`LtsIndex::build`] pass (columns, posting
//!   lists, CSR adjacency, reachability bit postings).
//! * **Compliance** — a realistic multi-statement policy checked via the
//!   scan path (`check_lts_scan`: every statement re-walks the transition
//!   relation) against the indexed path (`check_lts_indexed` probes over a
//!   prebuilt index). The headline `check_speedup` compares the scan against
//!   index build **plus** probes — the honest single-shot cost.
//! * **Batch compliance throughput** — replicas of the full policy
//!   evaluated over one index build (`check_lts_batch_indexed`), swept over
//!   worker-thread counts. (On a single-core recorder the sweep measures
//!   fan-out overhead, not scaling — `threads_available` in the JSON says
//!   which regime a baseline was recorded in.)
//! * **Disclosure risk** — a seeded user population assessed per user via
//!   the scan path (`assess_scan`) against the batch API
//!   (`analyse_users_batch`) over one index, swept over thread counts. The
//!   batch rows time a warm index: the differential check has already
//!   filled its shared per-(actor, field) read lists.
//!
//! Every scenario first cross-checks that the indexed results equal the
//! scan-path results (reports compare structurally), so the benchmark
//! doubles as a coarse differential test.
//!
//! ```text
//! analysis_scaling [--quick] [--min-speedup X] [--out PATH] [--threads N]
//! ```
//!
//! `--quick` is the CI smoke configuration (smaller models, shorter
//! measurement targets). `--min-speedup X` exits non-zero if any guarded
//! row's `check_speedup` falls below `X`. `--threads N` pins the batch
//! sweeps to one count. See `docs/PERFORMANCE.md`.

use privacy_bench::{
    bench_main, min_or_zero, population, scaled_system, thread_ladder, time_runs, BenchArgs,
    Object, Report,
};
use privacy_compliance::{
    check_lts_batch_indexed, check_lts_indexed, check_lts_scan, ActorMatcher, FieldMatcher,
    PrivacyPolicy, Statement,
};
use privacy_core::{casestudy, PrivacySystem};
use privacy_lts::{ActionKind, GeneratorConfig, Lts, LtsIndex};
use privacy_model::{ActorId, Catalog, FieldId, ModelError, Purpose};
use privacy_risk::DisclosureAnalysis;
use privacy_synth::{random_model, ModelGeneratorConfig};
use std::process::ExitCode;
use std::time::Duration;

/// One benchmark scenario.
struct Scenario {
    name: String,
    potential_reads: bool,
    users: usize,
    system: PrivacySystem,
}

/// One (threads, throughput) sample of a batch sweep.
struct BatchSample {
    threads: usize,
    per_sec: f64,
}

/// One measured row of the report.
struct Row {
    scenario: Scenario,
    states: usize,
    transitions: usize,
    statements: usize,
    index_build_secs: f64,
    scan_check_secs: f64,
    probe_check_secs: f64,
    batch_policies: usize,
    batch: Vec<BatchSample>,
    disclosure_scan_users_per_sec: f64,
    disclosure_batch: Vec<BatchSample>,
}

/// Rows below this transition count time per-call setup, not probe
/// throughput; the regression guard skips them.
const GUARD_MIN_TRANSITIONS: usize = 10_000;

impl Row {
    /// Scan time over one full indexed check (build + probes): the honest
    /// single-shot speedup.
    fn check_speedup(&self) -> f64 {
        self.scan_check_secs / (self.index_build_secs + self.probe_check_secs)
    }

    /// Mean indexed probe time per policy statement, in microseconds.
    fn probe_us_per_statement(&self) -> f64 {
        self.probe_check_secs * 1e6 / self.statements.max(1) as f64
    }

    fn disclosure_speedup(&self) -> f64 {
        let batch = self.disclosure_batch.first().map_or(0.0, |s| s.per_sec);
        if self.disclosure_scan_users_per_sec > 0.0 {
            batch / self.disclosure_scan_users_per_sec
        } else {
            0.0
        }
    }

    fn guarded(&self) -> bool {
        self.transitions >= GUARD_MIN_TRANSITIONS
    }
}

struct Options {
    args: BenchArgs,
    min_speedup: f64,
    /// The batch sweeps' thread counts: `--threads N` alone, else the
    /// shared ladder.
    thread_counts: Vec<usize>,
}

fn parse_options() -> Result<Options, String> {
    let mut args = BenchArgs::from_env("BENCH_analysis.json")?;
    let min_speedup = args.value("--min-speedup")?.unwrap_or(0.0);
    let thread_counts = args.value("--threads")?.map_or_else(thread_ladder, |n| vec![n]);
    args.finish()?;
    Ok(Options { args, min_speedup, thread_counts })
}

/// The benchmark scenarios. The healthcare case study with potential reads
/// (138k states / 1.4M transitions) is the headline; the scaled fixture with
/// potential reads is the guarded mid-size row quick mode can afford.
fn scenarios(quick: bool) -> Result<Vec<Scenario>, ModelError> {
    let mut scenarios = Vec::new();

    scenarios.push(Scenario {
        name: "scaled_4a_5f_1s_potential_reads".to_owned(),
        potential_reads: true,
        users: if quick { 4 } else { 8 },
        system: scaled_system(4, 5)?,
    });

    let config = ModelGeneratorConfig {
        actors: 5,
        fields: 6,
        datastores: 2,
        services: 3,
        flows_per_service: 5,
        grant_probability: 0.4,
        seed: 1,
        ..ModelGeneratorConfig::default()
    };
    let (catalog, dataflows, policy) = random_model(&config)?;
    scenarios.push(Scenario {
        name: "synth_random_seed1".to_owned(),
        potential_reads: false,
        users: if quick { 4 } else { 8 },
        system: PrivacySystem::new(catalog, dataflows, policy),
    });

    // Healthcare: quick mode checks the declared flows only (the CI sweep);
    // the recorded full-mode baseline runs the 1.4M-transition
    // potential-read variant the acceptance criterion names.
    scenarios.push(Scenario {
        name: if quick { "healthcare" } else { "healthcare_potential_reads" }.to_owned(),
        potential_reads: !quick,
        users: if quick { 4 } else { 8 },
        system: casestudy::healthcare()?,
    });

    Ok(scenarios)
}

/// A realistic multi-statement "hygiene" policy over the catalog's own
/// vocabulary: per-actor prohibitions of destructive/exfiltrating actions,
/// targeted read prohibitions on the most sensitive fields, a global
/// right-to-erasure statement, purpose limitation and per-field exposure
/// bounds. Deterministic per catalog.
fn analysis_policy(catalog: &Catalog, potential_reads: bool) -> PrivacyPolicy {
    let actors: Vec<ActorId> = catalog.identifying_actors().map(|a| a.id().clone()).collect();
    let fields: Vec<FieldId> = catalog.fields().map(|f| f.id().clone()).collect();
    let mut policy = PrivacyPolicy::new("analysis-scaling hygiene policy");

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
    // Prohibitions on a role outside the model: must hold vacuously, which
    // the scan can only establish by walking every transition per action.
    for (i, action) in ActionKind::ALL.iter().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("NO-AUDITOR-{i}"),
            format!("the external auditor never performs {action}"),
            ActorMatcher::only([ActorId::new("ExternalAuditor")]),
            Some(*action),
            FieldMatcher::Any,
        ));
    }
    // Right to erasure: globally and per field.
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
    }
    // Potential-read transitions never carry a purpose, so purpose
    // limitation over a potential-read LTS floods violations that would
    // only measure string formatting on both paths; it is exercised on the
    // declared-flow scenarios (and pinned by the differential tests).
    if !potential_reads {
        policy.add_statement(Statement::purpose_limit(
            "PURPOSE-CORE",
            "the core record is only processed for declared purposes",
            FieldMatcher::only(fields.iter().take(1).cloned()),
            ["intake", "persist", "process", "collect", "disclose"]
                .map(|p| Purpose::new(p).unwrap()),
        ));
    }
    for (i, field) in fields.iter().enumerate() {
        policy.add_statement(Statement::max_exposure(
            format!("EXPOSE-{i}"),
            format!("at most two actors may identify {field}"),
            field.clone(),
            2,
        ));
    }
    policy
}

fn run(options: &Options) -> Result<Vec<Row>, String> {
    let quick = options.args.quick;
    let target = if quick { Duration::from_millis(150) } else { Duration::from_millis(500) };
    let thread_counts = &options.thread_counts;
    let mut rows = Vec::new();

    for scenario in scenarios(quick).map_err(|e| format!("building scenarios: {e}"))? {
        let mut config = GeneratorConfig::default().with_max_states(5_000_000);
        config.explore_potential_reads = scenario.potential_reads;
        let lts: Lts = scenario
            .system
            .generate_lts_with(&config)
            .map_err(|e| format!("{}: generation failed: {e}", scenario.name))?;
        let catalog = scenario.system.catalog();
        let policy = analysis_policy(catalog, scenario.potential_reads);
        let users = population(catalog, scenario.users, 7);
        let analysis = DisclosureAnalysis::new(catalog, scenario.system.policy());

        // Differential check before timing anything: a speedup over a
        // different report would be meaningless.
        let index = LtsIndex::build(&lts);
        let indexed_report = check_lts_indexed(&lts, &index, &policy);
        let scan_report = check_lts_scan(&lts, &policy);
        if indexed_report != scan_report {
            return Err(format!("{}: indexed and scan compliance reports disagree", scenario.name));
        }
        for user in users.iter().take(2) {
            if analysis.assess(&index, user) != analysis.assess_scan(&lts, user) {
                return Err(format!(
                    "{}: indexed and scan disclosure reports disagree for {}",
                    scenario.name,
                    user.id()
                ));
            }
        }

        // Compliance: index build, scan check, indexed probe check.
        let (index_build_secs, _) = time_runs(target, || LtsIndex::build(&lts));
        let (scan_check_secs, _) = time_runs(target, || check_lts_scan(&lts, &policy));
        let (probe_check_secs, _) = time_runs(target, || check_lts_indexed(&lts, &index, &policy));

        // Batch compliance throughput over one prebuilt index. Each batch
        // unit is a replica of the full multi-statement policy: a unit must
        // carry enough work for the thread fan-out to measure anything but
        // spawn/join overhead (single statements probe in ~1µs).
        let units: Vec<PrivacyPolicy> = vec![policy.clone(); 16];
        let batch_policies = units.len();
        let batch = thread_counts
            .iter()
            .map(|&threads| {
                let (secs, _) = time_runs(target, || {
                    check_lts_batch_indexed(&lts, &index, &units, Some(threads))
                });
                BatchSample { threads, per_sec: batch_policies as f64 / secs }
            })
            .collect();

        // Disclosure: per-user scan path vs the batch API over one index.
        // The differential check above already filled the index's
        // per-(actor, field) read lists, so the batch rows time a warm index.
        let (scan_users_secs, _) = time_runs(target, || {
            users.iter().map(|user| analysis.assess_scan(&lts, user)).collect::<Vec<_>>()
        });
        let disclosure_scan_users_per_sec = users.len() as f64 / scan_users_secs;
        let disclosure_batch = thread_counts
            .iter()
            .map(|&threads| {
                let (secs, _) = time_runs(target, || {
                    analysis.analyse_users_batch(&index, &users, Some(threads))
                });
                BatchSample { threads, per_sec: users.len() as f64 / secs }
            })
            .collect();

        let row = Row {
            states: lts.state_count(),
            transitions: lts.transition_count(),
            statements: policy.len(),
            index_build_secs,
            scan_check_secs,
            probe_check_secs,
            batch_policies,
            batch,
            disclosure_scan_users_per_sec,
            disclosure_batch,
            scenario,
        };
        eprintln!(
            "{:<36} {:>8} states {:>9} transitions | {:>2} statements | scan {:>9.2}ms | \
             build {:>8.2}ms probe {:>8.3}ms | check speedup {:>7.2}x | disclosure {:>6.2}x",
            row.scenario.name,
            row.states,
            row.transitions,
            row.statements,
            row.scan_check_secs * 1e3,
            row.index_build_secs * 1e3,
            row.probe_check_secs * 1e3,
            row.check_speedup(),
            row.disclosure_speedup(),
        );
        rows.push(row);
    }
    Ok(rows)
}

fn batch(samples: &[BatchSample]) -> Vec<Object> {
    samples
        .iter()
        .map(|s| Object::new().with("threads", s.threads).fixed("per_sec", s.per_sec, 1))
        .collect()
}

fn report(options: &Options, rows: &[Row], min_speedup: f64) -> Result<Report, String> {
    Report::new("analysis_scaling", options.args.quick)
        .with("guard_min_transitions", GUARD_MIN_TRANSITIONS)
        .fixed("min_check_speedup_observed", min_speedup, 3)
        .rows(
            "rows",
            rows.iter().map(|row| {
                let fields = Object::new()
                    .with("states", row.states)
                    .with("transitions", row.transitions)
                    .with("statements", row.statements)
                    .fixed("index_build_ms", row.index_build_secs * 1e3, 3)
                    .fixed("scan_check_ms", row.scan_check_secs * 1e3, 3)
                    .fixed("probe_check_ms", row.probe_check_secs * 1e3, 3)
                    .fixed("probe_us_per_statement", row.probe_us_per_statement(), 3)
                    .fixed("check_speedup", row.check_speedup(), 3)
                    .with("batch_policies", row.batch_policies)
                    .with("batch", batch(&row.batch))
                    .with("users", row.scenario.users)
                    .fixed("disclosure_scan_users_per_sec", row.disclosure_scan_users_per_sec, 2)
                    .with("disclosure_batch", batch(&row.disclosure_batch))
                    .fixed("disclosure_speedup", row.disclosure_speedup(), 3)
                    .with("guarded", row.guarded());
                (row.scenario.name.clone(), fields)
            }),
        )
}

fn main() -> ExitCode {
    bench_main("analysis_scaling", || {
        let options = parse_options()?;
        let rows = run(&options)?;
        let min_observed =
            min_or_zero(rows.iter().filter(|row| row.guarded()).map(Row::check_speedup));
        options.args.write(&report(&options, &rows, min_observed)?)?;

        if options.min_speedup > 0.0 && !rows.iter().any(Row::guarded) {
            return Err(format!(
                "regression guard failed: no row reaches {GUARD_MIN_TRANSITIONS} transitions, \
                 so --min-speedup {:.2} cannot be enforced",
                options.min_speedup
            ));
        }
        if min_observed < options.min_speedup {
            return Err(format!(
                "regression guard failed: minimum check speedup {min_observed:.2}x over rows \
                 with >= {GUARD_MIN_TRANSITIONS} transitions is below the required {:.2}x",
                options.min_speedup
            ));
        }
        Ok(())
    })
}
