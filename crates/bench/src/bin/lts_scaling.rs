//! The LTS generation scaling benchmark: optimised compiled-flow engine vs
//! the retained reference implementation, recorded as `BENCH_lts.json`.
//!
//! Rows sweep the actors × fields × services axes over three model sources:
//! the structured `scaled_system` / `scaled_multi_service_system` fixtures,
//! seeded random `privacy-synth` models, and the paper's healthcare case
//! study with `explore_potential_reads` enabled. Every row first checks that
//! both implementations generate the *identical* LTS (the benchmark doubles
//! as a coarse differential test), then times each and reports states/sec
//! and the speedup.
//!
//! ```text
//! lts_scaling [--quick] [--min-speedup X] [--min-row-speedup X] [--out PATH]
//!             [--threads N] [--thread-sweep A,B,C]
//! ```
//!
//! `--quick` runs a reduced sweep with shorter measurement targets (the CI
//! smoke configuration). `--min-speedup X` exits non-zero if any *guarded*
//! row's speedup falls below `X`; `--min-row-speedup X` (default 0.9) is the
//! broader floor applied to **every** row, guarded or not — the engine's
//! sequential small-model phase must keep even trivial rows from regressing
//! below ~1x the reference. `--thread-sweep A,B,C` re-times the engine at
//! each listed worker-thread count per scenario (the reference is timed
//! once), recording one row per count so the baseline captures multi-core
//! scaling. See `docs/PERFORMANCE.md` for how to read the output.

use privacy_bench::{
    bench_main, min_or_zero, scaled_multi_service_system, scaled_system, threads_available,
    time_runs, BenchArgs, Object, Report,
};
use privacy_core::{casestudy, PrivacySystem};
use privacy_lts::{generate_lts_reference, GeneratorConfig, Lts};
use privacy_model::ModelError;
use privacy_synth::{random_model, ModelGeneratorConfig};
use std::process::ExitCode;
use std::time::Duration;

/// One benchmark scenario.
struct Scenario {
    name: String,
    actors: usize,
    fields: usize,
    services: usize,
    potential_reads: bool,
    system: PrivacySystem,
}

/// One measured row of the report (one scenario at one thread count).
struct Row {
    name: String,
    actors: usize,
    fields: usize,
    services: usize,
    potential_reads: bool,
    /// The engine's worker-thread count for this row.
    threads: usize,
    states: usize,
    transitions: usize,
    reference_secs: f64,
    engine_secs: f64,
}

/// Rows below this state count time the fixed per-call setup (compilation,
/// allocation), not generation throughput; the regression guard skips them.
const GUARD_MIN_STATES: usize = 100;

impl Row {
    fn reference_states_per_sec(&self) -> f64 {
        self.states as f64 / self.reference_secs
    }

    fn engine_states_per_sec(&self) -> f64 {
        self.states as f64 / self.engine_secs
    }

    fn speedup(&self) -> f64 {
        self.reference_secs / self.engine_secs
    }

    /// Whether the row is large enough to measure throughput rather than
    /// per-call overhead.
    fn guarded(&self) -> bool {
        self.states >= GUARD_MIN_STATES
    }
}

struct Options {
    args: BenchArgs,
    min_speedup: f64,
    /// Floor applied to every row (guarded or not): the engine must never
    /// fall below this fraction of the reference's throughput.
    min_row_speedup: f64,
    /// `--threads`, else every core.
    threads: usize,
    /// The engine's thread counts, one row per count (`--thread-sweep`,
    /// else `threads`).
    sweep: Vec<usize>,
}

fn parse_options() -> Result<Options, String> {
    let mut args = BenchArgs::from_env("BENCH_lts.json")?;
    let min_speedup = args.value("--min-speedup")?.unwrap_or(0.0);
    let min_row_speedup = args.value("--min-row-speedup")?.unwrap_or(0.9);
    let threads = args.value("--threads")?.unwrap_or_else(threads_available);
    let sweep = args.list::<usize>("--thread-sweep")?.unwrap_or_else(|| vec![threads]);
    if sweep.contains(&0) {
        return Err("bad --thread-sweep value: a thread count of 0".to_owned());
    }
    args.finish()?;
    Ok(Options { args, min_speedup, min_row_speedup, threads, sweep })
}

/// The benchmark scenarios, from the structured fixtures, the random synth
/// models and the healthcare case study.
fn scenarios(quick: bool) -> Result<Vec<Scenario>, ModelError> {
    let mut scenarios = Vec::new();

    let single_service: &[(usize, usize)] =
        if quick { &[(4, 8)] } else { &[(2, 4), (4, 8), (6, 12), (8, 16)] };
    for &(actors, fields) in single_service {
        scenarios.push(Scenario {
            name: format!("scaled_{actors}a_{fields}f_1s"),
            actors,
            fields,
            services: 1,
            potential_reads: false,
            system: scaled_system(actors, fields)?,
        });
    }

    let multi_service: &[(usize, usize, usize)] =
        if quick { &[(4, 6, 2)] } else { &[(4, 6, 2), (4, 6, 3), (6, 8, 3)] };
    for &(actors, fields, services) in multi_service {
        scenarios.push(Scenario {
            name: format!("scaled_{actors}a_{fields}f_{services}s"),
            actors,
            fields,
            services,
            potential_reads: false,
            system: scaled_multi_service_system(actors, fields, services)?,
        });
    }

    // Potential reads on a mid-sized structured model. Every actor can read
    // every field here, so this scales as a has-bit hypercube: (actors-1) ×
    // fields free bits. (4, 5) gives 2^15 ≈ 33k states — healthcare scale;
    // much beyond that the exploration degenerates into a memory-latency
    // benchmark on every implementation (see docs/PERFORMANCE.md).
    let (actors, fields) = if quick { (3, 4) } else { (4, 5) };
    scenarios.push(Scenario {
        name: format!("scaled_{actors}a_{fields}f_1s_potential_reads"),
        actors,
        fields,
        services: 1,
        potential_reads: true,
        system: scaled_system(actors, fields)?,
    });

    // Seeded random models from privacy-synth.
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2] };
    for &seed in seeds {
        let config = ModelGeneratorConfig {
            actors: 5,
            fields: 6,
            datastores: 2,
            services: 3,
            flows_per_service: 5,
            grant_probability: 0.4,
            seed,
            ..ModelGeneratorConfig::default()
        };
        let (catalog, dataflows, policy) = random_model(&config)?;
        scenarios.push(Scenario {
            name: format!("synth_random_seed{seed}"),
            actors: config.actors,
            fields: config.fields,
            services: config.services,
            potential_reads: false,
            system: PrivacySystem::new(catalog, dataflows, policy),
        });
    }

    // The paper's healthcare case study. With potential reads (the
    // acceptance scenario, 138k states) the reference path alone needs tens
    // of seconds per generation, which no measurement target can shorten —
    // the quick sweep therefore benches the declared flows only and leaves
    // the full potential-read row to the recorded full-mode baseline.
    let healthcare = casestudy::healthcare()?;
    scenarios.push(Scenario {
        name: if quick { "healthcare" } else { "healthcare_potential_reads" }.to_owned(),
        actors: healthcare.catalog().identifying_actors().count(),
        fields: healthcare.catalog().field_count(),
        services: 2,
        potential_reads: !quick,
        system: healthcare,
    });

    Ok(scenarios)
}

/// Times `generate` via the shared [`time_runs`] loop,
/// returning the mean duration and the warm-up result. A generation error is
/// deterministic (same model, same config); the timing loop cannot observe
/// per-run results, so a failing generator is re-run for up to `target`
/// before the warm-up's error propagates — wasteful but bounded, and the
/// benchmark aborts on it anyway.
fn time_generation(
    target: Duration,
    generate: impl Fn() -> Result<Lts, ModelError>,
) -> Result<(f64, Lts), ModelError> {
    let (secs, lts) = time_runs(target, &generate);
    Ok((secs, lts?))
}

fn run(options: &Options) -> Result<Vec<Row>, String> {
    let quick = options.args.quick;
    let target = if quick { Duration::from_millis(200) } else { Duration::from_millis(1000) };
    let sweep = &options.sweep;

    let mut rows = Vec::new();
    for scenario in scenarios(quick).map_err(|e| format!("building scenarios: {e}"))? {
        let mut config = GeneratorConfig::default().with_max_states(5_000_000);
        config.explore_potential_reads = scenario.potential_reads;
        let system = &scenario.system;

        // The reference is single-threaded: time it once per scenario and
        // share the measurement across the thread sweep.
        let (reference_secs, reference_lts) = time_generation(target, || {
            generate_lts_reference(system.catalog(), system.dataflows(), system.policy(), &config)
        })
        .map_err(|e| format!("{}: reference failed: {e}", scenario.name))?;

        for &threads in sweep {
            config.threads = Some(threads);
            // Trivial rows run in microseconds, where one scheduler hiccup
            // can drop a deterministic workload below the per-row floor:
            // re-measure up to twice before letting a row stand below it.
            let mut attempt = 0;
            let (engine_secs, engine_lts) = loop {
                let (engine_secs, engine_lts) =
                    time_generation(target, || system.generate_lts_with(&config))
                        .map_err(|e| format!("{}: engine failed: {e}", scenario.name))?;
                if reference_secs / engine_secs >= options.min_row_speedup || attempt >= 2 {
                    break (engine_secs, engine_lts);
                }
                attempt += 1;
            };

            // The benchmark is also a differential check: a speedup over a
            // *different* LTS would be meaningless.
            if engine_lts != reference_lts {
                return Err(format!(
                    "{}: engine (threads={threads}) and reference disagree ({} vs {})",
                    scenario.name,
                    engine_lts.stats(),
                    reference_lts.stats()
                ));
            }

            let name = if sweep.len() > 1 {
                format!("{}_t{threads}", scenario.name)
            } else {
                scenario.name.clone()
            };
            let row = Row {
                name,
                actors: scenario.actors,
                fields: scenario.fields,
                services: scenario.services,
                potential_reads: scenario.potential_reads,
                threads,
                states: engine_lts.state_count(),
                transitions: engine_lts.transition_count(),
                reference_secs,
                engine_secs,
            };
            eprintln!(
                "{:<40} {:>8} states {:>8} transitions | reference {:>10.1}/s | engine {:>12.1}/s | speedup {:>6.2}x",
                row.name,
                row.states,
                row.transitions,
                row.reference_states_per_sec(),
                row.engine_states_per_sec(),
                row.speedup()
            );
            rows.push(row);
        }
    }
    Ok(rows)
}

fn report(options: &Options, rows: &[Row], min_speedup: f64) -> Result<Report, String> {
    Report::new("lts_scaling", options.args.quick)
        .with("threads", options.threads)
        .with("thread_sweep", options.sweep.clone())
        .with("min_row_speedup", options.min_row_speedup)
        .with("guard_min_states", GUARD_MIN_STATES)
        .fixed("min_speedup_observed", min_speedup, 3)
        .rows(
            "rows",
            rows.iter().map(|row| {
                let fields = Object::new()
                    .with("actors", row.actors)
                    .with("fields", row.fields)
                    .with("services", row.services)
                    .with("potential_reads", row.potential_reads)
                    .with("threads", row.threads)
                    .with("states", row.states)
                    .with("transitions", row.transitions)
                    .fixed("reference_ms", row.reference_secs * 1e3, 3)
                    .fixed("engine_ms", row.engine_secs * 1e3, 3)
                    .fixed("reference_states_per_sec", row.reference_states_per_sec(), 1)
                    .fixed("engine_states_per_sec", row.engine_states_per_sec(), 1)
                    .fixed("speedup", row.speedup(), 3)
                    .with("guarded", row.guarded());
                (row.name.clone(), fields)
            }),
        )
}

fn main() -> ExitCode {
    bench_main("lts_scaling", || {
        let options = parse_options()?;
        let rows = run(&options)?;
        let min_observed = min_or_zero(rows.iter().filter(|row| row.guarded()).map(Row::speedup));
        options.args.write(&report(&options, &rows, min_observed)?)?;

        if options.min_speedup > 0.0 && !rows.iter().any(Row::guarded) {
            return Err(format!(
                "regression guard failed: no row reaches {GUARD_MIN_STATES} states, so \
                 --min-speedup {:.2} cannot be enforced",
                options.min_speedup
            ));
        }
        if min_observed < options.min_speedup {
            return Err(format!(
                "regression guard failed: minimum speedup {min_observed:.2}x over rows with >= \
                 {GUARD_MIN_STATES} states is below the required {:.2}x",
                options.min_speedup
            ));
        }

        // The broader per-row floor: no row — however trivial — may regress
        // below `min_row_speedup` of the reference. The engine's sequential
        // small-model phase exists precisely to keep this floor.
        let floored: Vec<String> = rows
            .iter()
            .filter(|row| row.speedup() < options.min_row_speedup)
            .map(|row| format!("{} at {:.2}x", row.name, row.speedup()))
            .collect();
        if !floored.is_empty() {
            return Err(format!(
                "row regression: {} run below the required {:.2}x floor of the reference",
                floored.join(", "),
                options.min_row_speedup
            ));
        }
        Ok(())
    })
}
