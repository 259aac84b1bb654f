//! `e2e_bench`: the repository benchmark.
//!
//! Three workloads run the paper's pipeline through the public library APIs
//! on seeded inputs, check every output against an offline oracle, and
//! print each metric by name with its unit:
//!
//! ```text
//! e2e_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out PATH] [--out PATH]
//! e2e_bench --compare DIR_A DIR_B
//! ```
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) report the per-layer ones. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--out` also writes a JSON report with the host shape and
//! sample counts; `--compare` reads two directories of such reports and
//! gives a verdict per workload and metric. See `README.md`.

mod compare;
mod corpus;
mod design;
mod json;
mod measure;
mod operation;
mod trace;

use corpus::{CorpusSpec, Population};
use design::DesignSpec;
use measure::{Host, Percentile};
use operation::OperationSpec;
use privacy_mde::synth::LogFormat;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric: `bound` is the share of the baseline median by
/// which it may worsen before a change counts as a regression.
pub(crate) struct EndToEnd {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) better: Better,
    pub(crate) bound: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub(crate) const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "throughput_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_p99_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.2 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// a workload bypasses reads 0.
pub(crate) const PER_LAYER: [(&str, &str, Better); 23] = [
    ("ingest.read_mb_per_s", "MB/s", Better::Higher),
    ("ingest.assemble_ev_per_s", "1/s", Better::Higher),
    ("ingest.parse_ev_per_s", "1/s", Better::Higher),
    ("ingest.quarantined", "count", Better::Lower),
    ("pipeline.monitor_busy_share", "share", Better::Higher),
    ("pipeline.checkpoint_frame_mb_per_s", "MB/s", Better::Higher),
    ("runtime.monitor_ev_per_s", "1/s", Better::Higher),
    ("runtime.snapshot_capture_users_per_s", "1/s", Better::Higher),
    ("runtime.snapshot_encode_mb_per_s", "MB/s", Better::Higher),
    ("runtime.snapshot_bytes_per_user", "B", Better::Lower),
    ("runtime.resume_users_per_s", "1/s", Better::Higher),
    ("runtime.resident_mb", "MB", Better::Lower),
    ("distrib.store_write_mb_per_s", "MB/s", Better::Higher),
    ("distrib.checkpoint_bytes_per_event", "B", Better::Lower),
    ("lts.generate_ms", "ms", Better::Lower),
    ("lts.states_per_s", "1/s", Better::Higher),
    ("lts.index_build_ms", "ms", Better::Lower),
    ("risk.disclosure_users_per_s", "1/s", Better::Higher),
    ("compliance.checks_per_s", "1/s", Better::Higher),
    ("loadgen.on_time_share", "share", Better::Higher),
    ("loadgen.rss_mb", "MB", Better::Lower),
    ("trace.overhead_share", "share", Better::Lower),
    ("trace.unattributed_share", "share", Better::Lower),
];

/// The three workloads, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    LiveStream,
    LiveDurable,
    DesignAudit,
}

impl Workload {
    pub(crate) const ALL: [Workload; 3] =
        [Workload::LiveStream, Workload::LiveDurable, Workload::DesignAudit];

    /// The spec of an operation-time workload.
    fn operation(self) -> Option<&'static OperationSpec> {
        match self {
            Workload::LiveStream => Some(&LIVE_STREAM),
            Workload::LiveDurable => Some(&LIVE_DURABLE),
            Workload::DesignAudit => None,
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::LiveStream => "live_stream",
            Workload::LiveDurable => "live_durable",
            Workload::DesignAudit => "design_audit",
        }
    }
}

/// The parse-bound stream: every user of a uniform population is active
/// and the log is JSON; checkpoints only at drain.
const LIVE_STREAM: OperationSpec = OperationSpec {
    corpus: CorpusSpec { population: Population::Uniform(65_536), format: LogFormat::Json },
    checkpoint_every: 0,
    capacity_lines: 200_000,
    paced_rate: 40_000.0,
    warmup_lines: 50_000,
};

/// The checkpoint-bound stream: a skewed population whose engaged users
/// drive a logfmt log, checkpointed every 1024 events.
const LIVE_DURABLE: OperationSpec = OperationSpec {
    corpus: CorpusSpec { population: Population::Skewed(65_536), format: LogFormat::Logfmt },
    checkpoint_every: 1024,
    capacity_lines: 25_000,
    paced_rate: 5_000.0,
    warmup_lines: 10_000,
};

/// The paper's design-time pass: healthcare with potential reads.
const DESIGN_AUDIT: DesignSpec = DesignSpec {
    potential_reads: true,
    states: 138_284,
    transitions: 1_430_952,
    users: 1024,
    scan_users: 4,
    setups: 4,
};

/// What a workload run needs from the command line.
#[derive(Debug)]
pub(crate) struct RunContext {
    pub(crate) workload: Workload,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    /// Scratch space for logs and checkpoints, removed afterwards.
    pub(crate) work: PathBuf,
    pub(crate) trace_out: Option<PathBuf>,
}

/// What a workload measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    values: Vec<(&'static str, f64, Option<usize>)>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Failed correctness gates.
    pub(crate) errors: Vec<String>,
}

impl Outcome {
    pub(crate) fn metric(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value, None));
    }

    pub(crate) fn sampled(&mut self, name: &'static str, percentile: Percentile) {
        self.values.push((name, percentile.value, Some(percentile.n)));
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Reported {
    pub(crate) name: &'static str,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
    pub(crate) n: Option<usize>,
}

/// The metric list of one run, in table order: every end-to-end metric
/// (untraced) or every per-layer metric (traced, 0 where bypassed).
fn reported(outcome: &Outcome, trace: bool) -> Result<Vec<Reported>, String> {
    let table: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)).collect()
    } else {
        END_TO_END.iter().map(|metric| (metric.name, metric.unit)).collect()
    };
    if let Some((stray, ..)) =
        outcome.values.iter().find(|(name, ..)| !table.iter().any(|(known, _)| known == name))
    {
        return Err(format!("measured `{stray}`, which is not a metric of this run"));
    }
    table
        .into_iter()
        .map(|(name, unit)| match outcome.values.iter().find(|(measured, ..)| *measured == name) {
            Some(&(_, value, n)) if value.is_finite() => Ok(Reported { name, value, unit, n }),
            Some(&(_, value, _)) => Err(format!("`{name}` measured {value}")),
            None if trace => Ok(Reported { name, value: 0.0, unit, n: None }),
            None => Err(format!("`{name}` was not measured")),
        })
        .collect()
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: e2e_bench [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out PATH] [--out PATH]\n       \
                     e2e_bench --compare DIR_A DIR_B";

fn parse_options(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 28.0,
        trace: false,
        trace_out: None,
        out: None,
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                options.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name)?]
                };
            }
            "--seed" => options.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !options.seconds.is_finite() || options.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => options.trace_out = Some(PathBuf::from(value()?)),
            "--out" => options.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

/// Scratch space under the build directory (on the repository's
/// filesystem, not tmpfs), removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> Result<WorkDir, String> {
        let base =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
        let dir = base.join("e2e_bench").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|error| format!("creating {}: {error}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One workload's result.
struct WorkloadResult {
    workload: Workload,
    metrics: Vec<Reported>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn run_workload(workload: Workload, options: &Options, work: &Path) -> WorkloadResult {
    let trace_out = options.trace_out.as_ref().map(|path| {
        if options.workloads.len() == 1 {
            path.clone()
        } else {
            path.with_extension(format!("{}.ndjson", workload.name()))
        }
    });
    let ctx = RunContext {
        workload,
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
        work: work.to_path_buf(),
        trace_out,
    };
    let measured = match workload.operation() {
        Some(spec) => operation::run(spec, &ctx),
        None => design::run(&DESIGN_AUDIT, &ctx),
    };
    let (metrics, attempted, failed, mut errors) = match measured {
        Ok(outcome) => match reported(&outcome, options.trace) {
            Ok(metrics) => (metrics, outcome.attempted, outcome.failed, outcome.errors),
            Err(error) => (Vec::new(), outcome.attempted, outcome.failed, vec![error]),
        },
        Err(error) => (Vec::new(), 0, 0, vec![error]),
    };
    if metrics.is_empty() && errors.is_empty() {
        errors.push("nothing was measured".to_owned());
    }
    WorkloadResult { workload, metrics, attempted, failed, errors }
}

fn report_json(options: &Options, host: &Host, results: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|result| {
            let metrics: Vec<String> = result
                .metrics
                .iter()
                .map(|m| {
                    let n = m.n.map_or_else(|| "null".to_owned(), |n| n.to_string());
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}, \"n\": {n}}}",
                        json::string(m.name),
                        m.value,
                        json::string(m.unit)
                    )
                })
                .collect();
            let errors: Vec<String> = result.errors.iter().map(|e| json::string(e)).collect();
            format!(
                "    {{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"errors\": [{}], \"metrics\": {{{}}}}}",
                json::string(result.workload.name()),
                result.errors.is_empty(),
                result.attempted,
                result.failed,
                errors.join(", "),
                metrics.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {{\"nproc\": {}, \
         \"cpu_model\": {}, \"checkpoint_fs\": {}}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        options.seed,
        options.seconds,
        options.trace,
        host.nproc,
        json::string(&host.cpu_model),
        json::string(&host.checkpoint_fs),
        workloads.join(",\n")
    )
}

/// The last line of standard output: one JSON object over every workload
/// run (metric names are prefixed by the workload when there are several).
fn result_line(results: &[WorkloadResult]) -> String {
    let several = results.len() > 1;
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|result| {
            result.metrics.iter().map(move |m| {
                let name = if several {
                    format!("{}/{}", result.workload.name(), m.name)
                } else {
                    m.name.to_owned()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(&name),
                    m.value,
                    json::string(m.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().all(|result| result.errors.is_empty()),
        results.iter().map(|result| result.attempted).sum::<u64>().max(1),
        results.iter().map(|result| result.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// The corpus generator's side of `corpus::GENERATE_FLAG`:
/// `WORKLOAD SEED DIR LINES CUTS`.
fn generate_corpus(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut next = |what: &str| args.next().ok_or_else(|| format!("corpus generator: no {what}"));
    let workload = Workload::parse(&next("workload")?)?;
    let seed = next("seed")?.parse().map_err(|_| "corpus generator: bad seed")?;
    let dir = PathBuf::from(next("directory")?);
    let lines = next("line count")?.parse().map_err(|_| "corpus generator: bad line count")?;
    let cuts = next("cuts")?
        .split(',')
        .map(|cut| cut.parse().map_err(|_| format!("corpus generator: bad cut `{cut}`")))
        .collect::<Result<Vec<u64>, String>>()?;
    let spec = workload.operation().ok_or("corpus generator: not an operation workload")?;
    corpus::generate(spec.corpus, seed, &dir, lines, &cuts)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some(corpus::GENERATE_FLAG) => {
            args.next();
            return match generate_corpus(args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(error) => {
                    eprintln!("e2e_bench: {error}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("--compare") => {
            args.next();
            return match (args.next(), args.next(), args.next()) {
                (Some(a), Some(b), None) => match compare::run(Path::new(&a), Path::new(&b)) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(error) => {
                        eprintln!("e2e_bench: {error}");
                        ExitCode::FAILURE
                    }
                },
                _ => {
                    eprintln!("{USAGE}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let options = match parse_options(args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("e2e_bench: {error}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut results = Vec::new();
    let mut host = None;
    for &workload in &options.workloads {
        let work = match WorkDir::create(workload.name()) {
            Ok(work) => work,
            Err(error) => {
                eprintln!("e2e_bench: {error}");
                return ExitCode::FAILURE;
            }
        };
        let shape = host.get_or_insert_with(|| Host::detect(&work.0));
        if results.is_empty() {
            println!("host {shape}");
        }
        eprintln!("e2e_bench: {} (seed {}, {} s)…", workload.name(), options.seed, options.seconds);
        let result = run_workload(workload, &options, &work.0);
        for m in &result.metrics {
            let n = m.n.map_or_else(String::new, |n| format!(" n={n}"));
            println!("{} {} {} {}{n}", workload.name(), m.name, m.value, m.unit);
        }
        for error in &result.errors {
            eprintln!("e2e_bench: {}: FAILED: {error}", workload.name());
        }
        results.push(result);
    }

    if let (Some(path), Some(host)) = (&options.out, &host) {
        if let Err(error) = std::fs::write(path, report_json(&options, host, &results)) {
            eprintln!("e2e_bench: writing {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&results));
    if results.iter().all(|result| result.errors.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direction(better: Better) -> &'static str {
        match better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(json::Json::as_array)
                .expect(key)
                .iter()
                .map(|entry| {
                    entry.get("name").and_then(json::Json::as_str).expect("name").to_owned()
                })
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);

        let end_to_end = doc.get("end_to_end").and_then(json::Json::as_array).expect("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(entry.get("name").and_then(json::Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(json::Json::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(json::Json::as_str),
                Some(direction(metric.better))
            );
            assert_eq!(entry.get("bound").and_then(json::Json::as_f64), Some(metric.bound));
        }
        let per_layer = doc.get("per_layer").and_then(json::Json::as_array).expect("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, &(name, unit, better)) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(entry.get("name").and_then(json::Json::as_str), Some(name));
            assert_eq!(entry.get("unit").and_then(json::Json::as_str), Some(unit));
            assert_eq!(entry.get("better").and_then(json::Json::as_str), Some(direction(better)));
        }
    }

    #[test]
    fn options_take_the_benchmark_arguments() {
        let args = ["--workload", "live_durable", "--seed", "7", "--seconds", "3", "--trace", "1"];
        let options = parse_options(args.iter().map(ToString::to_string)).expect("parse");
        assert_eq!(options.workloads, vec![Workload::LiveDurable]);
        assert_eq!((options.seed, options.seconds, options.trace), (7, 3.0, true));
        assert!(parse_options(["--trace", "yes"].iter().map(ToString::to_string)).is_err());
        assert!(parse_options(["--workload", "nope"].iter().map(ToString::to_string)).is_err());
        assert!(parse_options(["--seconds", "0"].iter().map(ToString::to_string)).is_err());
    }

    #[test]
    fn reported_metrics_follow_the_table() {
        let mut outcome = Outcome::default();
        for metric in &END_TO_END {
            outcome.metric(metric.name, 1.5);
        }
        let end_to_end = reported(&outcome, false).expect("every end-to-end metric");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        assert!(reported(&outcome, true).is_err(), "end-to-end metrics are not per-layer ones");

        let mut traced = Outcome::default();
        traced.metric("lts.generate_ms", 2.0);
        let layers = reported(&traced, true).expect("bypassed layers read 0");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert_eq!(layers.iter().filter(|m| m.value != 0.0).count(), 1);
        let mut broken = Outcome::default();
        broken.metric("lts.generate_ms", f64::NAN);
        assert!(reported(&broken, true).is_err(), "a value that is not finite is refused");
    }

    /// Drives every workload end to end at a few thousand events, every
    /// correctness gate on.
    #[test]
    fn tiny_workloads_pass_every_gate() {
        let _serial =
            measure::PROCESS_MEMORY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let tiny = |corpus: CorpusSpec, checkpoint_every| OperationSpec {
            corpus,
            checkpoint_every,
            capacity_lines: 3_000,
            paced_rate: 24_000.0,
            warmup_lines: 500,
        };
        let json = CorpusSpec { population: Population::Uniform(512), format: LogFormat::Json };
        let logfmt =
            CorpusSpec { population: Population::Skewed(4_096), format: LogFormat::Logfmt };
        let cases = [
            (Workload::LiveStream, Some(tiny(json, 0))),
            (Workload::LiveDurable, Some(tiny(logfmt, 1024))),
            (Workload::DesignAudit, None),
        ];
        for (workload, spec) in cases {
            for trace in [false, true] {
                let work = WorkDir::create(&format!("test-{}", workload.name())).expect("work dir");
                let ctx = RunContext {
                    workload,
                    seed: 3,
                    seconds: 0.6,
                    trace,
                    work: work.0.clone(),
                    trace_out: None,
                };
                let outcome = match spec {
                    Some(spec) => operation::run(&spec, &ctx),
                    None => design::run(
                        &DesignSpec {
                            potential_reads: false,
                            states: 28,
                            transitions: 45,
                            users: 8,
                            scan_users: 2,
                            setups: 2,
                        },
                        &ctx,
                    ),
                }
                .unwrap_or_else(|error| panic!("{} failed: {error}", workload.name()));
                let metrics = reported(&outcome, trace).expect("every metric measured");
                assert!(outcome.errors.is_empty(), "{}: {:?}", workload.name(), outcome.errors);
                assert!(outcome.attempted > 0 && outcome.failed == 0);
                assert!(metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }
}
