//! # privacy-bench
//!
//! Benchmark harness for the reproduction: the `experiments` binary that
//! regenerates every table and figure of the paper's evaluation (Section
//! IV) as text, plus the scaling bins.
//!
//! The six scaling bins (`lts_scaling`, `analysis_scaling`,
//! `runtime_scaling`, `monitor_recovery`, `ingest_scaling`,
//! `distributed_scaling`) share one harness, defined here, so each bin keeps
//! only its scenarios, measurements and gates:
//!
//! * [`BenchArgs`] parses `--quick`, `--out` and `--force-baseline`, plus
//!   each bin's typed flags, with the same error text in every bin;
//! * [`Report`] builds the JSON report: it stamps the host shape, requires a
//!   unique `name` on every row, and escapes strings;
//! * [`write_report`] is the single output path (baseline protection and
//!   the `forced_baseline` provenance marker);
//! * [`bench_main`] turns a bin's `Err` into a one-line `name: message` and
//!   a failing exit code.
//!
//! Shared fixtures live here too, so the bins use identical workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use privacy_access::{AccessControlList, AccessPolicy, Grant};
use privacy_compliance::{ActorMatcher, FieldMatcher, PrivacyPolicy, Statement};
use privacy_core::{casestudy, PrivacySystem};
use privacy_dataflow::DiagramBuilder;
use privacy_lts::ActionKind;
use privacy_model::{
    Actor, ActorId, Catalog, DataField, DataSchema, DatastoreDecl, FieldId, ModelError, Record,
    ServiceDecl, ServiceId, UserId, UserProfile,
};
use privacy_runtime::{Event, ServiceEngine};
use privacy_synth::{
    random_model, random_profiles, random_workload, ModelGeneratorConfig, ProfileGeneratorConfig,
    WorkloadConfig,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The benchmark baselines checked into the repository root. The scaling
/// bench binaries default their `--out` to one of these names; re-recording
/// a baseline is a deliberate act, so [`write_report`] refuses to overwrite
/// an existing file with one of these names unless the caller passed
/// `--force-baseline`.
pub const CHECKED_IN_BASELINES: &[&str] = &[
    "BENCH_lts.json",
    "BENCH_analysis.json",
    "BENCH_runtime.json",
    "BENCH_recovery.json",
    "BENCH_ingest.json",
    "BENCH_distributed.json",
];

/// Runs a scaling bin: `run` does the whole job (parse, measure, write,
/// gate), and any `Err` it returns is printed as one `name: message` line
/// on stderr with a failing exit code.
pub fn bench_main(name: &str, run: impl FnOnce() -> Result<(), String>) -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{name}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The command line of a scaling bin. [`BenchArgs::parse`] takes the three
/// options every bin shares; the bin then claims its own flags with
/// [`BenchArgs::flag`], [`BenchArgs::value`] and [`BenchArgs::list`], and
/// [`BenchArgs::finish`] rejects whatever is left.
#[derive(Debug)]
pub struct BenchArgs {
    /// `--quick`: the reduced CI smoke configuration.
    pub quick: bool,
    /// `--out PATH`: where the report goes (default: the bin's baseline).
    pub out: String,
    /// `--force-baseline`: allow re-recording a checked-in baseline.
    pub force_baseline: bool,
    rest: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments, defaulting `--out` to `default_out`.
    ///
    /// # Errors
    ///
    /// Returns the error text when `--out` has no value.
    pub fn from_env(default_out: &str) -> Result<Self, String> {
        Self::parse(default_out, std::env::args().skip(1))
    }

    /// Parses `args` (without the program name), defaulting `--out` to
    /// `default_out`.
    ///
    /// # Errors
    ///
    /// Returns the error text when `--out` has no value.
    pub fn parse(
        default_out: &str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut parsed = BenchArgs {
            quick: false,
            out: default_out.to_owned(),
            force_baseline: false,
            rest: args.into_iter().collect(),
        };
        if let Some(out) = parsed.value("--out")? {
            parsed.out = out;
        }
        parsed.quick = parsed.flag("--quick");
        parsed.force_baseline = parsed.flag("--force-baseline");
        Ok(parsed)
    }

    /// Claims a boolean flag: whether `name` was passed.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|arg| arg != name);
        self.rest.len() != before
    }

    /// Claims a flag that takes a value; the last occurrence wins.
    ///
    /// # Errors
    ///
    /// `NAME needs a value` when nothing follows the flag, `bad NAME value
    /// `RAW`` when the value does not parse as `T`.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let mut raw = None;
        while let Some(at) = self.rest.iter().position(|arg| arg == name) {
            if at + 1 == self.rest.len() {
                return Err(format!("{name} needs a value"));
            }
            raw = Some(self.rest.remove(at + 1));
            self.rest.remove(at);
        }
        raw.map(|raw| raw.parse().map_err(|_| format!("bad {name} value `{raw}`"))).transpose()
    }

    /// Claims a flag whose value is a comma-separated list.
    ///
    /// # Errors
    ///
    /// As [`BenchArgs::value`], for the whole list or any element.
    pub fn list<T: FromStr>(&mut self, name: &str) -> Result<Option<Vec<T>>, String> {
        let Some(raw) = self.value::<String>(name)? else {
            return Ok(None);
        };
        raw.split(',')
            .map(|part| part.trim().parse().map_err(|_| format!("bad {name} value `{raw}`")))
            .collect::<Result<_, _>>()
            .map(Some)
    }

    /// Rejects any argument no flag claimed.
    ///
    /// # Errors
    ///
    /// `unknown argument `ARG`` for the first leftover.
    pub fn finish(&self) -> Result<(), String> {
        match self.rest.first() {
            Some(arg) => Err(format!("unknown argument `{arg}` (see docs/PERFORMANCE.md)")),
            None => Ok(()),
        }
    }

    /// Writes `report` to `--out` through [`write_report`] and says so.
    ///
    /// # Errors
    ///
    /// As [`write_report`].
    pub fn write(&self, report: &Report) -> Result<(), String> {
        write_report(&self.out, report, self.force_baseline)?;
        eprintln!("{}: wrote {}", report.bench, self.out);
        Ok(())
    }
}

/// One JSON value of a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    Int(u64),
    /// A number in its shortest round-trip form.
    Float(f64),
    /// A number with a fixed count of decimals (see [`Value::fixed`]).
    Fixed(f64, usize),
    /// A string, escaped on render.
    Str(String),
    /// An array, rendered on one line.
    Array(Vec<Value>),
    /// An object, rendered on one line.
    Object(Object),
}

impl Value {
    /// `value` rendered with exactly `decimals` decimals.
    pub fn fixed(value: f64, decimals: usize) -> Self {
        Value::Fixed(value, decimals)
    }

    fn render(&self, out: &mut String) {
        match self {
            Value::Bool(value) => {
                let _ = write!(out, "{value}");
            }
            Value::Int(value) => {
                let _ = write!(out, "{value}");
            }
            // JSON has no NaN or infinity.
            Value::Float(value) | Value::Fixed(value, _) if !value.is_finite() => {
                out.push_str("null");
            }
            Value::Float(value) => {
                let _ = write!(out, "{value}");
            }
            Value::Fixed(value, decimals) => {
                let _ = write!(out, "{value:.decimals$}");
            }
            Value::Str(value) => escape_into(value, out),
            Value::Array(values) => {
                out.push('[');
                for (i, value) in values.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    value.render(out);
                }
                out.push(']');
            }
            Value::Object(object) => object.render(out),
        }
    }
}

/// Writes `value` as a JSON string literal.
fn escape_into(value: &str, out: &mut String) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(value: bool) -> Self {
        Value::Bool(value)
    }
}

impl From<u64> for Value {
    fn from(value: u64) -> Self {
        Value::Int(value)
    }
}

impl From<usize> for Value {
    fn from(value: usize) -> Self {
        Value::Int(value as u64)
    }
}

impl From<f64> for Value {
    fn from(value: f64) -> Self {
        Value::Float(value)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::Str(value.to_owned())
    }
}

impl From<String> for Value {
    fn from(value: String) -> Self {
        Value::Str(value)
    }
}

impl From<Object> for Value {
    fn from(value: Object) -> Self {
        Value::Object(value)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(values: Vec<T>) -> Self {
        Value::Array(values.into_iter().map(Into::into).collect())
    }
}

/// A JSON object whose keys keep their insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object {
    entries: Vec<(&'static str, Value)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends `key: value`.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.entries.push((key, value.into()));
        self
    }

    /// Appends `key: value` with exactly `decimals` decimals.
    #[must_use]
    pub fn fixed(self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.with(key, Value::fixed(value, decimals))
    }

    fn render(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            escape_into(key, out);
            out.push_str(": ");
            value.render(out);
        }
        out.push('}');
    }
}

/// A bench's JSON report. [`Report::new`] stamps `bench`, `quick`,
/// `threads_available` and `generated_unix`; the bin appends its summary
/// fields and its row arrays. Each row array renders one row per line, and
/// every row carries a unique `name` as its first key, the key
/// `scripts/bench_delta.py` matches rows on.
#[derive(Debug, Clone)]
pub struct Report {
    bench: &'static str,
    fields: Object,
}

impl Report {
    /// A report for `bench`, stamped with the run's host shape and time.
    pub fn new(bench: &'static str, quick: bool) -> Self {
        let generated_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |elapsed| elapsed.as_secs());
        let fields = Object::new()
            .with("bench", bench)
            .with("quick", quick)
            .with("threads_available", threads_available())
            .with("generated_unix", generated_unix);
        Report { bench, fields }
    }

    /// Appends a top-level `key: value`.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields = self.fields.with(key, value);
        self
    }

    /// Appends a top-level `key: value` with exactly `decimals` decimals.
    #[must_use]
    pub fn fixed(self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.with(key, Value::fixed(value, decimals))
    }

    /// Appends the row array `key`: each `(name, fields)` pair becomes one
    /// row object with `name` as its first key.
    ///
    /// # Errors
    ///
    /// Returns a message naming the array when two rows share a name.
    pub fn rows(
        self,
        key: &'static str,
        rows: impl IntoIterator<Item = (String, Object)>,
    ) -> Result<Self, String> {
        let mut names = BTreeSet::new();
        let mut array = Vec::new();
        for (name, fields) in rows {
            if !names.insert(name.clone()) {
                return Err(format!(
                    "report `{}`: duplicate row name `{name}` in `{key}`",
                    self.bench
                ));
            }
            let mut row = Object::new().with("name", name);
            row.entries.extend(fields.entries);
            array.push(Value::Object(row));
        }
        Ok(self.with(key, Value::Array(array)))
    }

    /// Renders the report; a forced baseline write gets
    /// `"forced_baseline": true` as its first key.
    pub fn render(&self, forced_baseline: bool) -> String {
        let mut out = String::from("{\n");
        let forced = forced_baseline.then_some(("forced_baseline", Value::Bool(true)));
        let entries: Vec<(&str, &Value)> =
            forced.iter().chain(&self.fields.entries).map(|(key, value)| (*key, value)).collect();
        for (i, (key, value)) in entries.iter().enumerate() {
            out.push_str("  ");
            escape_into(key, &mut out);
            out.push_str(": ");
            match value {
                // Row arrays: one row per line.
                Value::Array(rows) if rows.iter().all(|row| matches!(row, Value::Object(_))) => {
                    out.push('[');
                    for (j, row) in rows.iter().enumerate() {
                        out.push_str(if j == 0 { "\n    " } else { ",\n    " });
                        row.render(&mut out);
                    }
                    out.push_str(if rows.is_empty() { "]" } else { "\n  ]" });
                }
                value => value.render(&mut out),
            }
            out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
        }
        out.push_str("}\n");
        out
    }
}

/// Writes one bench report to `out`: the single output path every bench
/// binary routes through. Creates missing parent directories (so CI can
/// collect reports under a scratch directory) and refuses to silently
/// overwrite a checked-in baseline — a bench invoked with a default `--out`
/// in a dirty working tree must not clobber the recorded numbers.
///
/// A baseline written with `--force-baseline` carries a
/// `"forced_baseline": true` field as its first key — the provenance marker
/// `scripts/repo_lint.sh` checks in CI, so a checked-in baseline that was
/// hand-edited or clobbered by some other write path is caught at review
/// time, not discovered as an inexplicable regression floor later.
///
/// # Errors
///
/// Returns a human-readable message when the destination is an existing
/// checked-in baseline and `force_baseline` is false, or when the
/// filesystem refuses the directory creation or write.
pub fn write_report(out: &str, report: &Report, force_baseline: bool) -> Result<(), String> {
    let path = Path::new(out);
    let is_baseline = path
        .file_name()
        .and_then(|name| name.to_str())
        .is_some_and(|name| CHECKED_IN_BASELINES.contains(&name));
    if is_baseline && path.exists() && !force_baseline {
        return Err(format!(
            "`{out}` is a checked-in baseline; pass --force-baseline to re-record it (or use an \
             --out name like BENCH_*_ci.json)"
        ));
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|error| format!("creating {}: {error}", parent.display()))?;
        }
    }
    std::fs::write(path, report.render(is_baseline && force_baseline))
        .map_err(|error| format!("writing {out}: {error}"))
}

/// The host's available parallelism (1 where unknown).
pub fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The thread counts a batch sweep covers: a fixed 1/2/4 ladder (so a
/// baseline always carries multi-thread rows, even when recorded on a small
/// container) plus the host's full parallelism.
pub fn thread_ladder() -> Vec<usize> {
    let mut counts = vec![1, 2, 4];
    let available = threads_available();
    if !counts.contains(&available) {
        counts.push(available);
        counts.sort_unstable();
    }
    counts
}

/// The minimum of `values`, or 0.0 when there are none: a gate's "minimum
/// over guarded rows" stays finite in the JSON, and the gate itself refuses
/// to pass vacuously.
pub fn min_or_zero(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().reduce(f64::min).unwrap_or(0.0)
}

/// Times `f` by running it repeatedly until `target` wall time has
/// accumulated (at least once after the warm-up), returning the mean
/// duration per run and the warm-up result, so every bin's measurement
/// semantics are the same.
pub fn time_runs<R>(target: Duration, mut f: impl FnMut() -> R) -> (f64, R) {
    let result = f(); // Warm-up run, also the correctness artefact.
    let started = Instant::now();
    let mut runs = 0u32;
    loop {
        let _ = std::hint::black_box(f());
        runs += 1;
        if started.elapsed() >= target {
            break;
        }
    }
    (started.elapsed().as_secs_f64() / f64::from(runs), result)
}

/// A monitored-stream scenario: a model, a population size and a workload
/// length. `runtime_scaling`, `monitor_recovery` and `ingest_scaling` share
/// the same pair (see [`stream_scenarios`]), so their numbers compare.
pub struct StreamScenario {
    /// The row name.
    pub name: String,
    /// Population size (see [`population`]).
    pub users: usize,
    /// Workload length in requests (see [`event_stream`]).
    pub requests: usize,
    /// The modelled system.
    pub system: PrivacySystem,
}

/// The paper's healthcare model (the acceptance row) and a wider synthetic
/// model whose larger vocabulary makes every per-event cost proportionally
/// higher.
///
/// # Errors
///
/// Returns a [`ModelError`] only if a fixture model is inconsistent.
pub fn stream_scenarios(quick: bool) -> Result<Vec<StreamScenario>, ModelError> {
    let config = ModelGeneratorConfig {
        actors: 8,
        fields: 10,
        datastores: 3,
        services: 3,
        flows_per_service: 6,
        grant_probability: 0.5,
        seed: 11,
        ..ModelGeneratorConfig::default()
    };
    let (catalog, dataflows, policy) = random_model(&config)?;
    Ok(vec![
        StreamScenario {
            name: "healthcare".to_owned(),
            users: if quick { 128 } else { 256 },
            requests: if quick { 1_500 } else { 6_000 },
            system: casestudy::healthcare()?,
        },
        StreamScenario {
            name: "synth_8a_10f_3s".to_owned(),
            users: if quick { 64 } else { 128 },
            requests: if quick { 1_000 } else { 4_000 },
            system: PrivacySystem::new(catalog, dataflows, policy),
        },
    ])
}

/// A seeded user population over the catalog's services and fields
/// (`analysis_scaling` uses seed 7, every other bin seed 13).
pub fn population(catalog: &Catalog, count: usize, seed: u64) -> Vec<UserProfile> {
    random_profiles(&ProfileGeneratorConfig {
        count,
        seed,
        services: catalog.services().map(|s| s.id().clone()).collect(),
        consent_probability: 0.5,
        fields: catalog.fields().map(|f| f.id().clone()).collect(),
        sensitivity_probability: 0.6,
    })
}

/// The event stream of a seeded `requests`-long workload (seed 17) by
/// `users`, replayed through the service engine.
pub fn event_stream(system: &PrivacySystem, users: &[UserProfile], requests: usize) -> Vec<Event> {
    replay_workload(system, users.iter().map(|u| u.id().clone()).collect(), requests, 17)
}

/// Replays a seeded `requests`-long workload by `users` over every service
/// (equal weights) through the service engine, each request carrying a
/// value for every field, and returns the engine's event log.
pub fn replay_workload(
    system: &PrivacySystem,
    users: Vec<UserId>,
    requests: usize,
    seed: u64,
) -> Vec<Event> {
    let catalog = system.catalog();
    let record = catalog
        .fields()
        .map(|f| f.id())
        .fold(Record::new(), |record, field| record.with(field.clone(), format!("v-{field}")));
    let mut engine =
        ServiceEngine::new(catalog.clone(), system.dataflows().clone(), system.policy().clone());
    let workload = random_workload(&WorkloadConfig {
        length: requests,
        seed,
        users,
        services: catalog.services().map(|s| (s.id().clone(), 1.0)).collect(),
    });
    for request in &workload {
        let _ = engine.execute(request.user(), request.service(), &record);
    }
    engine.log().events().to_vec()
}

/// The multi-statement runtime hygiene policy the log audits check, over
/// the catalog's own vocabulary: per-actor delete prohibitions, and per
/// field an erasure requirement, a two-actor exposure bound and a service
/// limit to the declared services.
pub fn audit_policy(catalog: &Catalog) -> PrivacyPolicy {
    let services: Vec<ServiceId> = catalog.services().map(|s| s.id().clone()).collect();
    let mut policy = PrivacyPolicy::new("runtime hygiene policy");
    for (i, actor) in catalog.identifying_actors().enumerate() {
        policy.add_statement(Statement::forbid(
            format!("NO-DELETE-{i}"),
            format!("{} never deletes records", actor.id()),
            ActorMatcher::only([actor.id().clone()]),
            Some(ActionKind::Delete),
            FieldMatcher::Any,
        ));
    }
    for (i, field) in catalog.fields().map(|f| f.id()).enumerate() {
        policy.add_statement(Statement::require_erasure(
            format!("ERASE-{i}"),
            format!("{field} must be erasable on request"),
            FieldMatcher::only([field.clone()]),
        ));
        policy.add_statement(Statement::max_exposure(
            format!("EXPOSE-{i}"),
            format!("at most two actors may observe {field}"),
            field.clone(),
            2,
        ));
        policy.add_statement(Statement::service_limit(
            format!("SERVICE-{i}"),
            format!("{field} stays in the declared services"),
            FieldMatcher::only([field.clone()]),
            services.iter().cloned(),
        ));
    }
    policy
}

/// Builds a synthetic system with `actors` actors, `fields` fields and one
/// service whose diagram collects, stores and reads every field — used by the
/// scaling / ablation benches to measure how LTS generation and risk analysis
/// grow with model size.
///
/// # Errors
///
/// Returns a [`ModelError`] only if the synthetic construction itself is
/// inconsistent (a bug in the generator).
pub fn scaled_system(actors: usize, fields: usize) -> Result<PrivacySystem, ModelError> {
    let actor_ids: Vec<ActorId> = (0..actors).map(|i| ActorId::new(format!("actor-{i}"))).collect();
    let field_ids: Vec<FieldId> = (0..fields).map(|i| FieldId::new(format!("field-{i}"))).collect();

    let mut catalog = Catalog::new();
    for actor in &actor_ids {
        catalog.add_actor(Actor::role(actor.clone()))?;
    }
    for field in &field_ids {
        catalog.add_field(DataField::sensitive(field.clone()))?;
    }
    catalog.add_schema(DataSchema::new("Schema", field_ids.clone()))?;
    catalog.add_datastore(DatastoreDecl::new("Store", "Schema"))?;
    catalog.add_service(ServiceDecl::new("Service", actor_ids.clone()))?;

    let mut acl = AccessControlList::new();
    for actor in &actor_ids {
        acl.grant(Grant::read_write_all(actor.clone(), "Store"));
    }
    let policy = AccessPolicy::from_parts(acl, Default::default());

    let collector = actor_ids[0].clone();
    let mut builder = DiagramBuilder::new("Service")
        .collect(collector.clone(), field_ids.clone(), "intake", 1)?
        .create(collector.clone(), "Store", field_ids.clone(), "persist", 2)?;
    for (order, actor) in (3..).zip(actor_ids.iter().skip(1)) {
        builder = builder.read(actor.clone(), "Store", field_ids.clone(), "process", order)?;
    }

    let mut system_builder = PrivacySystem::builder();
    *system_builder.catalog_mut() = catalog;
    *system_builder.policy_mut() = policy;
    system_builder.add_diagram(builder.build())?;
    system_builder.build()
}

/// Builds a synthetic system with `actors` actors, `fields` fields and
/// `services` services. Fields are shared; each service is driven by its own
/// collector actor (round-robin) and collects, stores and reads every field
/// through a shared datastore, so interleaved exploration grows with the
/// service count — used by the LTS scaling benchmark (`lts_scaling`) to
/// measure generation throughput along the actors×fields×services axes.
///
/// # Errors
///
/// Returns a [`ModelError`] only if the synthetic construction itself is
/// inconsistent (a bug in the generator).
pub fn scaled_multi_service_system(
    actors: usize,
    fields: usize,
    services: usize,
) -> Result<PrivacySystem, ModelError> {
    let actors = actors.max(1);
    let services = services.max(1);
    let actor_ids: Vec<ActorId> = (0..actors).map(|i| ActorId::new(format!("actor-{i}"))).collect();
    let field_ids: Vec<FieldId> = (0..fields).map(|i| FieldId::new(format!("field-{i}"))).collect();

    let mut catalog = Catalog::new();
    for actor in &actor_ids {
        catalog.add_actor(Actor::role(actor.clone()))?;
    }
    for field in &field_ids {
        catalog.add_field(DataField::sensitive(field.clone()))?;
    }
    catalog.add_schema(DataSchema::new("Schema", field_ids.clone()))?;
    catalog.add_datastore(DatastoreDecl::new("Store", "Schema"))?;

    let mut acl = AccessControlList::new();
    for actor in &actor_ids {
        acl.grant(Grant::read_write_all(actor.clone(), "Store"));
    }
    let policy = AccessPolicy::from_parts(acl, Default::default());

    let mut system_builder = PrivacySystem::builder();
    for s in 0..services {
        let service = format!("service-{s}");
        let collector = actor_ids[s % actor_ids.len()].clone();
        let reader = actor_ids[(s + 1) % actor_ids.len()].clone();
        catalog.add_service(ServiceDecl::new(service.clone(), actor_ids.clone()))?;
        let builder = DiagramBuilder::new(service)
            .collect(collector.clone(), field_ids.clone(), "intake", 1)?
            .create(collector, "Store", field_ids.clone(), "persist", 2)?
            .read(reader, "Store", field_ids.clone(), "process", 3)?;
        system_builder.add_diagram(builder.build())?;
    }
    *system_builder.catalog_mut() = catalog;
    *system_builder.policy_mut() = policy;
    system_builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn demo_report() -> Report {
        Report::new("demo", false).with("threads", 2usize).fixed("ratio", 1.23456, 3)
    }

    #[test]
    fn write_report_creates_parents_and_protects_baselines() {
        let dir = std::env::temp_dir().join(format!("privacy-bench-out-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let report = demo_report();

        // Parent directories are created on demand.
        let nested = dir.join("reports").join("BENCH_demo_ci.json");
        write_report(nested.to_str().unwrap(), &report, false).unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), report.render(false));

        // A checked-in baseline name may be written fresh, but an existing
        // one is protected from a silent overwrite…
        let baseline = dir.join("BENCH_lts.json");
        let baseline_str = baseline.to_str().unwrap().to_owned();
        write_report(&baseline_str, &report, false).unwrap();
        let first = std::fs::read_to_string(&baseline).unwrap();
        let second = demo_report().with("extra", true);
        assert!(write_report(&baseline_str, &second, false).is_err());
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), first);

        // …unless the caller explicitly re-records it, in which case the
        // provenance marker is the first key.
        write_report(&baseline_str, &second, true).unwrap();
        let forced = std::fs::read_to_string(&baseline).unwrap();
        assert!(forced.starts_with("{\n  \"forced_baseline\": true,\n  \"bench\": \"demo\",\n"));
        assert!(forced.contains("\"extra\": true"));

        // Non-baseline names are never stamped, forced or not.
        let scratch = dir.join("BENCH_demo_ci.json");
        write_report(scratch.to_str().unwrap(), &report, true).unwrap();
        let unstamped = std::fs::read_to_string(&scratch).unwrap();
        assert_eq!(unstamped, report.render(false));
        assert!(!unstamped.contains("forced_baseline"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forced_baseline_is_the_first_key_only_on_a_forced_render() {
        let report = demo_report();
        let plain = report.render(false);
        assert!(plain.starts_with("{\n  \"bench\": \"demo\",\n  \"quick\": false,\n"));
        assert!(plain.contains("\"threads_available\": "));
        assert!(plain.contains("\"generated_unix\": "));
        assert!(plain.contains("\"ratio\": 1.235\n"));
        assert!(!plain.contains("forced_baseline"));
        let forced = report.render(true);
        assert_eq!(forced, plain.replacen("{\n", "{\n  \"forced_baseline\": true,\n", 1));
    }

    #[test]
    fn duplicate_row_names_are_rejected() {
        let rows = vec![
            ("a".to_owned(), Object::new().with("x", 1usize)),
            ("b".to_owned(), Object::new().with("x", 2usize)),
            ("a".to_owned(), Object::new().with("x", 3usize)),
        ];
        let error = demo_report().rows("rows", rows).unwrap_err();
        assert_eq!(error, "report `demo`: duplicate row name `a` in `rows`");
        // Names need only be unique within one array.
        let report = demo_report()
            .rows("rows", [("a".to_owned(), Object::new())])
            .unwrap()
            .rows("more", [("a".to_owned(), Object::new())])
            .unwrap();
        assert!(report.render(false).contains("\"more\": [\n    {\"name\": \"a\"}\n  ]\n"));
    }

    #[test]
    fn row_names_are_escaped_and_the_report_stays_valid_json() {
        let name = "quote\" back\\slash\ttab";
        let report = demo_report()
            .rows(
                "rows",
                [(
                    name.to_owned(),
                    Object::new().with("nested", vec![Object::new().with("k", 1.5)]),
                )],
            )
            .unwrap()
            .rows("empty", Vec::new())
            .unwrap()
            .with("not_a_number", f64::NAN);
        let text = report.render(true);
        assert!(text
            .contains("{\"name\": \"quote\\\" back\\\\slash\\ttab\", \"nested\": [{\"k\": 1.5}]}"));
        assert!(text.contains("\"empty\": [],\n"));
        assert!(text.contains("\"not_a_number\": null\n"));

        // The reference parser agrees, where one is installed.
        let child = std::process::Command::new("python3")
            .args(["-m", "json.tool"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::null())
            .spawn();
        if let Ok(mut child) = child {
            use std::io::Write as _;
            child.stdin.take().unwrap().write_all(text.as_bytes()).unwrap();
            assert!(child.wait().unwrap().success(), "python3 -m json.tool rejected:\n{text}");
        }
    }

    #[test]
    fn parser_claims_shared_and_typed_flags() {
        let mut parsed = BenchArgs::parse(
            "BENCH_demo.json",
            args("--threads 3 --quick --workers 1,2 --force-baseline --gate --out x.json"),
        )
        .unwrap();
        assert!(parsed.quick && parsed.force_baseline);
        assert_eq!(parsed.out, "x.json");
        assert_eq!(parsed.value::<usize>("--threads").unwrap(), Some(3));
        assert_eq!(parsed.list::<usize>("--workers").unwrap(), Some(vec![1, 2]));
        assert_eq!(parsed.value::<f64>("--absent").unwrap(), None);
        assert!(parsed.flag("--gate"));
        assert!(!parsed.flag("--gate"));
        parsed.finish().unwrap();

        let defaults = BenchArgs::parse("BENCH_demo.json", Vec::new()).unwrap();
        assert!(!defaults.quick && !defaults.force_baseline);
        assert_eq!(defaults.out, "BENCH_demo.json");
    }

    #[test]
    fn parser_errors_name_the_flag() {
        let unknown = BenchArgs::parse("o.json", args("--quick --frobnicate")).unwrap();
        assert_eq!(
            unknown.finish().unwrap_err(),
            "unknown argument `--frobnicate` (see docs/PERFORMANCE.md)"
        );

        assert_eq!(BenchArgs::parse("o.json", args("--out")).unwrap_err(), "--out needs a value");
        let mut missing = BenchArgs::parse("o.json", args("--quick --min-speedup")).unwrap();
        assert_eq!(
            missing.value::<f64>("--min-speedup").unwrap_err(),
            "--min-speedup needs a value"
        );

        let mut bad = BenchArgs::parse("o.json", args("--min-speedup fast")).unwrap();
        assert_eq!(
            bad.value::<f64>("--min-speedup").unwrap_err(),
            "bad --min-speedup value `fast`"
        );
        let mut bad_list = BenchArgs::parse("o.json", args("--workers 1,x")).unwrap();
        assert_eq!(bad_list.list::<usize>("--workers").unwrap_err(), "bad --workers value `1,x`");
    }

    #[test]
    fn shared_fixtures_are_deterministic() {
        let scenarios = stream_scenarios(true).unwrap();
        let healthcare = &scenarios[0];
        let users = population(healthcare.system.catalog(), 8, 13);
        assert_eq!(users, population(healthcare.system.catalog(), 8, 13));
        let events = event_stream(&healthcare.system, &users, 40);
        assert!(!events.is_empty());
        assert_eq!(events, event_stream(&healthcare.system, &users, 40));
        assert!(audit_policy(healthcare.system.catalog()).len() > 4);
        assert!(thread_ladder().starts_with(&[1, 2]));
    }

    #[test]
    fn multi_service_systems_scale_with_the_service_count() {
        let one = scaled_multi_service_system(3, 4, 1).unwrap();
        let three = scaled_multi_service_system(3, 4, 3).unwrap();
        assert!(one.validate().unwrap().is_ok());
        assert!(three.validate().unwrap().is_ok());
        assert_eq!(three.dataflows().len(), 3);
        let lts_one = one.generate_lts().unwrap();
        let lts_three = three.generate_lts().unwrap();
        assert!(lts_three.transition_count() > lts_one.transition_count());
    }

    #[test]
    fn scaled_systems_are_valid_and_scale_in_the_expected_dimensions() {
        let small = scaled_system(2, 2).unwrap();
        assert!(small.validate().unwrap().is_ok());
        assert_eq!(small.catalog().state_variable_count(), 8);

        let larger = scaled_system(5, 6).unwrap();
        assert_eq!(larger.catalog().state_variable_count(), 60);
        assert_eq!(larger.dataflows().flow_count(), 2 + 4);

        let lts_small = small.generate_lts().unwrap();
        let lts_larger = larger.generate_lts().unwrap();
        assert!(lts_larger.transition_count() > lts_small.transition_count());
    }
}
