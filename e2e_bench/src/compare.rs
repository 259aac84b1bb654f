//! `e2e_bench --compare A/ B/`: compares two sets of `--out` reports.
//!
//! For each workload and metric it prints each side's median and quartiles
//! and, for end-to-end metrics, a verdict of B against A under the metric's
//! bound: `better` or `worse` when the medians differ by more than the
//! bound, `same` when they do not, and `unresolved` when either side's
//! spread (quartile distance over median) exceeds the bound — unless every
//! run of B reads better, or every run worse, than every run of A.

use crate::json::{self, Json};
use crate::measure::{median, quartiles};
use crate::{Better, END_TO_END};
use std::collections::BTreeMap;
use std::path::Path;

type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Every metric value in every `*.json` report under `dir`, keyed by
/// workload and metric.
fn load(dir: &Path) -> Result<Runs, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|error| format!("reading {}: {error}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|entry| entry.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut runs = Runs::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|error| format!("reading {}: {error}", path.display()))?;
        let report = json::parse(&text).map_err(|error| format!("{}: {error}", path.display()))?;
        let workloads = report
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{}: no workloads", path.display()))?;
        for workload in workloads {
            let name = workload.get("workload").and_then(Json::as_str).unwrap_or("?");
            if workload.get("correct") != Some(&Json::Bool(true)) {
                eprintln!("compare: {}: {name} was not correct", path.display());
            }
            for (metric, value) in workload.get("metrics").and_then(Json::as_object).unwrap_or(&[])
            {
                if let Some(value) = value.get("value").and_then(Json::as_f64) {
                    runs.entry((name.to_owned(), metric.clone())).or_default().push(value);
                }
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("no reports with metrics under {}", dir.display()));
    }
    Ok(runs)
}

/// The verdict of `b` against `a` for a metric with `bound` and `better`.
pub(crate) fn verdict(a: &[f64], b: &[f64], bound: f64, better: Better) -> &'static str {
    let spread = |values: &[f64]| {
        let (q1, q3) = quartiles(values);
        (q3 - q1) / median(values).abs()
    };
    let improves = |from: f64, to: f64| match better {
        Better::Higher => to > from,
        Better::Lower => to < from,
    };
    let (median_a, median_b) = (median(a), median(b));
    if spread(a) > bound || spread(b) > bound {
        let all =
            |pick: &dyn Fn(f64, f64) -> bool| b.iter().all(|&vb| a.iter().all(|&va| pick(va, vb)));
        return if all(&|va, vb| improves(va, vb)) {
            "better"
        } else if all(&|va, vb| improves(vb, va)) {
            "worse"
        } else {
            "unresolved"
        };
    }
    let change = (median_b - median_a) / median_a.abs();
    let worse_by = match better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    }
}

/// Prints the comparison; `Ok(false)` when any end-to-end pair is worse or
/// unresolved.
pub(crate) fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let describe = |values: &[f64]| {
        let (q1, q3) = quartiles(values);
        format!("{:.6} [{:.6}, {:.6}] n={}", median(values), q1, q3, values.len())
    };
    let mut acceptable = true;
    println!("workload metric | A median [q1, q3] | B median [q1, q3] | change | verdict");
    for ((workload, metric), values_a) in &runs_a {
        let Some(values_b) = runs_b.get(&(workload.clone(), metric.clone())) else {
            println!("{workload} {metric} | {} | missing in B | - | -", describe(values_a));
            acceptable = false;
            continue;
        };
        let change = (median(values_b) - median(values_a)) / median(values_a).abs();
        let verdict = match END_TO_END.iter().find(|m| *metric == m.name) {
            Some(m) => verdict(values_a, values_b, m.bound, m.better),
            None => "-",
        };
        acceptable &= matches!(verdict, "same" | "better" | "-");
        println!(
            "{workload} {metric} | {} | {} | {:+.2}% | {verdict}",
            describe(values_a),
            describe(values_b),
            change * 100.0
        );
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &[102.0, 101.0, 103.0, 102.5, 101.5], 0.10, Better::Higher), "same");
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], 0.10, Better::Higher),
            "better"
        );
        assert_eq!(verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], 0.10, Better::Lower), "worse");
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], 0.10, Better::Lower), "better");
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_every_run_separates() {
        let a = [50.0, 100.0, 150.0, 100.0, 60.0];
        assert_eq!(
            verdict(&a, &[55.0, 100.0, 140.0, 95.0, 70.0], 0.10, Better::Higher),
            "unresolved"
        );
        assert_eq!(
            verdict(&a, &[200.0, 260.0, 400.0, 210.0, 300.0], 0.10, Better::Higher),
            "better"
        );
        assert_eq!(verdict(&a, &[200.0, 260.0, 400.0, 210.0, 300.0], 0.10, Better::Lower), "worse");
    }

    #[test]
    fn reports_round_trip_through_a_comparison() {
        let root = std::env::temp_dir().join(format!("e2e-bench-compare-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        for (dir, values) in [(&a, [10.0, 10.2, 9.9]), (&b, [10.1, 10.0, 9.8])] {
            std::fs::create_dir_all(dir).expect("mkdir");
            for (i, value) in values.iter().enumerate() {
                let report = format!(
                    "{{\"workloads\": [{{\"workload\": \"live_stream\", \"correct\": true, \
                     \"metrics\": {{\"setup_s\": {{\"value\": {value}, \"unit\": \"s\", \
                     \"n\": null}}}}}}]}}"
                );
                std::fs::write(dir.join(format!("run{i}.json")), report).expect("write");
            }
        }
        let runs = load(&a).expect("load");
        assert_eq!(runs[&("live_stream".to_owned(), "setup_s".to_owned())], vec![10.0, 10.2, 9.9]);
        assert_eq!(run(&a, &b), Ok(true));
        std::fs::remove_dir_all(&root).ok();
    }
}
