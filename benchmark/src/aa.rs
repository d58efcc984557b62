//! A/A mode: the suite as several sets of runs of one build.
//!
//! It does what the driver of this repository does to accept a
//! benchmark: per (end-to-end metric, workload), each set's median over
//! runs with different seeds, the spread inside a set (interquartile
//! distance over the median, quartiles as Python's
//! `statistics.quantiles(values, n=4)`), and how much worse a later
//! set's median is than the first's, each against the metric's bound
//! in `BENCHMARK.json`. Two sets of the same code must agree.

use std::collections::BTreeMap;
use std::process::ExitCode;

use gms_serve::json::Json;

use crate::stats::{median, spread};
use crate::workload::WORKLOADS;
use crate::{env, run_child, Args};

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> Json {
    let path = env::bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// The `end_to_end` list of `BENCHMARK.json`.
pub fn declared_metrics() -> Vec<Declared> {
    let parsed = benchmark_json();
    let list = parsed
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("metric member")
                    .to_string()
            };
            Declared {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64).expect("bound"),
            }
        })
        .collect()
}

pub fn run(args: &Args) -> ExitCode {
    let declared = declared_metrics();
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(&str, String), Vec<Vec<f64>>> = BTreeMap::new();
    let mut failed_runs = 0;
    for set in 0..args.sets {
        for run in 0..args.runs {
            for name in WORKLOADS {
                let mut child = args.clone();
                child.seed = args.seed + run as u64;
                child.trace = false;
                println!("--- set {set}, run {run}, {name}, seed {}", child.seed);
                let Some(result) = run_child(name, &child).filter(|r| r.correct) else {
                    failed_runs += 1;
                    continue;
                };
                for (metric, (value, _, _)) in result.metrics {
                    let sets = values.entry((name, metric)).or_default();
                    sets.resize(args.sets, Vec::new());
                    sets[set].push(value);
                }
            }
        }
    }

    println!(
        "\n{:<12} {:<12} {:>6}  medians per set / spread per set / later set worse by / verdict",
        "workload", "metric", "bound"
    );
    let mut rows = Vec::new();
    let mut breaches = 0;
    for name in WORKLOADS {
        for d in &declared {
            let Some(sets) = values.get(&(name, d.name.clone())) else {
                continue;
            };
            if sets.iter().any(Vec::is_empty) {
                continue;
            }
            let medians: Vec<f64> = sets.iter().map(|s| median(&mut s.clone())).collect();
            let spreads: Vec<f64> = sets
                .iter()
                .map(|s| if s.len() >= 2 { spread(s) } else { 0.0 })
                .collect();
            let worse_by = medians[1..]
                .iter()
                .map(|m| {
                    let change = (m - medians[0]) / medians[0];
                    if d.higher_is_better {
                        -change
                    } else {
                        change
                    }
                })
                .fold(0.0, f64::max);
            // Set-up time is judged on its medians only, as the driver does.
            let too_wide = d.name != "setup_s" && spreads.iter().any(|s| *s > d.bound);
            let breach = worse_by > d.bound || too_wide;
            breaches += usize::from(breach);
            let verdict = if breach { "BREACH" } else { "ok" };
            let list = |xs: &[f64]| {
                xs.iter()
                    .map(|x| format!("{x}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            println!(
                "{name:<12} {:<12} {:>6}  [{}] {} / [{}] / {worse_by:+.4} / {verdict}",
                d.name,
                d.bound,
                medians
                    .iter()
                    .map(|m| format!("{m:.4}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                d.unit,
                spreads
                    .iter()
                    .map(|s| format!("{s:.4}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            rows.push(format!(
                "{{\"workload\":\"{name}\",\"metric\":\"{}\",\"unit\":\"{}\",\"bound\":{},\"medians\":[{}],\"spreads\":[{}],\"worse_by\":{worse_by},\"verdict\":\"{verdict}\"}}",
                d.name,
                d.unit,
                d.bound,
                list(&medians),
                list(&spreads)
            ));
        }
    }
    let body = format!(
        "{{\"env\":{},\"seconds\":{},\"sets\":{},\"runs\":{},\"failed_runs\":{failed_runs},\"rows\":[\n{}\n]}}\n",
        env::env_json(args.seed),
        args.seconds,
        args.sets,
        args.runs,
        rows.join(",\n")
    );
    let path = env::bench_dir().join("AA.json");
    std::fs::write(&path, body).expect("AA.json can be written");
    println!(
        "wrote {}; {breaches} breaches, {failed_runs} failed runs",
        path.display()
    );
    if breaches == 0 && failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layers, END_TO_END};

    fn names_and_units(list: &str) -> Vec<(String, String)> {
        let parsed = benchmark_json();
        let text = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        parsed
            .get(list)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect()
    }

    /// `BENCHMARK.json` and the binary must name the same things.
    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units("end_to_end"), own(&END_TO_END));
        assert_eq!(names_and_units("per_layer"), own(&layers::PER_LAYER));
        let workloads: Vec<String> = names_and_units("workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for d in declared_metrics() {
            assert!(
                d.bound > 0.0 && d.bound <= 0.25,
                "{} bound {}",
                d.name,
                d.bound
            );
        }
    }
}
