//! GMS-Bench v1 — see `benchmark/README.md`.
//!
//! ```text
//! gms-benchmark run [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//!     every workload, each in a child process of its own
//! gms-benchmark run --workload W ...
//!     one workload in this process; the last line of standard output
//!     is one JSON object: correct, attempted, failed, metrics
//! gms-benchmark aa [--sets 2] [--runs 3] [--seconds S]
//!     the suite as sets of runs of one build; writes AA.json
//! gms-benchmark expected
//!     prints expected.json from the current build
//! ```

mod aa;
mod env;
mod graphs;
mod layers;
mod mine;
mod serve;
mod stats;
mod trace;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use gms_serve::json::Json;

use crate::stats::{median, samples_beyond};
use crate::workload::{Check, WORKLOADS};

/// The default `--seed`.
const DEFAULT_SEED: u64 = 20210;
/// The default `--seconds`, which `BENCHMARK.json` also names.
const DEFAULT_SECONDS: f64 = 12.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The end-to-end metrics with their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

#[derive(Clone)]
pub struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 3,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    let number = |text: &String| {
        text.parse::<f64>()
            .map_err(|_| format!("not a number: {text}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                let known = WORKLOADS.iter().find(|w| *w == name);
                parsed.workload = Some(known.ok_or_else(|| format!("no workload named {name}"))?);
            }
            "--seed" => parsed.seed = number(value(&mut i)?)? as u64,
            "--seconds" => parsed.seconds = number(value(&mut i)?)?,
            "--sets" => parsed.sets = number(value(&mut i)?)? as usize,
            "--runs" => parsed.runs = number(value(&mut i)?)? as usize,
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                parsed.trace = true;
                if let Some(flag) = args.get(i + 1).filter(|a| *a == "0" || *a == "1") {
                    parsed.trace = flag == "1";
                    i += 1;
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if parsed.smoke {
        parsed.seconds = 1.0;
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(parsed)
}

/// One run's result: what the final JSON line carries.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name to `(value, unit, samples)`.
    pub metrics: BTreeMap<String, (f64, String, u64)>,
}

impl RunResult {
    /// The `metrics` object; sample counts are for `result.json` only.
    fn metrics_json(&self, with_samples: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit, samples))| {
                let samples = if with_samples && *samples > 0 {
                    format!(",\"samples\":{samples}")
                } else {
                    String::new()
                };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"{samples}}}")
            })
            .collect();
        format!("{{{}}}", metrics.join(","))
    }

    /// The last line of a run's standard output.
    fn to_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(false)
        )
    }

    fn from_json(line: &str) -> Option<Self> {
        let parsed = Json::parse(line).ok()?;
        let metrics = parsed
            .get("metrics")?
            .as_object()?
            .iter()
            .filter_map(|(name, m)| {
                let unit = m.get("unit")?.as_str()?.to_string();
                Some((name.clone(), (m.get("value")?.as_f64()?, unit, 0)))
            })
            .collect();
        Some(Self {
            correct: parsed.get("correct")?.as_bool()?,
            attempted: parsed.get("attempted")?.as_i64()? as u64,
            failed: parsed.get("failed")?.as_i64()? as u64,
            metrics,
        })
    }
}

fn report_failures(check: &Check) {
    for failure in &check.failures {
        println!("WRONG ANSWER: {failure}");
    }
}

/// One workload, spans off: the end-to-end metrics.
fn run_untraced(name: &'static str, args: &Args) -> RunResult {
    let mut check = Check::default();
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let start = Instant::now();
        let workload = workload::setup(name, args.seed);
        setups.push(start.elapsed().as_secs_f64());
        workload
    };
    let mut workload = timed_setup();
    let section = workload.run(args.seconds, None);
    check.merge(workload.finish());
    // Read before the repeated set-ups below: they would ratchet the
    // heap up by an amount that differs from run to run.
    let peak_rss_mb = env::peak_rss_mb();
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    for _ in 1..repeats {
        check.merge(timed_setup().finish());
    }
    report_failures(&check);

    let samples = section.samples;
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64, samples: u64| {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a listed metric")
            .1;
        println!("{name:>12} {value:>14.4} {unit:<6} ({samples} samples)");
        metrics.insert(name.to_string(), (value, unit.to_string(), samples));
    };
    println!("workload {name}, seed {}, {} s", args.seed, args.seconds);
    put("setup_s", median(&mut setups), repeats as u64);
    put("ops_per_s", section.ops_per_s, section.attempted);
    put("p50_ms", section.p50_ms, samples);
    put("p99_ms", section.p99_ms, samples);
    put("peak_rss_mb", peak_rss_mb, 1);
    println!(
        "{:>12} {} samples lie beyond p99; p99.9 = {:.4} ms",
        "",
        samples_beyond(samples as usize, 0.99),
        section.p999_ms
    );
    if !section.write_ms.is_empty() {
        let mut writes = section.write_ms.clone();
        println!(
            "{:>12} {:>14.4} ms     ({} samples)",
            "write_p50_ms",
            median(&mut writes),
            writes.len()
        );
    }
    if let Some(balance) = section.counts.get("shard_balance") {
        println!(
            "{:>12} {balance:>14.4} least-loaded over most-loaded shard",
            "balance"
        );
    }
    let lag = section.count("lag_p99_ms");
    if lag > serve::MAX_LAG_MS {
        println!("INVALID RUN: the generator ran {lag:.3} ms late at p99; the numbers above are not the system's");
    }
    let failed = section.failed + check.failures.len() as u64;
    RunResult {
        correct: failed == 0,
        attempted: section.attempted + check.attempted,
        failed,
        metrics,
    }
}

/// One workload, spans on: the per-layer metrics.
fn run_traced(name: &'static str, args: &Args) -> RunResult {
    let traced = layers::run(name, args.seed, args.seconds);
    report_failures(&traced.check);
    println!(
        "traced run of {name}, seed {}, {} s",
        args.seed, args.seconds
    );
    let mut metrics = BTreeMap::new();
    for (metric, unit) in layers::PER_LAYER {
        let value = *traced
            .metrics
            .get(metric)
            .unwrap_or_else(|| panic!("the traced run did not measure {metric}"));
        println!("{metric:>42} {value:>16.4} {unit}");
        metrics.insert(metric.to_string(), (value, unit.to_string(), 1));
    }
    let failed = traced.failed + traced.check.failures.len() as u64;
    RunResult {
        correct: failed == 0,
        attempted: traced.attempted + traced.check.attempted,
        failed,
        metrics,
    }
}

/// Runs one workload in a child process, so thread pools, caches and
/// the peak resident set do not leak from one workload into the next.
pub fn run_child(name: &str, args: &Args) -> Option<RunResult> {
    let mut command = Command::new(std::env::current_exe().ok()?);
    command
        .args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.spawn().ok()?.wait_with_output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    let mut result = RunResult::from_json(last).filter(|_| output.status.success())?;
    // The JSON line carries values and units only; the sample counts
    // are in the report above it: `name value unit (N samples)`.
    for line in report.lines() {
        let count = line
            .rsplit_once('(')
            .and_then(|(_, tail)| tail.strip_suffix(" samples)")?.parse().ok());
        let metric = line
            .split_whitespace()
            .next()
            .and_then(|n| result.metrics.get_mut(n));
        if let (Some(metric), Some(count)) = (metric, count) {
            metric.2 = count;
        }
    }
    Some(result)
}

/// Every workload, each in its own child; writes `out/result.json`.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    let mut layer_report = BTreeMap::new();
    for name in WORKLOADS {
        let Some(result) = run_child(name, args) else {
            println!("{name}: the child process failed");
            ok = false;
            continue;
        };
        ok &= result.correct;
        println!(
            "{name}: attempted {}, failed {}\n",
            result.attempted, result.failed
        );
        let (metrics, layers) = if args.trace {
            ("{}".to_string(), result.metrics_json(false))
        } else {
            (result.metrics_json(true), "{}".to_string())
        };
        rows.push(format!(
            "\"{name}\":{{\"metrics\":{metrics},\"attempted\":{},\"failed\":{},\"layer_metrics\":{layers}}}",
            result.attempted, result.failed
        ));
        if args.trace {
            layer_report = result.metrics;
        }
    }
    let path = env::out_dir().join("result.json");
    let body = format!(
        "{{\"env\":{},\"workloads\":{{{}}}}}\n",
        env::env_json(args.seed),
        rows.join(",")
    );
    std::fs::write(&path, body).expect("result.json can be written");
    println!("wrote {}", path.display());
    if args.trace {
        // The three questions ROADMAP leaves open, in benchmark terms;
        // stated, not judged.
        let get = |name: &str| layer_report.get(name).map_or(f64::NAN, |m| m.0);
        println!(
            "rayon.bk.par_efficiency = {:.3} (bk on kron-4k, width 1 against width {})",
            get("rayon.bk.par_efficiency"),
            workload::width()
        );
        println!(
            "gms-graph.triangle_gap_slowdown = {:.2}x (triangle-count on mid-kron, gap over raw)",
            get("gms-graph.triangle_gap_slowdown")
        );
        println!(
            "gms-router.hop_cost_us = {:.1} on top of gms-serve.hit_cost_us = {:.1}",
            get("gms-router.hop_cost_us"),
            get("gms-serve.hit_cost_us")
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one operation failed or answered wrongly");
        ExitCode::FAILURE
    }
}

/// `expected.json` from the current build: every count the workloads check.
fn print_expected() {
    use gms_platform::kernel::Session;
    let mut wanted: BTreeMap<&str, Vec<wire::KernelKey>> = BTreeMap::new();
    for job in mine::MINE_RAW.iter().chain(&mine::MINE_GAP) {
        wanted.entry(job.graph).or_default().push(job.key);
    }
    let hot: Vec<String> = (0..graphs::HOT_GRAPHS).map(graphs::hot_name).collect();
    for name in &hot {
        wanted.entry(name).or_default().extend(graphs::HOT_KEYS);
    }
    let mut lines = Vec::new();
    for (graph, mut keys) in wanted {
        keys.sort();
        keys.dedup();
        let mut session = Session::new();
        let handle = session.add_graph(graphs::generate(graph));
        for key in keys {
            let outcome = session
                .run(key.kernel, handle, &graphs::params_of(key))
                .expect("kernel runs");
            let entry = graphs::Expected::entry(graph, key).replace('"', "\\\"");
            lines.push(format!("  \"{entry}\": {}", outcome.patterns));
        }
    }
    println!("{{\n{}\n}}", lines.join(",\n"));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `run` may be left out: `gms-benchmark --workload W ...`.
    let (command, rest) = match argv.split_first() {
        Some((command, rest)) if !command.starts_with("--") => (command.as_str(), rest),
        _ => ("run", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("gms-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    match (command, args.workload) {
        ("run", Some(name)) => {
            let result = if args.trace {
                run_traced(name, &args)
            } else {
                run_untraced(name, &args)
            };
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        ("run", None) => run_all(&args),
        ("aa", _) => aa::run(&args),
        ("expected", _) => {
            print_expected();
            ExitCode::SUCCESS
        }
        (other, _) => {
            eprintln!("gms-benchmark: unknown command {other}");
            ExitCode::from(2)
        }
    }
}
