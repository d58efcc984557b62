//! Thread-scaling harness (§8.1.3 / Fig. 8b): runs a kernel under
//! rayon pools of increasing size and reports the runtime series, so
//! speedup curves and their flattening (the memory-bound signature)
//! can be measured.

use std::time::Duration;

/// One point of a scaling series.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Threads used.
    pub threads: usize,
    /// Wall-clock runtime.
    pub elapsed: Duration,
}

impl ScalingPoint {
    /// Speedup relative to a baseline runtime.
    pub fn speedup_vs(&self, baseline: Duration) -> f64 {
        baseline.as_secs_f64() / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Timed repeats per point (see [`run_scaling`]): three, so the
/// median is a real middle element.
const REPEATS: usize = 3;

/// Runs `kernel` under a dedicated rayon pool per thread count and
/// reports, for each point, the **median of three timed repeats after
/// one untimed warmup run**. The warmup pays the one-time costs
/// (worker spawn, scratch-buffer growth, page faults on freshly
/// touched data) and the median discards the stray outlier an
/// arithmetic mean would smear into the curve.
///
/// # Panics
/// Panics if a pool cannot be built (e.g. 0 threads requested).
pub fn run_scaling<F: Fn() + Sync>(thread_counts: &[usize], kernel: F) -> Vec<ScalingPoint> {
    thread_counts
        .iter()
        .map(|&threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            pool.install(&kernel); // warmup: untimed
            let mut samples: Vec<Duration> = (0..REPEATS)
                .map(|_| {
                    let start = std::time::Instant::now();
                    pool.install(&kernel);
                    start.elapsed()
                })
                .collect();
            samples.sort_unstable();
            ScalingPoint {
                threads,
                elapsed: samples[REPEATS / 2],
            }
        })
        .collect()
}

/// Formats a series as JSON rows `{"kernel","threads","ms","speedup"}`,
/// speedup measured against the series' first point, with per-point
/// extra fields: `extras[i]` is spliced verbatim before the row's
/// closing brace (e.g. `,"efficiency":0.5`), so kernel-specific
/// columns share one row format instead of forking it. The
/// machine-efficiency artifacts (`fig08b_machine_eff`,
/// `BENCH_scaling.json`) are built from these rows; hand-rolled
/// because the offline `serde` shim carries no data format.
pub fn series_json_rows_with(
    kernel: &str,
    series: &[ScalingPoint],
    extras: &[String],
) -> Vec<String> {
    let Some(first) = series.first() else {
        return Vec::new();
    };
    let base = first.elapsed;
    series
        .iter()
        .enumerate()
        .map(|(i, point)| {
            format!(
                "{{\"kernel\":\"{}\",\"threads\":{},\"ms\":{:.3},\"speedup\":{:.3}{}}}",
                kernel,
                point.threads,
                point.elapsed.as_secs_f64() * 1e3,
                point.speedup_vs(base),
                extras.get(i).map(String::as_str).unwrap_or(""),
            )
        })
        .collect()
}

/// Parallel efficiency of a series: speedup(p) / p per point, using
/// the first point as the baseline.
pub fn efficiencies(series: &[ScalingPoint]) -> Vec<f64> {
    let Some(first) = series.first() else {
        return Vec::new();
    };
    let base = first.elapsed.as_secs_f64() * first.threads as f64;
    series
        .iter()
        .map(|p| base / (p.elapsed.as_secs_f64().max(1e-12) * p.threads as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn pools_actually_limit_threads() {
        let series = run_scaling(&[1, 2], || {
            let width = rayon::current_num_threads();
            // Inside a pool of size p, current_num_threads reports p.
            let observed: usize = (0..4).into_par_iter().map(|_| width).max().unwrap();
            assert_eq!(observed, width);
        });
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].threads, 1);
        assert_eq!(series[1].threads, 2);
    }

    #[test]
    fn parallel_work_speeds_up() {
        // A compute-bound parallel loop (expensive per-item closures,
        // like a mining subtree) must not be slower with 4 threads
        // than with 1 beyond a generous noise margin — even on a
        // single-core host, where the 4-wide pool is oversubscribed
        // and the scheduler overhead is all cost, no benefit.
        let work = || {
            let total: u64 = (0..2_000u64)
                .into_par_iter()
                .map(|x| {
                    (0..2_000u64).fold(x, |acc, i| acc ^ (acc.wrapping_mul(31).wrapping_add(i)))
                        % 1_000
                })
                .sum();
            std::hint::black_box(total);
        };
        let series = run_scaling(&[1, 4], work);
        let speedup = series[1].speedup_vs(series[0].elapsed);
        assert!(speedup > 0.6, "speedup {speedup}");
    }

    #[test]
    fn each_point_runs_warmup_plus_repeats() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let series = run_scaling(&[1, 2], || {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(series.len(), 2);
        // One untimed warmup plus three timed runs per point.
        assert_eq!(calls.load(Ordering::Relaxed), 2 * 4);
    }

    #[test]
    fn json_rows_carry_speedup_vs_first_point() {
        let series = vec![
            ScalingPoint {
                threads: 1,
                elapsed: Duration::from_millis(80),
            },
            ScalingPoint {
                threads: 4,
                elapsed: Duration::from_millis(20),
            },
        ];
        let rows = series_json_rows_with("bk", &series, &[",\"x\":1".to_string()]);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            "{\"kernel\":\"bk\",\"threads\":1,\"ms\":80.000,\"speedup\":1.000,\"x\":1}"
        );
        assert_eq!(
            rows[1],
            "{\"kernel\":\"bk\",\"threads\":4,\"ms\":20.000,\"speedup\":4.000}"
        );
        assert!(series_json_rows_with("bk", &[], &[]).is_empty());
    }

    #[test]
    fn efficiency_math() {
        let series = vec![
            ScalingPoint {
                threads: 1,
                elapsed: Duration::from_secs(8),
            },
            ScalingPoint {
                threads: 4,
                elapsed: Duration::from_secs(2),
            },
            ScalingPoint {
                threads: 8,
                elapsed: Duration::from_secs(2),
            },
        ];
        let eff = efficiencies(&series);
        assert!((eff[0] - 1.0).abs() < 1e-9);
        assert!((eff[1] - 1.0).abs() < 1e-9, "perfect scaling to 4");
        assert!((eff[2] - 0.5).abs() < 1e-9, "flattening halves efficiency");
        assert!(efficiencies(&[]).is_empty());
    }
}
