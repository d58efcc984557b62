//! Figure 8b: machine-efficiency analysis, emitted as JSON.
//!
//! Runs three load-imbalanced kernels — Bron–Kerbosch maximal clique
//! listing, edge-parallel k-clique counting, and the parallel
//! subgraph-isomorphism driver — through `gms_platform::run_scaling`
//! at 1/2/4/8 threads and reports per-point runtime, speedup and
//! parallel efficiency. All three are requested by name through the
//! unified kernel [`Registry`] with typed [`Params`]; the BK rows use
//! the `counting` set layout, which routes every set operation
//! through the software counters (the PAPI substitute; see
//! `gms_platform::counters`), so they additionally carry the
//! memory-pressure proxy (bytes touched by set operations per
//! second). Paper shape:
//! speedups flatten as threads grow while the memory-traffic rate
//! keeps climbing — the memory-bound signature of maximal clique
//! listing.
//!
//! The full thread series runs even when the machine has fewer cores:
//! on an oversubscribed pool the curve goes flat, which is itself the
//! saturation signal this figure reports.

use gms_bench::scale_from_env;
use gms_platform::counters::CounterRegion;
use gms_platform::kernel::{Params, Registry};
use gms_platform::{efficiencies, run_scaling, series_json_rows_with, ScalingPoint};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Formats one kernel's series through the shared platform row
/// builder, attaching efficiency plus any kernel-specific extra
/// fields (aligned with the series).
fn rows_for(kernel: &str, series: &[ScalingPoint], extras: &[String]) -> Vec<String> {
    let with_eff: Vec<String> = efficiencies(series)
        .iter()
        .enumerate()
        .map(|(i, eff)| {
            format!(
                ",\"efficiency\":{:.3}{}",
                eff,
                extras.get(i).map(String::as_str).unwrap_or("")
            )
        })
        .collect();
    series_json_rows_with(kernel, series, &with_eff)
}

fn main() {
    let s = scale_from_env();
    let clique_rich = gms_gen::planted_cliques(1_200 * s, 0.004, 10, 9, 103).0;
    let social = gms_gen::kronecker_default(11, 10, 101);
    let registry = Registry::with_builtins();

    let mut rows: Vec<String> = Vec::new();

    // Bron–Kerbosch, instrumented: the `counting` layout feeds the
    // software counters so each point also reports set-op memory
    // traffic.
    let bk_params = Params::new().with("layout", "counting");
    for (name, graph) in [("clique-rich", &clique_rich), ("social-kron", &social)] {
        let mut series = Vec::new();
        let mut extras = Vec::new();
        for &t in &THREADS {
            let region = CounterRegion::start();
            let point = run_scaling(&[t], || {
                let outcome = registry.run("bk", graph, &bk_params).expect("bk params");
                std::hint::black_box(outcome.patterns);
            })[0];
            let stats = region.stop();
            let secs = point.elapsed.as_secs_f64();
            extras.push(format!(
                ",\"set_ops\":{},\"bytes_touched\":{},\"bytes_per_second\":{:.3e}",
                stats.set_ops,
                stats.bytes_touched(),
                stats.bytes_touched() as f64 / secs.max(1e-12),
            ));
            series.push(point);
        }
        rows.extend(rows_for(&format!("bk/{name}"), &series, &extras));
    }

    // Edge-parallel k-clique counting (recursive-split root edges).
    let kc_params = Params::new().with("k", 4);
    let kc_series = run_scaling(&THREADS, || {
        let outcome = registry
            .run("k-clique", &social, &kc_params)
            .expect("k-clique params");
        std::hint::black_box(outcome.patterns);
    });
    rows.extend(rows_for("kclique4/social-kron", &kc_series, &[]));

    // Parallel subgraph isomorphism on each point's installed pool,
    // reporting the kernel-stage time from the outcome.
    let iso_target = gms_gen::gnp(600 * s, 0.02, 5);
    let iso_series: Vec<ScalingPoint> = THREADS
        .iter()
        .map(|&t| {
            let params = Params::new().with("query", "path4").with("stealing", true);
            let kernel_nanos = std::sync::atomic::AtomicU64::new(0);
            run_scaling(&[t], || {
                let outcome = registry
                    .run("subgraph-iso-par", &iso_target, &params)
                    .expect("iso params");
                kernel_nanos.store(
                    outcome.timings.kernel.as_nanos() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
                std::hint::black_box(outcome.patterns);
            });
            ScalingPoint {
                threads: t,
                elapsed: std::time::Duration::from_nanos(
                    kernel_nanos.load(std::sync::atomic::Ordering::Relaxed),
                ),
            }
        })
        .collect();
    rows.extend(rows_for("subgraph-iso/gnp", &iso_series, &[]));

    println!(
        "{{\"figure\":\"fig08b_machine_eff\",\"rows\":[\n  {}\n]}}",
        rows.join(",\n  ")
    );
}
