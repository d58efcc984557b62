//! Writes `BENCH_scaling.json`: thread-scaling rows for every
//! registered pattern-mining kernel on a seeded Kronecker graph at
//! 1/2/4 threads (each point the median of repeated runs after a
//! warmup — see `run_scaling` — and every kernel first run once
//! untimed at every width), plus a set-algebra microbenchmark
//! lane reporting count-kernel throughput per set layout.
//!
//! The kernels come from the unified [`Registry`], not from
//! hand-wired calls: registering a new pattern kernel adds it to
//! this trajectory automatically. The artifact is a perf history:
//! future PRs rerun this binary on the same machine and diff the
//! JSON to see whether the scheduler or the kernels regressed. On a
//! single-core container the speedups hover around 1.0 (the
//! work-stealing paths still execute — workers are real threads —
//! there is just no extra hardware to win with); on a multi-core box
//! the curve should rise until memory bandwidth flattens it (§8.1.3).
//!
//! Set-op lane rows look like ordinary rows with kernel
//! `setops_<layout>` and an extra `"ops_per_s"` field: the number of
//! `intersect_count`/`union_count`/`diff_count` calls per second over
//! Kronecker neighborhood pairs. These pin the u64-block and
//! galloping count kernels against accidental deoptimization.
//!
//! With `GMS_ENFORCE_SPEEDUP_FLOOR=1` (the CI release-smoke setting)
//! the binary exits nonzero if any Bron–Kerbosch kernel's (`bk` and
//! every `bk-*` variant) or `k-clique`'s 4-thread speedup falls below
//! 1.0 — the kernels that split work on demand must never be slower
//! in parallel than sequentially on a multi-core runner.
//!
//! ```sh
//! cargo run --release -p gms-bench --bin bench_scaling
//! ```

use gms_bench::scale_from_env;
use gms_core::{
    CsrGraph, DenseBitSet, Graph, HashVertexSet, NodeId, RoaringSet, Set, SortedVecSet,
    SparseBitSet,
};
use gms_platform::kernel::{Category, Params, Registry};
use gms_platform::{run_scaling, series_json_rows_with};
use std::time::Instant;

/// Times `intersect_count` + `union_count` + `diff_count` over every
/// adjacent neighborhood pair of the graph, returning a JSON row with
/// ops/s. Median of three timed passes after one warmup pass, same
/// discipline as the kernel lane.
fn setop_lane_row<S: Set>(layout: &str, graph: &CsrGraph) -> String {
    let sets: Vec<S> = (0..graph.num_vertices() as NodeId)
        .map(|v| S::from_sorted(graph.neighbors_slice(v)))
        .collect();
    let pairs: Vec<(&S, &S)> = sets.windows(2).map(|w| (&w[0], &w[1])).collect();
    let pass = || {
        let mut acc = 0usize;
        for (a, b) in &pairs {
            acc += a.intersect_count(b);
            acc += a.union_count(b);
            acc += a.diff_count(b);
        }
        std::hint::black_box(acc);
    };
    pass(); // warmup
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    let secs = samples[1].max(1e-12);
    let ops = (pairs.len() * 3) as f64;
    format!(
        "{{\"kernel\":\"setops_{}\",\"threads\":1,\"ms\":{:.3},\"speedup\":1.000,\"ops_per_s\":{:.0}}}",
        layout,
        secs * 1e3,
        ops / secs,
    )
}

fn main() {
    let s = scale_from_env() as u32;
    // Seeded Kronecker graph (deterministic across runs/machines).
    let graph = gms_gen::kronecker_default(10 + s.ilog2(), 12, 7);
    let thread_counts = [1usize, 2, 4];
    let registry = Registry::with_builtins();
    let mut rows: Vec<String> = Vec::new();
    // (kernel, threads, speedup) points for the floor check.
    let mut speedups: Vec<(String, usize, f64)> = Vec::new();

    // Every pattern kernel at its default parameters: the paper's BK
    // variants, the parameterized BK, k-cliques, triangles,
    // clique-stars — and whatever the registry gains next.
    let kernels = registry.by_category(Category::Pattern);
    let params = Params::new();
    let run = |name: &str| {
        let outcome = registry
            .run(name, &graph, &params)
            .expect("default params are valid");
        std::hint::black_box(outcome.patterns);
    };
    // One untimed pass of every kernel at every width before the first
    // series: `run_scaling` warms each point up, but only the process's
    // first runs pay its cold start (pool spawns, page faults, allocator
    // growth), which moved the first kernel's rows by half between runs.
    for &threads in &thread_counts {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool")
            .install(|| kernels.iter().for_each(|kernel| run(kernel.name())));
    }
    for kernel in kernels {
        let series = run_scaling(&thread_counts, || run(kernel.name()));
        if let Some(first) = series.first() {
            for point in &series {
                speedups.push((
                    kernel.name().to_string(),
                    point.threads,
                    point.speedup_vs(first.elapsed),
                ));
            }
        }
        rows.extend(series_json_rows_with(kernel.name(), &series, &[]));
    }

    // Set-algebra lane: count-kernel throughput per layout.
    rows.push(setop_lane_row::<SortedVecSet>("sorted", &graph));
    rows.push(setop_lane_row::<DenseBitSet>("dense", &graph));
    rows.push(setop_lane_row::<HashVertexSet>("hash", &graph));
    rows.push(setop_lane_row::<SparseBitSet>("sparse_bits", &graph));
    rows.push(setop_lane_row::<RoaringSet>("roaring", &graph));

    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    let path = "BENCH_scaling.json";
    std::fs::write(path, &json).expect("write BENCH_scaling.json");
    println!("{json}");
    eprintln!("wrote {path}");

    if std::env::var("GMS_ENFORCE_SPEEDUP_FLOOR").is_ok_and(|v| v == "1") {
        let floored: Vec<_> = speedups
            .iter()
            .filter(|(k, t, _)| (k.starts_with("bk") || k == "k-clique") && *t == 4)
            .collect();
        assert!(!floored.is_empty(), "bk kernels present in registry");
        let mut slow = false;
        for (kernel, _, speedup) in floored {
            eprintln!("speedup floor check: {kernel} @4T = {speedup:.3}");
            if *speedup < 1.0 {
                eprintln!("FAIL: {kernel} 4-thread speedup {speedup:.3} < 1.0 — parallel slowdown");
                slow = true;
            }
        }
        if slow {
            std::process::exit(1);
        }
    }
}
