//! Writes `BENCH_compression.json`: bytes-per-edge vs kernel-slowdown
//! curves for the compressed serving backend — every gallery
//! archetype in the selected subset, held raw, gap-compressed, and
//! gap-compressed after a BFS locality reordering, with the pattern
//! kernels (triangle-count, bk, k-clique) and the decode-native
//! k-core peel timed on each resident representation through the
//! same entry point the serving layer uses ([`execute`] over a raw or
//! compressed [`GraphView`]).
//!
//! Each row reports the representation's adjacency heap footprint in
//! bytes per stored arc and the kernel's wall-clock slowdown against
//! the raw CSR run of the same kernel on the same graph — the
//! space/time trade-off of §2.3's compressed representations, on the
//! serving path rather than in isolation.
//!
//! Every cell is the median of [`REPEATS`] timed runs after one
//! warm-up run, and every row records that count, so a reader can
//! tell a regression from run-to-run noise.
//!
//! The binary enforces two bounds and exits nonzero (CI release
//! smoke) if either fails: the compression *floor* — on at least one
//! gallery graph, gap+reorder must shrink bytes-per-arc by ≥ 2×
//! against the raw CSR — and the slowdown *ceiling* — on
//! `social-kron`, `triangle-count` on the gap and gap+reorder
//! residents must cost at most [`TRIANGLE_SLOWDOWN_CEILING`]× the raw
//! CSR run (the decode-once oriented kernel sits near 1×; the
//! per-arc re-decode it replaced sat at 3.8×).
//!
//! ```sh
//! cargo run --release -p gms-bench --bin bench_compression
//! ```

use gms_bench::{gallery, scale_from_env};
use gms_core::{CsrGraph, Graph};
use gms_graph::CompressedCsr;
use gms_platform::kernel::{execute, GraphView, Kernel, Params, Registry, RunCx};
use std::time::Instant;

const KERNELS: [&str; 4] = ["triangle-count", "bk", "k-clique", "k-core"];
const DATASETS: [&str; 3] = ["social-kron", "clique-rich", "road-grid"];

/// Timed runs per cell, after one warm-up run.
const REPEATS: usize = 5;

/// Most a compressed `triangle-count` may cost against the raw CSR
/// run on `social-kron` before the binary fails.
const TRIANGLE_SLOWDOWN_CEILING: f64 = 2.0;

/// Median wall clock (seconds) of [`REPEATS`] runs after one warm-up.
fn timed(mut run: impl FnMut() -> u64) -> (u64, f64) {
    let patterns = run(); // warmup; also the answer
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(run());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_unstable_by(f64::total_cmp);
    (patterns, samples[REPEATS / 2].max(1e-12))
}

/// Raw CSR adjacency footprint: the offsets and targets arrays.
fn raw_bytes(graph: &CsrGraph) -> usize {
    std::mem::size_of_val(graph.offsets()) + std::mem::size_of_val(graph.adjacency())
}

struct Scheme<'a> {
    name: &'static str,
    bytes_per_arc: f64,
    compressed: Option<&'a CompressedCsr>,
}

fn main() {
    let datasets = gallery(scale_from_env());
    let registry = Registry::with_builtins();
    let params = Params::new();
    let mut rows: Vec<String> = Vec::new();
    let mut best_reduction: (f64, &'static str) = (0.0, "none");
    let mut worst_triangle_slowdown: (f64, &'static str) = (0.0, "none");

    for dataset in datasets.iter().filter(|d| DATASETS.contains(&d.name)) {
        let graph = &dataset.graph;
        let arcs = graph.num_arcs().max(1) as f64;
        let gap = CompressedCsr::from_csr(graph);
        let rank = gms_order::bfs_order(graph, 0);
        let reordered = CompressedCsr::from_csr_ordered(graph, &rank);
        let raw_bpa = raw_bytes(graph) as f64 / arcs;
        let schemes = [
            Scheme {
                name: "raw",
                bytes_per_arc: raw_bpa,
                compressed: None,
            },
            Scheme {
                name: "gap",
                bytes_per_arc: gap.bytes_per_arc(),
                compressed: Some(&gap),
            },
            Scheme {
                name: "gap+reorder",
                bytes_per_arc: reordered.bytes_per_arc(),
                compressed: Some(&reordered),
            },
        ];
        let reduction = raw_bpa / schemes[2].bytes_per_arc.max(1e-12);
        if reduction > best_reduction.0 {
            best_reduction = (reduction, dataset.name);
        }

        for kernel_name in KERNELS {
            let kernel: &dyn Kernel = registry.get(kernel_name).expect("builtin kernel");
            let run = |view| {
                execute(kernel, &RunCx::new(view, &params, kernel.params()))
                    .expect("default params are valid")
                    .patterns
            };
            let (raw_patterns, raw_secs) = timed(|| run(GraphView::Raw(graph)));
            for scheme in &schemes {
                let (patterns, secs) = match scheme.compressed {
                    None => (raw_patterns, raw_secs),
                    Some(compressed) => timed(|| run(GraphView::Compressed(compressed))),
                };
                // The reordered backend is a relabeled isomorph;
                // pattern counts are isomorphism invariants.
                assert_eq!(
                    patterns, raw_patterns,
                    "{kernel_name} on {}/{} disagrees with the raw run",
                    dataset.name, scheme.name
                );
                let slowdown = secs / raw_secs;
                if scheme.compressed.is_some()
                    && dataset.name == "social-kron"
                    && kernel_name == "triangle-count"
                    && slowdown > worst_triangle_slowdown.0
                {
                    worst_triangle_slowdown = (slowdown, scheme.name);
                }
                rows.push(format!(
                    "{{\"graph\":\"{}\",\"scheme\":\"{}\",\"kernel\":\"{}\",\
                     \"bytes_per_arc\":{:.3},\"ms\":{:.3},\"slowdown_vs_raw\":{:.3},\
                     \"repeats\":{},\"patterns\":{}}}",
                    dataset.name,
                    scheme.name,
                    kernel_name,
                    scheme.bytes_per_arc,
                    secs * 1e3,
                    slowdown,
                    REPEATS,
                    patterns,
                ));
            }
        }
    }

    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    let path = "BENCH_compression.json";
    std::fs::write(path, &json).expect("write BENCH_compression.json");
    println!("{json}");
    eprintln!("wrote {path}");
    eprintln!(
        "compression floor check: best gap+reorder reduction {:.2}x (on {})",
        best_reduction.0, best_reduction.1
    );
    eprintln!(
        "slowdown ceiling check: worst compressed triangle-count on social-kron {:.2}x raw (on {})",
        worst_triangle_slowdown.0, worst_triangle_slowdown.1
    );
    let mut failed = false;
    if best_reduction.0 < 2.0 {
        eprintln!("FAIL: gap+reorder never reached a 2x bytes-per-arc reduction over the raw CSR");
        failed = true;
    }
    if worst_triangle_slowdown.0 > TRIANGLE_SLOWDOWN_CEILING {
        eprintln!(
            "FAIL: compressed triangle-count exceeds {TRIANGLE_SLOWDOWN_CEILING}x the raw CSR run on social-kron"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
