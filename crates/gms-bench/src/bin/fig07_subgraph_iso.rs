//! Figure 7: subgraph isomorphism thread scaling — the baseline
//! static-split driver vs the GMS optimizations (work stealing,
//! galloping/"SIMD" set algebra, candidate precompute) on a labeled
//! Erdős–Rényi target (the §8.5 dataset, scaled down to
//! `examples/subgraph_search.rs`'s `gnp(250, 0.2)` with 5 labels, so
//! a full run takes well under a minute on 2 vCPUs; the original is
//! n=10000, p=0.2 with induced queries). Paper shape: runtime falls
//! with threads; each optimization layer lowers the curve, with
//! stealing mattering most at high thread counts and the SIMD +
//! precompute layers giving constant-factor gains (≈1.1× and beyond).
//!
//! Every variant takes its candidates from neighborhood intersections
//! and differences; `+simd` switches those from a plain merge to the
//! adaptive galloping / block-skipping one, and `+precompute` filters
//! the root candidates by label and degree up front. Each point runs
//! on an installed pool of its width through `run_scaling`, so its
//! time is the median of three runs after a warm-up.

use gms_bench::print_csv;
use gms_match::{count_embeddings_parallel, IsoMode, IsoOptions, LabeledGraph, ParallelIsoConfig};
use gms_platform::run_scaling;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    let scale = gms_bench::scale_from_env();
    let target = LabeledGraph::random_labels(gms_gen::gnp(250 * scale, 0.2, 5), 5, 5);
    let query = target.induced(&[3, 57, 101, 200, 211, 17]);

    let variants: [(&str, bool, bool, bool); 4] = [
        // (label, stealing, galloping, precompute)
        ("split", false, false, false),
        ("+stealing", true, false, false),
        ("+simd", true, true, false),
        ("+precompute", true, true, true),
    ];
    let mut rows = Vec::new();
    let mut expected = None;
    for (label, stealing, galloping, precompute) in variants {
        let config = ParallelIsoConfig {
            work_stealing: stealing,
            options: IsoOptions {
                mode: IsoMode::Induced,
                precompute,
                galloping,
                limit: u64::MAX,
            },
        };
        let found = AtomicU64::new(0);
        let points = run_scaling(&[1, 2, 4, 8], || {
            let count = count_embeddings_parallel(&query, &target, &config);
            found.store(count, Ordering::Relaxed);
        });
        let found = found.into_inner();
        match expected {
            None => expected = Some(found),
            Some(e) => assert_eq!(e, found, "configs must agree"),
        }
        for point in points {
            let (threads, time_s) = (point.threads, point.elapsed.as_secs_f64());
            rows.push(format!("{threads},{label},{found},{time_s:.4}"));
        }
    }
    print_csv("threads,variant,embeddings,time_s", &rows);
}
