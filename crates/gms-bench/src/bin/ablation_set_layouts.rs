//! Ablation: which set layout should back Bron–Kerbosch's P/X sets at
//! which graph density? (The design choice §5.2 calls out; the paper
//! picks roaring bitmaps on million-vertex graphs.)
//!
//! The sweep is driven by the unified kernel API: the `bk` kernel
//! declares its `layout` parameter's admissible values in its
//! [`ParamSpec`](gms_platform::kernel::ParamSpec) schema, and this binary enumerates that schema —
//! registering a new set layout automatically adds a column here.
//! The instrumented `counting` layout is skipped (it measures the
//! sorted layout, with counter overhead on top).
//!
//! Since the `bk` kernel's default `subgraph` is `outermost`, every
//! layout here backs sets over each root's local ids (`0..|N(v)|`), not
//! the graph's `n` ids. Measured shape (median of 7 alternating runs,
//! 2-vCPU x86 VM, release; ms of mine time, commit 0a6734b, whose
//! default was `subgraph=none` in global ids → local ids):
//!
//! | graph | dense | sorted | roaring | hash |
//! |---|---|---|---|---|
//! | sparse(er-1500-0.02) | 9.2 → 5.6 | 17.2 → 7.5 | 19.8 → 11.1 | 10.1 → 7.5 |
//! | medium(er-800-0.10) | 26.8 → 22.8 | 81.6 → 48.6 | 102.7 → 65.9 | 43.4 → 42.1 |
//! | dense(er-350-0.25) | 37.8 → 39.5 | 117.5 → 100.6 | 153.2 → 121.0 | 69.6 → 81.3 |
//!
//! Dense bitvectors lead at every density: over a local universe a
//! neighborhood is a word or two. Sorted arrays and roaring gain the
//! most from local ids on sparse graphs (their merges no longer skip
//! through global ids) but still trail by 1.3–3×; roaring's chunks stay
//! in sorted-u16 array form at this scale, so it cannot engage its
//! bitmap containers (its advantage needs n ≫ 65536 or dense chunks,
//! which the `set_ops` criterion bench demonstrates directly). Hash
//! sets sit between, and lose a little on the densest graph, where
//! local rows are large.

use gms_platform::kernel::{Params, Registry};

fn main() {
    let graphs = [
        ("sparse(er-1500-0.02)", gms_gen::gnp(1500, 0.02, 1)),
        ("medium(er-800-0.10)", gms_gen::gnp(800, 0.10, 1)),
        ("dense(er-350-0.25)", gms_gen::gnp(350, 0.25, 1)),
    ];
    let registry = Registry::with_builtins();
    let bk = registry.get("bk").expect("bk is registered");
    let layouts: Vec<&str> = bk
        .params()
        .iter()
        .find(|spec| spec.name == "layout")
        .expect("bk declares a layout parameter")
        .choices
        .iter()
        .copied()
        .filter(|&layout| layout != "counting")
        .collect();

    println!("graph,layout,cliques,mine_s");
    for (name, graph) in &graphs {
        let runs: Vec<(&str, u64, f64)> = layouts
            .iter()
            .map(|&layout| {
                let params = Params::new()
                    .with("layout", layout)
                    .with("ordering", "degeneracy");
                let outcome = registry.run("bk", graph, &params).expect("valid layout");
                (
                    layout,
                    outcome.patterns,
                    outcome.timings.kernel.as_secs_f64(),
                )
            })
            .collect();
        let counts: Vec<u64> = runs.iter().map(|r| r.1).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "layouts disagree");
        for (layout, cliques, secs) in runs {
            println!("{name},{layout},{cliques},{secs:.4}");
        }
    }
}
