//! Ablation: the three H-subgraph policies of §6.2 — none, outermost
//! (GMS's choice), per-level (Eppstein's original) — across densities,
//! on the default dense-bitset layout.
//!
//! `outermost` and `per-level` build `H` over the root's local ids
//! (`0..|N(v)|`), so their bitsets have `|P ∪ X|` bits; `none` runs on
//! whole-graph sets of `n` bits. Measured shape (median of 7
//! alternating runs, 2-vCPU x86 VM, release; ms of mine time, commit
//! 0a6734b with a global-id `H` → local ids):
//!
//! | graph | none | outermost | per-level |
//! |---|---|---|---|
//! | sparse(er-1500-0.02) | 10.3 → 8.3 | 12.4 → 5.8 | 13.9 → 6.3 |
//! | medium(er-800-0.10) | 28.1 → 27.4 | 32.5 → 21.5 | 48.6 → 32.1 |
//! | dense(er-350-0.25) | 39.7 → 36.7 | 42.5 → 36.5 | 76.0 → 61.7 |
//!
//! With a global-id `H`, outermost was slower than none everywhere: it
//! kept `n`-bit sets and added a hash lookup per neighborhood. In local
//! ids it is the fastest policy at every density (tied with none on
//! the densest graph), by the most on the sparsest, where
//! `|P ∪ X| ≪ n`. Per-level rebuild overheads still outweigh its gains
//! over outermost, the paper's finding.
//!
//! Like `ablation_set_layouts`, the sweep enumerates the `bk`
//! kernel's own parameter schema through the unified kernel API: the
//! policies tested are exactly the `subgraph` choices the kernel
//! declares.

use gms_platform::kernel::{Params, Registry};

fn main() {
    let graphs = [
        ("sparse(er-1500-0.02)", gms_gen::gnp(1500, 0.02, 1)),
        ("medium(er-800-0.10)", gms_gen::gnp(800, 0.10, 1)),
        ("dense(er-350-0.25)", gms_gen::gnp(350, 0.25, 1)),
    ];
    let registry = Registry::with_builtins();
    let modes = registry
        .get("bk")
        .expect("bk is registered")
        .params()
        .iter()
        .find(|spec| spec.name == "subgraph")
        .expect("bk declares a subgraph parameter")
        .choices;

    println!("graph,subgraph_mode,cliques,mine_s");
    for (name, graph) in &graphs {
        let mut counts = Vec::new();
        for &mode in modes {
            let outcome = registry
                .run("bk", graph, &Params::new().with("subgraph", mode))
                .expect("valid subgraph mode");
            counts.push(outcome.patterns);
            println!(
                "{name},{mode},{},{:.4}",
                outcome.patterns,
                outcome.timings.kernel.as_secs_f64()
            );
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "modes disagree");
    }
}
