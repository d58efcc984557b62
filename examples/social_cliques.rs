//! Social-network scenario: dense-group discovery end to end.
//!
//! The paper motivates graph mining with social analysis — finding
//! tightly-knit groups (cliques, clique-stars, k-cores) in friendship
//! graphs. This example builds a power-law "social" graph, compares
//! orderings, and walks the dense-subgraph toolchain.
//!
//! ```sh
//! cargo run --release --example social_cliques
//! ```

use gms::order::{approx_degeneracy_order, degeneracy_order, k_core_by_peeling};
use gms::pattern::k_clique_stars;
use gms::prelude::*;

fn main() {
    // A power-law (Kronecker/RMAT) graph: hubs + skewed degrees, the
    // load-balancing stress case of §4.2.
    let graph = gms::gen::kronecker_default(12, 10, 99);
    let stats = GraphStats::compute("kron-12", &graph);
    println!("{}", GraphStats::header());
    println!("{}\n", stats.row());

    // Exact vs approximate degeneracy: the §6.1 trade-off. ADG runs in
    // O(log n) rounds and its order bound stays within (2+ε)·d.
    let exact = degeneracy_order(&graph);
    println!("exact degeneracy d = {}", exact.degeneracy);
    for epsilon in [0.5, 0.1, 0.01] {
        let adg = approx_degeneracy_order(&graph, epsilon);
        println!(
            "ADG(ε={epsilon:<4}) rounds = {:>3}   out-degree bound = {:>3}  (≤ (2+ε)d = {:.0})",
            adg.rounds,
            adg.out_degree_bound,
            (2.0 + epsilon) * exact.degeneracy as f64
        );
    }

    // Community cores: the k-core hierarchy.
    println!("\nk-core sizes:");
    for k in [2, 4, 8, 16] {
        let core = k_core_by_peeling(&graph, k);
        println!("  {k:>2}-core: {:>6} vertices", core.len());
    }

    // Maximal cliques with the paper's best variant.
    let outcome = BkVariant::GmsAdgS.run(&graph);
    println!(
        "\nmaximal cliques: {} (largest {}), {:.0} cliques/s",
        outcome.clique_count,
        outcome.largest,
        outcome.throughput()
    );

    // Clique-stars (§6.6): relaxed communities around triangle cores.
    let adg = OrderingKind::ApproxDegeneracy(0.25);
    let stars = k_clique_stars(&graph, 3, 2, adg, true, &gms::core::CancelToken::none()).stars;
    println!(
        "3-clique-stars with ≥2 satellites: {} (largest satellite set: {})",
        stars.len(),
        stars.iter().map(|s| s.satellites.len()).max().unwrap_or(0)
    );
}
