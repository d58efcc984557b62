//! Graph-learning scenario: vertex similarity, link prediction and
//! community detection on a graph with planted community structure —
//! the §6.5/§6.7 pipeline end to end.
//!
//! ```sh
//! cargo run --release --example link_prediction
//! ```

use gms::core::CancelToken;
use gms::learn::{
    evaluate_accuracy, jarvis_patrick, label_propagation, louvain, modularity, rand_index,
    JarvisPatrickConfig,
};
use gms::prelude::*;

fn main() {
    // A planted-partition graph: 6 communities, dense inside.
    let (graph, truth) = gms::gen::planted_partition(600, 6, 0.25, 0.004, 11);
    let stats = GraphStats::compute("partition", &graph);
    println!("{}", GraphStats::header());
    println!("{}\n", stats.row());

    // Link prediction accuracy (§6.7): remove 10% of edges, score
    // candidates with each similarity measure, count recovered edges.
    println!("link prediction, eff = |E_predict ∩ E_rndm| (higher is better):");
    for measure in SimilarityMeasure::ALL {
        let (hits, k) = evaluate_accuracy(&graph, measure, 0.1, 3, &CancelToken::none());
        println!(
            "  {:<24} {:>5} / {:<5} ({:>5.1}%)",
            measure.label(),
            hits,
            k,
            100.0 * hits as f64 / k as f64
        );
    }

    // Community detection: Louvain vs Label Propagation vs ground
    // truth, scored by modularity and pair-counting Rand index.
    let lp = label_propagation(&graph, 100);
    let lv = louvain(&graph);
    println!("\ncommunity detection:");
    println!(
        "  {:<18} modularity {:>6.3}   rand-index vs truth {:>6.3}",
        "label propagation",
        modularity(&graph, &lp),
        rand_index(&lp, &truth)
    );
    println!(
        "  {:<18} modularity {:>6.3}   rand-index vs truth {:>6.3}",
        "louvain",
        modularity(&graph, &lv),
        rand_index(&lv, &truth)
    );
    println!(
        "  {:<18} modularity {:>6.3}",
        "ground truth",
        modularity(&graph, &truth)
    );

    // Jarvis–Patrick clustering (§4.1.2) on shared near-neighbors.
    let jp = jarvis_patrick(
        &graph,
        &JarvisPatrickConfig {
            k: 12,
            min_shared: 2,
            measure: SimilarityMeasure::Jaccard,
        },
        &CancelToken::none(),
    );
    println!(
        "\nJarvis-Patrick: {} clusters, rand-index vs truth {:.3}",
        gms::learn::num_clusters(&jp),
        rand_index(&jp, &truth)
    );
}
