//! Figures 1 and 11: algorithmic throughput (maximal cliques mined per
//! second) of the Bron–Kerbosch variants across the dataset gallery.
//! The `fig1` column marks the four graphs of different origins that
//! Fig. 1 shows; all rows together are the appendix-size Fig. 11.
//! Paper shape: every GMS variant beats BK-DAS on every graph, by up
//! to >9× in Fig. 1, with the relative margin shrinking on graphs
//! dense in maximal cliques (§8.10).

use gms_bench::{gallery, print_csv, scale_from_env, FIG1_GRAPHS};
use gms_pattern::BkVariant;

fn main() {
    let datasets = gallery(scale_from_env());
    let mut rows = Vec::new();
    for dataset in &datasets {
        let fig1 = FIG1_GRAPHS.contains(&dataset.name);
        for variant in BkVariant::ALL {
            let outcome = variant.run(&dataset.graph);
            rows.push(format!(
                "{},{fig1},{},{},{:.0}",
                dataset.name,
                variant.label(),
                outcome.clique_count,
                outcome.throughput()
            ));
        }
    }
    print_csv(
        "graph,fig1,variant,maximal_cliques,cliques_per_second",
        &rows,
    );
}
