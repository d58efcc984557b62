//! Figures 1, 4 and 11: algorithmic throughput (maximal cliques mined
//! per second), runtimes and speedups over BK-DAS of every
//! Bron–Kerbosch variant across the dataset gallery, with the
//! preprocessing (reordering) fraction. The `fig1` column marks the
//! four graphs of different origins that Fig. 1 shows; all rows
//! together are the appendix-size Fig. 11 and Fig. 4. Each (graph,
//! variant) runs once; BK-DAS's own row is the speedup baseline.
//! Paper shape: every GMS variant beats BK-DAS on every graph, by up
//! to >9× in Fig. 1, with the relative margin shrinking on graphs
//! dense in maximal cliques (§8.10); DGR shows a visibly larger
//! preprocessing fraction than ADG/DEG.

use gms_bench::{gallery, print_csv, scale_from_env, FIG1_GRAPHS};
use gms_pattern::BkVariant;

fn main() {
    assert_eq!(BkVariant::ALL[0], BkVariant::Das, "DAS is the baseline");
    let datasets = gallery(scale_from_env());
    let mut rows = Vec::new();
    for dataset in &datasets {
        let fig1 = FIG1_GRAPHS.contains(&dataset.name);
        let outcomes = BkVariant::ALL.map(|variant| variant.run(&dataset.graph));
        let base_total = (outcomes[0].preprocess + outcomes[0].mine).as_secs_f64();
        for (variant, outcome) in BkVariant::ALL.iter().zip(&outcomes) {
            assert_eq!(
                outcome.clique_count,
                outcomes[0].clique_count,
                "{} and BK-DAS disagree on {}",
                variant.label(),
                dataset.name
            );
            let total = (outcome.preprocess + outcome.mine).as_secs_f64().max(1e-12);
            rows.push(format!(
                "{},{fig1},{},{},{:.0},{:.4},{:.4},{:.3},{:.2}",
                dataset.name,
                variant.label(),
                outcome.clique_count,
                outcome.throughput(),
                outcome.preprocess.as_secs_f64(),
                outcome.mine.as_secs_f64(),
                outcome.preprocess.as_secs_f64() / total,
                base_total / total,
            ));
        }
    }
    print_csv(
        "graph,fig1,variant,maximal_cliques,cliques_per_second,preprocess_s,mine_s,reorder_fraction,speedup_vs_das",
        &rows,
    );
}
