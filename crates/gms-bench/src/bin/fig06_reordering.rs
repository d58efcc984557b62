//! Figure 6: reordering analysis — DGR vs DEG vs ADG(ε ∈ {0.5, 0.1,
//! 0.01}) on a sparse skewed ("Youtube-like") graph: the reordering
//! time itself plus its effect on a downstream Eppstein-style
//! Bron–Kerbosch (BK-E = BK with the precomputed order). Paper shape:
//! ADG reorders faster than exact DGR (>2×) while reducing the BK
//! runtime comparably; smaller ε gives slightly better downstream
//! time at slightly higher reorder cost.
//!
//! The reorder time is that of `OrderingKind::compute`, the rank a
//! kernel pays for, as the median of [`REPEATS`] runs after a warm-up.
//! Every ordering must count the same maximal cliques (asserted). The
//! last line prints whether the >2× shape holds, with the DGR/ADG
//! ratios; it is a report, not a timing gate.

use gms_bench::{print_csv, scale_from_env};
use gms_core::RoaringSet;
use gms_order::OrderingKind;
use gms_pattern::bk::SubgraphMode;
use gms_pattern::{bron_kerbosch, BkConfig};
use std::time::Instant;

/// Timed reorder runs per ordering, after one warm-up.
const REPEATS: usize = 5;

fn main() {
    let s = scale_from_env() as u32;
    let graph = gms_gen::kronecker_default(12 + (s - 1).min(3), 4, 66); // sparse + skewed
    let orderings = [
        ("DGR", OrderingKind::Degeneracy),
        ("DEG", OrderingKind::Degree),
        ("ADG-0.5", OrderingKind::ApproxDegeneracy(0.5)),
        ("ADG-0.1", OrderingKind::ApproxDegeneracy(0.1)),
        ("ADG-0.01", OrderingKind::ApproxDegeneracy(0.01)),
    ];
    let mut rows = Vec::new();
    let mut reorder_us = Vec::new();
    let mut cliques = None;
    for (label, ordering) in orderings {
        // Time the reordering alone (the left bars of Fig. 6)...
        std::hint::black_box(ordering.compute(&graph));
        let mut samples: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(ordering.compute(&graph));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        samples.sort_unstable_by(f64::total_cmp);
        let reorder = samples[REPEATS / 2];
        // ...and the downstream BK-E run using it (the right bars).
        let outcome = bron_kerbosch::<RoaringSet>(
            &graph,
            &BkConfig {
                ordering,
                subgraph: SubgraphMode::None,
                collect: false,
                ..BkConfig::default()
            },
        );
        let count = *cliques.get_or_insert(outcome.clique_count);
        assert_eq!(
            outcome.clique_count, count,
            "{label} counts a different number of maximal cliques"
        );
        rows.push(format!(
            "{label},{reorder:.1},{:.4},{}",
            outcome.mine.as_secs_f64(),
            outcome.clique_count,
        ));
        reorder_us.push((label, reorder));
    }
    print_csv("ordering,reorder_us,bk_mine_s,maximal_cliques", &rows);

    let dgr = reorder_us[0].1;
    let adg: Vec<(&str, f64)> = reorder_us
        .iter()
        .filter(|(label, _)| label.starts_with("ADG"))
        .map(|&(label, us)| (label, dgr / us))
        .collect();
    let holds = adg.iter().all(|&(_, ratio)| ratio >= 2.0);
    let ratios: Vec<String> = adg
        .iter()
        .map(|(label, ratio)| format!("DGR/{label} = {ratio:.1}×"))
        .collect();
    let verdict = if holds { "holds" } else { "fails" };
    println!("shape fig06 adg≥2×dgr: {verdict} ({})", ratios.join(", "));
}
