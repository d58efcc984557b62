//! The dataset gallery: synthetic stand-ins for the Table 7 graphs.
//!
//! The paper deliberately refrains from fixing datasets (§4.2) and
//! instead characterizes inputs by structural axes. Each gallery entry
//! reproduces one Table 7 archetype at laptop scale, generated rather
//! than downloaded so every run is offline and seed-deterministic:
//!
//! | entry | archetype | axis |
//! |---|---|---|
//! | `social-kron` | Orkut/Pokec | power-law degree skew |
//! | `sparse-kron` | Youtube/Flixster | very low m/n *and* skew |
//! | `clique-rich` | Flickr-photos | huge 4-clique counts |
//! | `cluster-rich` | Livemocha | dense but non-clique clusters |
//! | `tskew-huge` | Gupta3/RecDate | enormous T-skew |
//! | `tskew-low` | ldoor/Gearbox | many triangles, low T-skew |
//! | `econ-dense` | mbeacxc/orani678 | small n, very high m/n |
//! | `road-grid` | USA roads | extreme diameter, T ≈ 0 |
//! | `er-uniform` | — | skew-free control |

use gms_core::CsrGraph;

/// A named dataset.
pub struct Dataset {
    /// Gallery label.
    pub name: &'static str,
    /// The graph.
    pub graph: CsrGraph,
}

/// Builds the full gallery at the given scale factor (1 = default
/// laptop scale; larger factors grow n roughly linearly).
pub fn gallery(scale: usize) -> Vec<Dataset> {
    let s = scale.max(1);
    vec![
        Dataset {
            name: "social-kron",
            graph: gms_gen::kronecker_default(10 + log2(s), 12, 101),
        },
        Dataset {
            name: "sparse-kron",
            graph: gms_gen::kronecker_default(11 + log2(s), 3, 102),
        },
        Dataset {
            name: "clique-rich",
            graph: gms_gen::planted_cliques(1_500 * s, 0.004, 12, 10, 103).0,
        },
        Dataset {
            name: "cluster-rich",
            graph: gms_gen::planted_dense_groups(&gms_gen::PlantedConfig {
                n: 1_500 * s,
                background_p: 0.004,
                sizes: vec![14; 12],
                density: 0.55,
                seed: 104,
            })
            .0,
        },
        Dataset {
            name: "tskew-huge",
            graph: gms_gen::planted_cliques(1_200 * s, 0.003, 1, 18, 105).0,
        },
        Dataset {
            name: "tskew-low",
            graph: gms_gen::planted_cliques(1_200 * s, 0.002, 60, 5, 106).0,
        },
        Dataset {
            name: "econ-dense",
            graph: gms_gen::gnp(400 * s, 0.12, 107),
        },
        Dataset {
            name: "road-grid",
            graph: gms_gen::grid(40 * s, 40),
        },
        Dataset {
            name: "er-uniform",
            graph: gms_gen::gnp(1_500 * s, 0.006, 108),
        },
    ]
}

/// The four gallery graphs Fig. 1 shows (one per origin class, with
/// contrasting T-skew); Fig. 11 shows the whole gallery.
pub const FIG1_GRAPHS: [&str; 4] = ["social-kron", "tskew-huge", "tskew-low", "econ-dense"];

fn log2(s: usize) -> u32 {
    usize::BITS - 1 - s.leading_zeros()
}

/// Prints a CSV header + rows helper used by all figure binaries.
pub fn print_csv(header: &str, rows: &[String]) {
    println!("{header}");
    for row in rows {
        println!("{row}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_core::Graph as _;

    #[test]
    fn gallery_builds_and_axes_hold() {
        let datasets = gallery(1);
        assert_eq!(datasets.len(), 9);
        let by_name = |n: &str| {
            datasets
                .iter()
                .find(|d| d.name == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        // Road grid: near-zero triangles.
        assert_eq!(gms_order::triangle_count(&by_name("road-grid").graph), 0);
        // Clique-rich has far more 4-cliques than cluster-rich despite
        // matched n and similar m — the §8.6 contrast.
        let kc = |g: &CsrGraph| {
            gms_pattern::k_clique_count(g, 4, &gms_pattern::KcConfig::default()).count
        };
        let rich = kc(&by_name("clique-rich").graph);
        let cluster = kc(&by_name("cluster-rich").graph);
        assert!(
            rich > 5 * cluster,
            "4-cliques: rich {rich} vs cluster {cluster}"
        );
        // Power-law graph has degree skew; ER does not.
        let skew = |g: &CsrGraph| {
            g.max_degree() as f64
                / (2.0 * g.num_edges_undirected() as f64 / g.num_vertices() as f64)
        };
        assert!(skew(&by_name("social-kron").graph) > 2.0 * skew(&by_name("er-uniform").graph));
    }

    #[test]
    fn fig1_graphs_are_gallery_entries() {
        let datasets = gallery(1);
        for name in FIG1_GRAPHS {
            assert!(datasets.iter().any(|d| d.name == name), "{name} missing");
        }
    }
}
