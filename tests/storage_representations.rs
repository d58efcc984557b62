//! Integration: every graph representation in the suite serves the
//! same access interface (paper modularity ①–②), so mining results
//! must be identical no matter which storage backs the graph — and
//! relabelings must interact with compression the way §B.2 predicts.

use gms::graph::CompressedCsr;
use gms::order::{bfs_order, degree_order_desc, encoded_gap_bytes, random_order};
use gms::prelude::*;

fn gallery() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("er", gms::gen::gnp(150, 0.06, 11)),
        ("kron", gms::gen::kronecker_default(8, 6, 12)),
        ("grid", gms::gen::grid(12, 12)),
        ("planted", gms::gen::planted_cliques(150, 0.02, 2, 7, 13).0),
    ]
}

#[test]
fn all_representations_agree_on_the_access_interface() {
    for (name, g) in gallery() {
        let compressed = CompressedCsr::from_csr(&g);
        for v in g.vertices() {
            let expected: Vec<NodeId> = g.neighbors_slice(v).to_vec();
            assert_eq!(
                compressed.neighbors(v).collect::<Vec<_>>(),
                expected,
                "{name} compressed"
            );
        }
        for u in g.vertices().step_by(7) {
            for v in g.vertices().step_by(11) {
                assert_eq!(
                    compressed.has_edge(u, v),
                    g.has_edge(u, v),
                    "{name} compressed edge"
                );
            }
        }
    }
}

#[test]
fn mining_results_are_representation_independent() {
    for (name, g) in gallery() {
        let direct = BkVariant::GmsDgr.run(&g).clique_count;
        let via_compressed = BkVariant::GmsDgr
            .run(&CompressedCsr::from_csr(&g).to_csr())
            .clique_count;
        assert_eq!(direct, via_compressed, "{name}");
    }
}

#[test]
fn on_disk_formats_are_equivalent_storage() {
    // Cross-format equivalence oracle: the three dataset formats
    // (SNAP edge list, METIS, .gcsr snapshot — from bytes and from a
    // file) are just one more family of interchangeable storage
    // backends. For the whole gallery, every format must reproduce
    // the CSR exactly, the file load must serve the same access
    // interface, and a mining kernel must not be able to tell the
    // loads apart.
    use gms::graph::io;
    let dir = std::env::temp_dir().join(format!("gms_storage_io_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g) in gallery() {
        let mut edge_list = Vec::new();
        io::write_edge_list(&g, &mut edge_list).unwrap();
        let via_text = io::load_undirected_from(edge_list.as_slice()).unwrap();

        let mut metis = Vec::new();
        io::write_metis(&g, &mut metis).unwrap();
        let via_metis = io::load_metis_from(metis.as_slice()).unwrap();

        let path = dir.join(format!("{name}.gcsr"));
        io::save_snapshot(&g, &path).unwrap();
        let mut snapshot_bytes = Vec::new();
        io::write_snapshot(&g, &mut snapshot_bytes).unwrap();
        let via_buffer = io::read_snapshot(&snapshot_bytes).unwrap().into_csr();
        let via_file = io::load_snapshot(&path).unwrap().into_csr();

        for (format, reloaded) in [
            ("edge list", &via_text),
            ("METIS", &via_metis),
            ("snapshot", &via_buffer),
        ] {
            assert_eq!(reloaded, &g, "{name} via {format}");
        }
        // The file load serves the same access interface.
        for v in g.vertices() {
            assert_eq!(via_file.neighbors_slice(v), g.neighbors_slice(v), "{name}");
        }
        for u in g.vertices().step_by(7) {
            for v in g.vertices().step_by(11) {
                assert_eq!(
                    via_file.has_edge(u, v),
                    g.has_edge(u, v),
                    "{name} file edge"
                );
            }
        }
        // And mining cannot tell the formats apart.
        let expected = BkVariant::GmsDgr.run(&g).clique_count;
        assert_eq!(
            BkVariant::GmsDgr.run(&via_metis).clique_count,
            expected,
            "{name}"
        );
        assert_eq!(
            BkVariant::GmsDgr.run(&via_file).clique_count,
            expected,
            "{name}"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn locality_relabelings_shrink_gap_encodings() {
    // §B.2: relabelings change compression effectiveness. On a mesh,
    // BFS order must beat a random permutation; on a skewed graph,
    // hub-first (degree-descending, "degree-minimizing") must beat
    // random too.
    let grid = gms::gen::grid(25, 25);
    let bfs = encoded_gap_bytes(&grid, &bfs_order(&grid, 0));
    let rnd = encoded_gap_bytes(&grid, &random_order(625, 4));
    assert!(bfs < rnd, "grid: bfs {bfs} vs random {rnd}");

    let kron = gms::gen::kronecker_default(10, 8, 9);
    let hubs_first = encoded_gap_bytes(&kron, &degree_order_desc(&kron));
    let rnd = encoded_gap_bytes(&kron, &random_order(1024, 4));
    assert!(hubs_first < rnd, "kron: hubs {hubs_first} vs random {rnd}");
}

#[test]
fn compression_sizes_track_structure() {
    // A clustered/local graph compresses harder than a random one of
    // the same size under gap+varint.
    let local = gms::gen::grid(30, 30); // 900 vertices, local edges
    let shuffled = {
        use gms::order::random_order;
        gms::graph::relabel(&local, &random_order(900, 8))
    };
    let ratio =
        |g: &CsrGraph| CompressedCsr::from_csr(g).heap_bytes() as f64 / g.heap_bytes() as f64;
    assert!(
        ratio(&local) < ratio(&shuffled),
        "locality must compress better: {} vs {}",
        ratio(&local),
        ratio(&shuffled)
    );
}
