//! Format-roundtrip battery: any graph, written to **any** on-disk
//! format and reloaded, must come back as a byte-identical CSR
//! (equal offsets and targets — the precondition for the platform's
//! fingerprint-keyed result cache to treat the loads as one graph).
//!
//! Two layers: property-based roundtrips over arbitrary edge sets
//! (proptest shim — deterministic per test name, no shrinking), and a
//! deterministic sweep over **every** generator in `gms-gen`, so a
//! new generator or format quirk (isolated vertices, empty graphs,
//! hubs, bipartite halves) is caught automatically.

use gms_core::{CsrGraph, Edge, NodeId};
use gms_graph::io;
use gms_graph::{CompressedCsr, GraphStore};
use proptest::collection::vec;
use proptest::prelude::*;

/// Writes and reloads `g` through one format, returning the reload.
fn through_edge_list(g: &CsrGraph) -> CsrGraph {
    let mut buf = Vec::new();
    io::write_edge_list(g, &mut buf).unwrap();
    io::load_undirected_from(buf.as_slice()).unwrap()
}

fn through_metis(g: &CsrGraph) -> CsrGraph {
    let mut buf = Vec::new();
    io::write_metis(g, &mut buf).unwrap();
    io::load_metis_from(buf.as_slice()).unwrap()
}

fn through_snapshot(g: &CsrGraph) -> CsrGraph {
    let mut buf = Vec::new();
    io::write_snapshot(g, &mut buf).unwrap();
    io::read_snapshot(&buf).unwrap().into_csr()
}

fn through_snapshot_file(g: &CsrGraph, tag: &str) -> CsrGraph {
    let path =
        std::env::temp_dir().join(format!("gms_roundtrip_{}_{tag}.gcsr", std::process::id()));
    io::save_snapshot(g, &path).unwrap();
    let reloaded = io::load_snapshot(&path).unwrap().into_csr();
    std::fs::remove_file(&path).ok();
    reloaded
}

fn through_compressed(g: &CsrGraph) -> CsrGraph {
    CompressedCsr::from_csr(g).to_csr()
}

/// CsrGraph → CompressedCsr → v2 snapshot bytes → CompressedCsr →
/// CsrGraph, checking the reader keeps the body compressed.
fn through_v2_snapshot(g: &CsrGraph, tag: &str) -> CsrGraph {
    let mut buf = Vec::new();
    io::write_snapshot_compressed(&CompressedCsr::from_csr(g), &mut buf).unwrap();
    match io::read_snapshot(&buf).unwrap() {
        GraphStore::Compressed(c) => c.to_csr(),
        GraphStore::Csr(_) => panic!("{tag}: v2 snapshot must reload compressed"),
    }
}

fn through_v2_snapshot_file(g: &CsrGraph, tag: &str) -> CsrGraph {
    let path = std::env::temp_dir().join(format!(
        "gms_roundtrip_v2_{}_{tag}.gcsr",
        std::process::id()
    ));
    io::save_snapshot_compressed(&CompressedCsr::from_csr(g), &path).unwrap();
    let loaded = io::load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    match loaded {
        GraphStore::Compressed(c) => c.to_csr(),
        GraphStore::Csr(_) => panic!("{tag}: v2 file must load compressed"),
    }
}

/// The cross-format oracle: every format — text, raw binary, and
/// compressed binary — reproduces `g` exactly.
fn assert_all_formats_roundtrip(g: &CsrGraph, tag: &str) {
    assert_eq!(&through_edge_list(g), g, "{tag}: edge list");
    assert_eq!(&through_metis(g), g, "{tag}: METIS");
    assert_eq!(&through_snapshot(g), g, "{tag}: snapshot (buffered)");
    assert_eq!(&through_snapshot_file(g, tag), g, "{tag}: snapshot (file)");
    assert_eq!(&through_compressed(g), g, "{tag}: compressed CSR");
    assert_eq!(&through_v2_snapshot(g, tag), g, "{tag}: v2 snapshot");
    assert_eq!(
        &through_v2_snapshot_file(g, tag),
        g,
        "{tag}: v2 snapshot (file)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_graphs_roundtrip_through_every_format(
        n in 1usize..48,
        raw in vec((0u32..48, 0u32..48), 0..160),
    ) {
        // Clamp endpoints into range; duplicates and self-loops are
        // deliberately kept in the input — the builder canonicalizes.
        let edges: Vec<Edge> = raw
            .iter()
            .map(|&(u, v)| (u % n as NodeId, v % n as NodeId))
            .collect();
        let g = CsrGraph::from_undirected_edges(n, &edges);
        assert_all_formats_roundtrip(&g, "arbitrary");
    }

    #[test]
    fn sparse_graphs_with_isolated_tails_roundtrip(
        n in 2usize..64,
        raw in vec((0u32..16, 0u32..16), 0..24),
    ) {
        // Edges confined to the first 16 vertices: everything above
        // is isolated, the case only an explicit vertex count (METIS
        // header, snapshot count, SNAP `# Nodes:` comment) preserves.
        let edges: Vec<Edge> = raw
            .iter()
            .map(|&(u, v)| (u.min(n as NodeId - 1), v.min(n as NodeId - 1)))
            .collect();
        let g = CsrGraph::from_undirected_edges(n, &edges);
        assert_all_formats_roundtrip(&g, "isolated-tail");
    }
}

#[test]
fn every_generator_roundtrips_through_every_format() {
    let gallery: Vec<(&str, CsrGraph)> = vec![
        ("gnp", gms_gen::gnp(130, 0.05, 7)),
        ("gnm", gms_gen::gnm(120, 400, 8)),
        ("kronecker", gms_gen::kronecker_default(8, 6, 9)),
        ("barabasi-albert", gms_gen::barabasi_albert(150, 4, 10)),
        ("watts-strogatz", gms_gen::watts_strogatz(140, 6, 0.1, 11)),
        ("bipartite", gms_gen::bipartite(40, 50, 0.08, 12)),
        ("complete", gms_gen::complete(24)),
        ("grid", gms_gen::grid(9, 13)),
        (
            "planted-cliques",
            gms_gen::planted_cliques(140, 0.02, 3, 7, 13).0,
        ),
        (
            "planted-partition",
            gms_gen::planted_partition(120, 4, 0.25, 0.01, 14).0,
        ),
        (
            "planted-clique-star",
            gms_gen::planted_clique_star(130, 0.02, 6, 4, 15).0,
        ),
        (
            "planted-dense-groups",
            gms_gen::planted_dense_groups(&gms_gen::PlantedConfig {
                n: 130,
                background_p: 0.02,
                sizes: vec![8, 8, 8],
                density: 0.85,
                seed: 16,
            })
            .0,
        ),
        ("empty", CsrGraph::from_undirected_edges(0, &[])),
        ("edgeless", CsrGraph::from_undirected_edges(17, &[])),
    ];
    for (name, g) in &gallery {
        assert_all_formats_roundtrip(g, name);
    }
}

/// The one loader's matrix: every format by path, the text formats
/// also inline, all arriving at one fingerprint — a v1 snapshot
/// materialized, a v2 snapshot still compressed — and a `.gcsr`
/// asked for inline refused with a typed error.
#[test]
fn load_graph_reaches_one_fingerprint_from_every_format_and_source() {
    use io::{load_graph, GraphFormat, GraphIoCause, GraphSource};
    let g = gms_gen::planted_cliques(140, 0.02, 3, 7, 13).0;
    let want = gms_graph::fingerprint(&g);
    let dir = std::env::temp_dir().join(format!("gms_load_graph_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut edge_list = Vec::new();
    io::write_edge_list(&g, &mut edge_list).unwrap();
    let mut metis = Vec::new();
    io::write_metis(&g, &mut metis).unwrap();
    let edge_list = String::from_utf8(edge_list).unwrap();
    let metis = String::from_utf8(metis).unwrap();
    std::fs::write(dir.join("g.el"), &edge_list).unwrap();
    std::fs::write(dir.join("g.metis"), &metis).unwrap();
    io::save_snapshot(&g, dir.join("v1.gcsr")).unwrap();
    io::save_snapshot_compressed(&CompressedCsr::from_csr(&g), dir.join("v2.gcsr")).unwrap();

    let (el, me, v1, v2) = (
        dir.join("g.el"),
        dir.join("g.metis"),
        dir.join("v1.gcsr"),
        dir.join("v2.gcsr"),
    );
    for (what, format, source, compressed) in [
        (
            "edge-list/path",
            GraphFormat::EdgeList,
            GraphSource::Path(&el),
            false,
        ),
        (
            "edge-list/text",
            GraphFormat::EdgeList,
            GraphSource::Text(&edge_list),
            false,
        ),
        (
            "metis/path",
            GraphFormat::Metis,
            GraphSource::Path(&me),
            false,
        ),
        (
            "metis/text",
            GraphFormat::Metis,
            GraphSource::Text(&metis),
            false,
        ),
        (
            "gcsr v1/path",
            GraphFormat::Gcsr,
            GraphSource::Path(&v1),
            false,
        ),
        (
            "gcsr v2/path",
            GraphFormat::Gcsr,
            GraphSource::Path(&v2),
            true,
        ),
    ] {
        let store = load_graph(format, source).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(store.fingerprint(), want, "{what}: fingerprint");
        assert_eq!(
            matches!(store, GraphStore::Compressed(_)),
            compressed,
            "{what}: v2 stays compressed, everything else materializes"
        );
        assert_eq!(store.into_csr(), g, "{what}: content");
    }

    let err = load_graph(GraphFormat::Gcsr, GraphSource::Text("GCSR")).unwrap_err();
    assert_eq!(err.line, None);
    assert!(
        matches!(&err.cause, GraphIoCause::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
        "inline gcsr must be a typed refusal: {err:?}"
    );
    for format in [GraphFormat::EdgeList, GraphFormat::Metis, GraphFormat::Gcsr] {
        assert_eq!(GraphFormat::parse(format.as_str()), Some(format));
    }
    assert_eq!(GraphFormat::parse("xml"), None);
    std::fs::remove_dir_all(dir).ok();
}
