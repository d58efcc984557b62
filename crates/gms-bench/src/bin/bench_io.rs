//! Dataset I/O throughput probe and format smoke: generates a
//! Kronecker graph, round-trips it through **every** on-disk format
//! (SNAP edge list, METIS, a v1 `.gcsr` snapshot read from bytes and
//! loaded from its path, a v2 `.gcsr` snapshot loaded from its path
//! and kept compressed), asserts all loads produce the same content
//! fingerprint, and pushes the snapshot through a `Session` kernel
//! run so the cache-across-formats contract is exercised end to end.
//! CI runs it in release: a format regression fails the pipeline.
//!
//! Output: one `{format, bytes, write_ms, read_ms, read_mb_s,
//! edges_per_s}` JSON row per format, then a summary line.
//!
//! ```sh
//! cargo run --release -p gms-bench --bin bench_io
//! ```

use gms_core::{CsrGraph, Graph};
use gms_graph::io::{self, GraphFormat, GraphSource};
use gms_graph::CompressedCsr;
use gms_platform::kernel::{fingerprint, GraphStore, Params, Session};
use std::path::Path;
use std::time::Instant;

struct Row {
    format: &'static str,
    bytes: u64,
    write_ms: f64,
    read_ms: f64,
    edges: usize,
}

impl Row {
    fn json(&self) -> String {
        let secs = self.read_ms / 1e3;
        format!(
            "{{\"format\":\"{}\",\"bytes\":{},\"write_ms\":{:.3},\"read_ms\":{:.3},\
             \"read_mb_s\":{:.1},\"edges_per_s\":{:.0}}}",
            self.format,
            self.bytes,
            self.write_ms,
            self.read_ms,
            self.bytes as f64 / 1e6 / secs,
            self.edges as f64 / secs,
        )
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64() * 1e3)
}

fn roundtrip(
    format: &'static str,
    graph: &CsrGraph,
    path: &Path,
    write: impl FnOnce(&CsrGraph, &Path),
    read: impl FnOnce(&Path) -> GraphStore,
) -> Row {
    let ((), write_ms) = timed(|| write(graph, path));
    let bytes = std::fs::metadata(path).expect("written file").len();
    let (reloaded, read_ms) = timed(|| read(path));
    assert_eq!(
        reloaded.fingerprint(),
        fingerprint(graph),
        "{format}: reloaded graph fingerprint differs from the source graph"
    );
    Row {
        format,
        bytes,
        write_ms,
        read_ms,
        edges: graph.num_edges_undirected(),
    }
}

fn main() {
    let s = gms_bench::scale_from_env();
    let levels = 12 + s.ilog2();
    let graph = gms_gen::kronecker_default(levels, 8, 21);
    eprintln!(
        "graph: 2^{levels} vertices ({}), {} edges",
        graph.num_vertices(),
        graph.num_edges_undirected()
    );

    let dir = std::env::temp_dir().join(format!("gms_bench_io_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let rows = [
        roundtrip(
            "edge-list",
            &graph,
            &dir.join("g.el"),
            |g, p| {
                let mut w = std::io::BufWriter::new(std::fs::File::create(p).unwrap());
                io::write_edge_list(g, &mut w).unwrap();
            },
            |p| GraphStore::Csr(io::load_undirected(p).unwrap()),
        ),
        roundtrip(
            "metis",
            &graph,
            &dir.join("g.metis"),
            |g, p| {
                let mut w = std::io::BufWriter::new(std::fs::File::create(p).unwrap());
                io::write_metis(g, &mut w).unwrap();
            },
            |p| GraphStore::Csr(io::load_metis(p).unwrap()),
        ),
        roundtrip(
            "gcsr-read",
            &graph,
            &dir.join("g.gcsr"),
            |g, p| io::save_snapshot(g, p).unwrap(),
            |p| io::read_snapshot(&std::fs::read(p).unwrap()).unwrap(),
        ),
        roundtrip(
            "gcsr-load",
            &graph,
            &dir.join("g_load.gcsr"),
            |g, p| io::save_snapshot(g, p).unwrap(),
            |p| io::load_snapshot(p).unwrap(),
        ),
        roundtrip(
            "gcsr-v2-load",
            &graph,
            &dir.join("g_v2.gcsr"),
            |g, p| io::save_snapshot_compressed(&CompressedCsr::from_csr(g), p).unwrap(),
            |p| {
                let loaded = io::load_snapshot(p).unwrap();
                assert!(
                    matches!(loaded, GraphStore::Compressed(_)),
                    "gcsr-v2-load: a v2 snapshot must load compressed"
                );
                loaded
            },
        ),
    ];

    // Service-layer smoke: snapshot → path load → kernel run, then
    // the same graph as an edge list must be served from the cache.
    let mut session = Session::new();
    let from_snapshot = session
        .load(GraphFormat::Gcsr, GraphSource::Path(&dir.join("g.gcsr")))
        .unwrap();
    let miss = session
        .run("triangle-count", from_snapshot, &Params::new())
        .unwrap();
    let from_text = session
        .load(GraphFormat::EdgeList, GraphSource::Path(&dir.join("g.el")))
        .unwrap();
    let hit = session
        .run("triangle-count", from_text, &Params::new())
        .unwrap();
    assert!(
        hit.cached && hit.same_result(&miss),
        "edge-list reload must hit the snapshot-loaded cache line"
    );

    println!(
        "{{\"bench\":\"io\",\"rows\":[\n  {}\n]}}",
        rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n  ")
    );
    eprintln!(
        "all formats fingerprint-identical; triangle-count across formats cached ({} patterns)",
        miss.patterns
    );

    std::fs::remove_dir_all(&dir).ok();
}
