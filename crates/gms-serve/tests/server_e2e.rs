//! End-to-end protocol tests: a real server on an ephemeral port,
//! driven over real sockets — every endpoint, the typed error
//! surface, cross-worker cache behavior, invalidation on reload,
//! queue-full backpressure, and graceful shutdown.

use gms_serve::{Client, Json, ServeConfig, Server};

fn start(workers: usize, queue: usize) -> (gms_serve::ServerHandle, Client) {
    let handle = Server::start(ServeConfig {
        workers,
        queue_capacity: queue,
        ..ServeConfig::default()
    })
    .expect("server start");
    let client = Client::connect(handle.addr()).expect("client connect");
    (handle, client)
}

fn edge_list(graph: &gms_core::CsrGraph) -> String {
    let mut bytes = Vec::new();
    gms_graph::io::write_edge_list(graph, &mut bytes).unwrap();
    String::from_utf8(bytes).unwrap()
}

fn assert_ok(v: &Json) {
    assert_eq!(
        v.get("ok"),
        Some(&Json::Bool(true)),
        "expected ok: {}",
        v.render()
    );
}

fn error_code(v: &Json) -> &str {
    assert_eq!(
        v.get("ok"),
        Some(&Json::Bool(false)),
        "expected error: {}",
        v.render()
    );
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("typed error code")
}

#[test]
fn full_protocol_round_trip() {
    let (handle, mut client) = start(2, 16);

    // Health before any graph is loaded.
    let health = client.health().unwrap();
    assert_ok(&health);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("serving"));
    assert_eq!(health.get("graphs"), Some(&Json::Int(0)));
    assert!(health.get("kernels").and_then(Json::as_i64).unwrap() >= 15);

    // Kernel introspection carries schemas.
    let kernels = client.kernels().unwrap();
    assert_ok(&kernels);
    let list = kernels.get("kernels").and_then(Json::as_array).unwrap();
    let kclique = list
        .iter()
        .find(|k| k.get("name").and_then(Json::as_str) == Some("k-clique"))
        .expect("k-clique registered");
    assert!(kclique
        .get("params")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .any(|p| p.get("name").and_then(Json::as_str) == Some("k")));

    // Load a triangle + tail inline; degenerate but exact.
    let loaded = client
        .load_inline("toy", "edge-list", "0 1\n1 2\n2 0\n2 3\n")
        .unwrap();
    assert_ok(&loaded);
    assert_eq!(loaded.get("vertices"), Some(&Json::Int(4)));
    assert_eq!(loaded.get("edges"), Some(&Json::Int(4)));
    assert_eq!(loaded.get("replaced"), Some(&Json::Bool(false)));

    // Run with typed params; then the identical request hits.
    let first = client.run("triangle-count", "toy", &[]).unwrap();
    assert_ok(&first);
    assert_eq!(first.get("patterns"), Some(&Json::Int(1)));
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    let second = client.run("triangle-count", "toy", &[]).unwrap();
    assert_ok(&second);
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)));

    // The id member is echoed, including on errors.
    let tagged = client
        .request(&Json::object([
            ("op", Json::from("health")),
            ("id", Json::from("probe-1")),
        ]))
        .unwrap();
    assert_eq!(tagged.get("id").and_then(Json::as_str), Some("probe-1"));

    // Typed error surface.
    assert_eq!(
        error_code(&client.request_raw("{not json").unwrap()),
        "bad-json"
    );
    assert_eq!(
        error_code(&client.request_raw(r#"{"op":"warp"}"#).unwrap()),
        "bad-request"
    );
    assert_eq!(
        error_code(&client.run("no-such-kernel", "toy", &[]).unwrap()),
        "unknown-kernel"
    );
    assert_eq!(
        error_code(&client.run("triangle-count", "nope", &[]).unwrap()),
        "unknown-graph"
    );
    assert_eq!(
        error_code(
            &client
                .run("k-clique", "toy", &[("bogus", Json::Int(1))])
                .unwrap()
        ),
        "unknown-param"
    );
    assert_eq!(
        error_code(
            &client
                .run("k-clique", "toy", &[("k", Json::from("three"))])
                .unwrap()
        ),
        "bad-param"
    );
    assert_eq!(
        error_code(
            &client
                .load_path("bad", "gcsr", "/no/such/file.gcsr")
                .unwrap()
        ),
        "io-error"
    );

    // Batch: two fresh, one duplicate, one error — one response.
    let batch = client
        .request(&Json::object([
            ("op", Json::from("batch")),
            (
                "requests",
                Json::Array(vec![
                    Json::object([
                        ("kernel", Json::from("k-clique")),
                        ("graph", Json::from("toy")),
                        ("params", Json::object([("k", Json::Int(3))])),
                    ]),
                    Json::object([
                        ("kernel", Json::from("triangle-count")),
                        ("graph", Json::from("toy")),
                    ]),
                    Json::object([
                        ("kernel", Json::from("triangle-count")),
                        ("graph", Json::from("missing")),
                    ]),
                ]),
            ),
        ]))
        .unwrap();
    assert_ok(&batch);
    let results = batch.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].get("patterns"), Some(&Json::Int(1)));
    assert_eq!(results[1].get("cached"), Some(&Json::Bool(true)));
    assert_eq!(error_code(&results[2]), "unknown-graph");

    // Stats reflect all of the above.
    let stats = client.stats().unwrap();
    assert_ok(&stats);
    let cache = stats.get("cache").unwrap();
    assert!(cache.get("hits").and_then(Json::as_i64).unwrap() >= 2);
    assert!(cache.get("misses").and_then(Json::as_i64).unwrap() >= 2);
    let server = stats.get("server").unwrap();
    assert!(server.get("malformed").and_then(Json::as_i64).unwrap() >= 1);
    assert_eq!(server.get("workers"), Some(&Json::Int(2)));
    let graphs = stats.get("graphs").and_then(Json::as_array).unwrap();
    assert_eq!(graphs.len(), 1);
    assert_eq!(graphs[0].get("name").and_then(Json::as_str), Some("toy"));

    // Graceful shutdown: acknowledged, then the process winds down.
    let ack = client.shutdown().unwrap();
    assert_eq!(
        ack.get("status").and_then(Json::as_str),
        Some("shutting-down")
    );
    handle.join();
}

#[test]
fn compressed_snapshots_serve_kernels_and_share_the_cache_with_raw() {
    let (handle, mut client) = start(2, 16);
    let graph = gms_gen::planted_cliques(200, 0.03, 3, 6, 7).0;
    let expected = gms_pattern::triangle_count_rank_merge(&graph) as i64;

    // A v2 (gap-compressed) snapshot on disk, loaded by path: the
    // server keeps it compressed and says so.
    let path = std::env::temp_dir().join(format!("gms_serve_v2_{}.gcsr", std::process::id()));
    gms_graph::io::save_snapshot_compressed(&gms_graph::CompressedCsr::from_csr(&graph), &path)
        .unwrap();
    let loaded = client
        .load_path("gz", "gcsr", path.to_str().unwrap())
        .unwrap();
    assert_ok(&loaded);
    assert_eq!(
        loaded.get("compression").and_then(Json::as_str),
        Some("gap")
    );
    let gap_resident = loaded.get("resident_bytes").and_then(Json::as_i64).unwrap();
    assert!(gap_resident > 0);

    // A pattern kernel end-to-end over the compressed backend.
    let mined = client.run("triangle-count", "gz", &[]).unwrap();
    assert_ok(&mined);
    assert_eq!(mined.get("patterns"), Some(&Json::Int(expected)));
    assert_eq!(mined.get("cached"), Some(&Json::Bool(false)));

    // The same graph loaded raw fingerprints identically, so the
    // compressed run is served from the cache to the raw backend.
    let raw = client
        .load_inline("graw", "edge-list", &edge_list(&graph))
        .unwrap();
    assert_ok(&raw);
    assert_eq!(raw.get("compression").and_then(Json::as_str), Some("raw"));
    assert_eq!(raw.get("fingerprint"), loaded.get("fingerprint"));
    let hit = client.run("triangle-count", "graw", &[]).unwrap();
    assert_eq!(hit.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(hit.get("patterns"), Some(&Json::Int(expected)));

    // `compression: "gap"` on load recompresses a text-format arrival.
    let recompressed = client
        .request(&Json::object([
            ("op", Json::from("load")),
            ("graph", Json::from("gz2")),
            ("format", Json::from("edge-list")),
            ("data", Json::from(edge_list(&graph))),
            ("compression", Json::from("gap")),
        ]))
        .unwrap();
    assert_ok(&recompressed);
    assert_eq!(
        recompressed.get("compression").and_then(Json::as_str),
        Some("gap")
    );
    assert_eq!(recompressed.get("fingerprint"), loaded.get("fingerprint"));
    let hit2 = client.run("triangle-count", "gz2", &[]).unwrap();
    assert_eq!(hit2.get("cached"), Some(&Json::Bool(true)));

    // Stats report per-graph residency; the compressed copies are
    // smaller than the raw CSR.
    let stats = client.stats().unwrap();
    let graphs = stats.get("graphs").and_then(Json::as_array).unwrap();
    let resident = |name: &str| {
        graphs
            .iter()
            .find(|g| g.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|g| g.get("resident_bytes"))
            .and_then(Json::as_i64)
            .unwrap()
    };
    assert!(resident("gz") < resident("graw"));
    assert_eq!(resident("gz"), gap_resident);

    std::fs::remove_file(&path).ok();
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn reload_invalidates_replaced_content() {
    let (handle, mut client) = start(2, 16);
    let g1 = gms_gen::planted_cliques(80, 0.04, 2, 5, 11).0;
    let g2 = gms_gen::gnp(70, 0.06, 5);

    client
        .load_inline("g", "edge-list", &edge_list(&g1))
        .unwrap();
    let fresh = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(fresh.get("cached"), Some(&Json::Bool(false)));

    // Same content again: replaced but nothing invalidated, and the
    // cached outcome survives.
    let same = client
        .load_inline("g", "edge-list", &edge_list(&g1))
        .unwrap();
    assert_eq!(same.get("replaced"), Some(&Json::Bool(true)));
    assert_eq!(same.get("invalidated"), Some(&Json::Int(0)));
    let hit = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(hit.get("cached"), Some(&Json::Bool(true)));

    // New content: the old outcome is dropped and the rerun is fresh.
    let replaced = client
        .load_inline("g", "edge-list", &edge_list(&g2))
        .unwrap();
    assert_eq!(replaced.get("replaced"), Some(&Json::Bool(true)));
    assert_eq!(replaced.get("invalidated"), Some(&Json::Int(1)));
    let recomputed = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(recomputed.get("cached"), Some(&Json::Bool(false)));

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("cache").and_then(|c| c.get("invalidated")),
        Some(&Json::Int(1))
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn edge_mutations_over_the_wire_migrate_the_cache() {
    use gms_core::Graph;
    let (handle, mut client) = start(2, 16);
    let graph = gms_gen::planted_cliques(200, 0.03, 3, 6, 7).0;
    let loaded = client
        .load_inline("g", "edge-list", &edge_list(&graph))
        .unwrap();
    assert_ok(&loaded);
    assert_eq!(loaded.get("version"), Some(&Json::Int(0)));
    let base_fp = loaded.get("base_fingerprint").cloned().unwrap();
    assert_eq!(loaded.get("fingerprint"), Some(&base_fp));

    // Three cache lines with distinct delta sensitivities.
    client.run("triangle-count", "g", &[]).unwrap();
    client.run("order-random", "g", &[]).unwrap();
    client.run("order-degree", "g", &[]).unwrap();

    // Remove two real edges in one batch.
    let v = (0..graph.num_vertices() as u32)
        .find(|&v| graph.degree(v) >= 2)
        .unwrap();
    let ns: Vec<u32> = graph.neighbors(v).take(2).collect();
    let removals = [(v, ns[0]), (v, ns[1])];
    let removed = client.remove_edges("g", &removals).unwrap();
    assert_ok(&removed);
    assert_eq!(removed.get("version"), Some(&Json::Int(1)));
    assert_eq!(removed.get("base_fingerprint"), Some(&base_fp));
    assert_ne!(removed.get("fingerprint"), Some(&base_fp));
    assert_eq!(removed.get("removed"), Some(&Json::Int(2)));
    let cache = removed.get("cache").unwrap();
    assert_eq!(cache.get("survived"), Some(&Json::Int(1)), "order-random");
    assert_eq!(
        cache.get("refreshed"),
        Some(&Json::Int(1)),
        "triangle-count"
    );
    assert_eq!(
        cache.get("invalidated"),
        Some(&Json::Int(1)),
        "order-degree"
    );

    // The refreshed count is served cached and agrees with an oracle
    // recount of the patched graph.
    let (patched, _) = gms_graph::patch_csr(&graph, &[], &removals).unwrap();
    let expected = gms_pattern::triangle_count_rank_merge(&patched) as i64;
    let tri = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(tri.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(tri.get("patterns"), Some(&Json::Int(expected)));
    let rand = client.run("order-random", "g", &[]).unwrap();
    assert_eq!(rand.get("cached"), Some(&Json::Bool(true)));

    // An addition batch exercises the same delta path the other way.
    let (a, b) = (0..graph.num_vertices() as u32)
        .flat_map(|x| ((x + 1)..graph.num_vertices() as u32).map(move |y| (x, y)))
        .find(|&(x, y)| !graph.neighbors(x).any(|t| t == y))
        .unwrap();
    let added = client.add_edges("g", &[(a, b)]).unwrap();
    assert_ok(&added);
    assert_eq!(added.get("version"), Some(&Json::Int(2)));
    assert_eq!(added.get("added"), Some(&Json::Int(1)));
    let (patched2, _) = gms_graph::patch_csr(&patched, &[(a, b)], &[]).unwrap();
    let expected2 = gms_pattern::triangle_count_rank_merge(&patched2) as i64;
    let tri2 = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(tri2.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(tri2.get("patterns"), Some(&Json::Int(expected2)));

    // Replaying the addition is a no-op (set semantics): same
    // fingerprint, no version bump.
    let replay = client.add_edges("g", &[(a, b)]).unwrap();
    assert_ok(&replay);
    assert_eq!(replay.get("version"), Some(&Json::Int(2)));
    assert_eq!(replay.get("fingerprint"), added.get("fingerprint"));

    // Stats carry lineage and the fleet-visible migration counters.
    let stats = client.stats().unwrap();
    let graphs = stats.get("graphs").and_then(Json::as_array).unwrap();
    assert_eq!(graphs[0].get("version"), Some(&Json::Int(2)));
    assert_eq!(graphs[0].get("base_fingerprint"), Some(&base_fp));
    let cstats = stats.get("cache").unwrap();
    assert!(cstats.get("migrated").and_then(Json::as_i64).unwrap() >= 4);
    assert!(cstats.get("refreshed").and_then(Json::as_i64).unwrap() >= 2);

    // Typed failure surface; a rejected batch leaves the graph alone.
    let bad = client.add_edges("g", &[(0, 1_000_000)]).unwrap();
    assert_eq!(error_code(&bad), "bad-mutation");
    let gone = client.add_edges("nope", &[(0, 1)]).unwrap();
    assert_eq!(error_code(&gone), "unknown-graph");
    let stats = client.stats().unwrap();
    let graphs = stats.get("graphs").and_then(Json::as_array).unwrap();
    assert_eq!(graphs[0].get("version"), Some(&Json::Int(2)));
    assert_eq!(graphs[0].get("fingerprint"), added.get("fingerprint"));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn retried_load_after_mid_line_death_registers_once() {
    use std::io::Write;
    let (handle, mut client) = start(2, 16);
    let graph = gms_gen::planted_cliques(150, 0.03, 3, 6, 7).0;
    let full = Json::object([
        ("op", Json::from("load")),
        ("graph", Json::from("g")),
        ("format", Json::from("edge-list")),
        ("data", Json::from(edge_list(&graph))),
        ("compression", Json::from("gap")),
    ])
    .render();

    // Attempt 1 dies mid-body: half the request line, no newline,
    // connection dropped. Nothing may register.
    {
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(&full.as_bytes()[..full.len() / 2])
            .unwrap();
        stream.flush().unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    let health = client.health().unwrap();
    assert_eq!(
        health.get("graphs"),
        Some(&Json::Int(0)),
        "a dead half-line must not register a graph"
    );

    // Attempt 2 completes and warms the cache.
    let first = client.request(&Json::parse(&full).unwrap()).unwrap();
    assert_ok(&first);
    assert_eq!(first.get("replaced"), Some(&Json::Bool(false)));
    assert_eq!(first.get("compression").and_then(Json::as_str), Some("gap"));
    let warm = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(warm.get("cached"), Some(&Json::Bool(false)));

    // The client never saw attempt 2's response (say), so it replays
    // the identical request: registration is idempotent by
    // fingerprint — the existing entry is kept, nothing invalidated,
    // the warmed cache intact.
    let retry = client.request(&Json::parse(&full).unwrap()).unwrap();
    assert_ok(&retry);
    assert_eq!(retry.get("replaced"), Some(&Json::Bool(true)));
    assert_eq!(retry.get("invalidated"), Some(&Json::Int(0)));
    assert_eq!(retry.get("version"), Some(&Json::Int(0)));
    assert_eq!(retry.get("fingerprint"), first.get("fingerprint"));
    let hit = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(
        hit.get("cached"),
        Some(&Json::Bool(true)),
        "the retry must not cold the cache"
    );
    let health = client.health().unwrap();
    assert_eq!(health.get("graphs"), Some(&Json::Int(1)));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn reloading_the_same_content_recompressed_swaps_the_store_and_keeps_everything_else() {
    // Regression: the `load` reply used to describe the freshly built
    // store even when the idempotent path kept the old one — the
    // reply said `gap`, `stats` said `raw`, and the request to
    // recompress was silently dropped.
    use gms_core::Graph;
    let (handle, mut client) = start(2, 16);
    let graph = gms_gen::planted_cliques(150, 0.03, 3, 6, 7).0;
    let text = edge_list(&graph);
    let raw = client.load_inline("g", "edge-list", &text).unwrap();
    assert_ok(&raw);
    assert_eq!(raw.get("compression").and_then(Json::as_str), Some("raw"));
    // One effective mutation, so "lineage kept" is distinguishable
    // from "lineage reset", then warm the cache on that content.
    let (u, v) = (0..150u32)
        .flat_map(|u| (u + 1..150).map(move |v| (u, v)))
        .find(|&(u, v)| !graph.has_edge(u, v))
        .unwrap();
    let mutated = client.add_edges("g", &[(u, v)]).unwrap();
    assert_eq!(mutated.get("version"), Some(&Json::Int(1)));
    let warm = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(warm.get("cached"), Some(&Json::Bool(false)));

    // Re-load the *current* content, asking for the gap representation.
    let mut edges: Vec<(u32, u32)> = graph.edges_undirected().collect();
    edges.push((u, v));
    let current = gms_core::CsrGraph::from_undirected_edges(150, &edges);
    let reload = Json::object([
        ("op", Json::from("load")),
        ("graph", Json::from("g")),
        ("format", Json::from("edge-list")),
        ("data", Json::from(edge_list(&current))),
        ("compression", Json::from("gap")),
    ]);
    let gap = client.request(&reload).unwrap();
    assert_ok(&gap);
    assert_eq!(gap.get("compression").and_then(Json::as_str), Some("gap"));
    assert_eq!(gap.get("replaced"), Some(&Json::Bool(true)));
    assert_eq!(gap.get("invalidated"), Some(&Json::Int(0)));
    for member in ["fingerprint", "base_fingerprint", "version"] {
        assert_eq!(
            gap.get(member),
            mutated.get(member),
            "{member} must survive"
        );
    }
    assert!(
        gap.get("resident_bytes").and_then(Json::as_i64)
            < raw.get("resident_bytes").and_then(Json::as_i64),
        "the gap store is the smaller one"
    );

    // `stats` describes the same resident the reply did…
    let stats = client.stats().unwrap();
    let row = &stats.get("graphs").and_then(Json::as_array).unwrap()[0];
    for member in [
        "vertices",
        "edges",
        "fingerprint",
        "base_fingerprint",
        "version",
        "compression",
        "resident_bytes",
    ] {
        assert_eq!(row.get(member), gap.get(member), "stats vs reply: {member}");
    }
    // …and the warmed outcome is still served (fingerprints are
    // representation-independent).
    let hit = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(hit.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(hit.get("patterns"), warm.get("patterns"));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn mutating_a_compressed_resident_rebuilds_transparently_over_sockets() {
    use gms_core::Graph;
    let (handle, mut client) = start(2, 16);
    let graph = gms_gen::planted_cliques(150, 0.03, 3, 6, 7).0;
    let loaded = client
        .request(&Json::object([
            ("op", Json::from("load")),
            ("graph", Json::from("g")),
            ("format", Json::from("edge-list")),
            ("data", Json::from(edge_list(&graph))),
            ("compression", Json::from("gap")),
        ]))
        .unwrap();
    assert_ok(&loaded);
    assert_eq!(
        loaded.get("compression").and_then(Json::as_str),
        Some("gap")
    );

    let u = (0..graph.num_vertices() as u32)
        .find(|&v| graph.degree(v) >= 1)
        .unwrap();
    let w = graph.neighbors(u).next().unwrap();
    let out = client.remove_edges("g", &[(u, w)]).unwrap();
    assert_ok(&out);
    assert_eq!(out.get("version"), Some(&Json::Int(1)));

    // The pinned policy: a compressed resident is transparently
    // re-encoded across a mutation — it stays `gap`, and kernels keep
    // serving through the decode hot path, rather than failing
    // not-materialized.
    let stats = client.stats().unwrap();
    let graphs = stats.get("graphs").and_then(Json::as_array).unwrap();
    assert_eq!(
        graphs[0].get("compression").and_then(Json::as_str),
        Some("gap")
    );
    assert_eq!(graphs[0].get("version"), Some(&Json::Int(1)));
    let (patched, _) = gms_graph::patch_csr(&graph, &[], &[(u, w)]).unwrap();
    let expected = gms_pattern::triangle_count_rank_merge(&patched) as i64;
    let tri = client.run("triangle-count", "g", &[]).unwrap();
    assert_ok(&tri);
    assert_eq!(tri.get("patterns"), Some(&Json::Int(expected)));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn duplicate_requests_across_connections_share_one_execution() {
    let (handle, mut setup) = start(2, 16);
    let graph = gms_gen::planted_cliques(150, 0.03, 3, 6, 7).0;
    setup
        .load_inline("g", "edge-list", &edge_list(&graph))
        .unwrap();

    // The same request from several fresh connections: exactly one
    // kernel execution (misses == 1) however the requests interleave,
    // and at least one hit is served by a different worker session
    // than the one that computed it.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = handle.addr();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let out = client.run("k-clique", "g", &[("k", Json::Int(4))]).unwrap();
                assert_eq!(out.get("ok"), Some(&Json::Bool(true)));
                out.get("patterns").and_then(Json::as_i64).unwrap()
            })
        })
        .collect();
    let counts: Vec<i64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "all answers agree");

    let stats = setup.stats().unwrap();
    let cache = stats.get("cache").unwrap();
    assert_eq!(
        cache.get("misses"),
        Some(&Json::Int(1)),
        "{}",
        stats.render()
    );
    assert_eq!(cache.get("hits"), Some(&Json::Int(3)));

    setup.shutdown().unwrap();
    handle.join();
}

#[test]
fn queue_full_rejections_under_burst() {
    // One worker, queue bound 1: while the worker grinds a slow
    // request, at most one more fits; the rest of the burst must be
    // answered `queue-full` immediately.
    let (handle, mut setup) = start(1, 1);
    let graph = gms_gen::planted_cliques(700, 0.015, 4, 9, 3).0;
    setup
        .load_inline("g", "edge-list", &edge_list(&graph))
        .unwrap();

    let mut rejected = 0;
    for round in 0..5 {
        let burst = 8;
        let threads: Vec<_> = (0..burst)
            .map(|i| {
                let addr = handle.addr();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    // Distinct params per request so nothing dedups.
                    let response = client
                        .run("bk", "g", &[("par-depth", Json::Int(i + 10 * round))])
                        .unwrap();
                    match response.get("ok") {
                        Some(&Json::Bool(true)) => false,
                        _ => {
                            assert_eq!(
                                response
                                    .get("error")
                                    .and_then(|e| e.get("code"))
                                    .and_then(Json::as_str),
                                Some("queue-full"),
                                "{}",
                                response.render()
                            );
                            true
                        }
                    }
                })
            })
            .collect();
        rejected += threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .filter(|&was_rejected| was_rejected)
            .count();
        if rejected > 0 {
            break;
        }
    }
    assert!(rejected > 0, "a burst against a 1-deep queue must reject");

    let stats = setup.stats().unwrap();
    assert!(
        stats
            .get("server")
            .and_then(|s| s.get("rejected"))
            .and_then(Json::as_i64)
            .unwrap()
            >= rejected as i64
    );

    setup.shutdown().unwrap();
    handle.join();
}

#[test]
fn invalid_utf8_line_gets_a_typed_error_and_framing_survives() {
    use std::io::{BufRead, BufReader, Write};
    let (handle, mut client) = start(1, 4);

    // Raw socket: a line that is not valid UTF-8 (lone 0xFF bytes),
    // then a well-formed request on the same connection. The line
    // starts with `{` so the dual-protocol sniffer keeps it on the
    // NDJSON plane (a non-JSON first byte would route to the HTTP
    // gateway instead).
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"{\xff\xfe garbage \xff\n").unwrap();
    stream.write_all(b"{\"op\":\"health\",\"id\":9}\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let first = Json::parse(line.trim()).unwrap();
    assert_eq!(error_code(&first), "bad-json");
    line.clear();
    reader.read_line(&mut line).unwrap();
    let second = Json::parse(line.trim()).unwrap();
    assert_ok(&second);
    assert_eq!(second.get("id"), Some(&Json::Int(9)), "framing intact");

    let stats = client.stats().unwrap();
    assert!(
        stats
            .get("server")
            .and_then(|s| s.get("malformed"))
            .and_then(Json::as_i64)
            .unwrap()
            >= 1
    );
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn requests_after_shutdown_are_answered_shutting_down() {
    let (handle, mut client) = start(1, 4);
    client
        .load_inline("g", "edge-list", "0 1\n1 2\n2 0\n")
        .unwrap();
    handle.shutdown();
    // The existing connection stays readable until it closes; a
    // data-plane request is now refused with a typed error.
    let response = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(error_code(&response), "shutting-down");
    handle.join();
}

// ------------------------------------------------------------------
// The /v1 HTTP gateway: same server, same port, sniffed protocol.
// ------------------------------------------------------------------

#[test]
fn http_gateway_round_trip() {
    use gms_serve::HttpClient;

    let (handle, mut ndjson) = start(2, 16);
    let http = HttpClient::new(handle.addr()).unwrap();

    // Control plane.
    let health = http.get("/v1/health").unwrap();
    assert_eq!(health.status, 200);
    let body = health.json().unwrap();
    assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(body.get("v"), Some(&Json::Int(1)));

    let kernels = http.get("/v1/kernels").unwrap();
    assert_eq!(kernels.status, 200);
    let list = kernels.json().unwrap();
    assert!(
        list.get("kernels").and_then(Json::as_array).unwrap().len() >= 15,
        "gateway proxies the full registry"
    );

    // Data plane: load, run, mutate — same state the NDJSON plane sees.
    let loaded = http
        .load_inline("web", "edge-list", "0 1\n1 2\n2 0\n2 3\n")
        .unwrap();
    assert_eq!(loaded.status, 200);
    assert_eq!(loaded.json().unwrap().get("vertices"), Some(&Json::Int(4)));

    let run = http.run("web", "triangle-count", &[]).unwrap();
    assert_eq!(run.status, 200);
    assert_eq!(run.json().unwrap().get("patterns"), Some(&Json::Int(1)));

    let mutated = http.mutate("web", &[(0, 3)], &[]).unwrap();
    assert_eq!(mutated.status, 200);
    assert_eq!(mutated.json().unwrap().get("added"), Some(&Json::Int(1)));

    // The NDJSON plane sees the HTTP-loaded, HTTP-mutated graph.
    let over_wire = ndjson.run("triangle-count", "web", &[]).unwrap();
    assert_ok(&over_wire);
    assert_eq!(over_wire.get("patterns"), Some(&Json::Int(2)));

    // Typed errors with mapped status codes.
    let missing = http.run("nope", "triangle-count", &[]).unwrap();
    assert_eq!(missing.status, 404);
    assert_eq!(missing.error().unwrap().code.as_str(), "unknown-graph");
    let unknown_path = http.get("/v1/unknown").unwrap();
    assert_eq!(unknown_path.status, 404);
    let wrong_method = http.get("/v1/graphs").unwrap();
    assert_eq!(wrong_method.status, 404, "GET on a POST-only endpoint");

    // The gateway shows up in stats, attributed per transport.
    let stats = http.get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let server = stats.json().unwrap().get("server").unwrap().clone();
    assert!(server.get("http_requests").and_then(Json::as_i64).unwrap() >= 8);

    ndjson.shutdown().unwrap();
    handle.join();
}

/// One logical request, two framings: the NDJSON line and the HTTP
/// route + headers + body are parsed by the same envelope rules and
/// cross the same `Service::call`, so they must agree on every
/// verdict — same `code` and `retryable` on failure (with the HTTP
/// status that code maps to), same result members on success.
#[test]
fn ndjson_and_http_framings_of_one_request_answer_alike() {
    use gms_serve::{ApiError, ClientBuilder};

    struct Case {
        what: &'static str,
        /// The NDJSON framing: one request line.
        line: String,
        /// The HTTP framing: `X-Gms-*` headers (via the builder),
        /// path and body.
        headers: ClientBuilder,
        path: &'static str,
        body: String,
        /// Members a success must agree on; empty = expect an error.
        same: &'static [&'static str],
    }
    let case = |what, line: &str, path, body: &str, same| Case {
        what,
        line: line.to_string(),
        headers: ClientBuilder::new(),
        path,
        body: body.to_string(),
        same,
    };

    let (handle, mut ndjson) = start(2, 16);
    let load = r#""graph":"g","format":"edge-list","data":"0 1\n1 2\n2 0\n2 3\n""#;
    let run_g = r#"{"kernel":"triangle-count"}"#;
    let cases = vec![
        case(
            "load",
            &format!(r#"{{"op":"load",{load}}}"#),
            "/v1/graphs",
            &format!("{{{load}}}"),
            &["graph", "vertices", "edges", "fingerprint", "compression"],
        ),
        case(
            "run",
            r#"{"op":"run","kernel":"k-clique","graph":"g","params":{"k":3}}"#,
            "/v1/graphs/g/run",
            r#"{"kernel":"k-clique","params":{"k":3}}"#,
            &["kernel", "graph", "patterns"],
        ),
        case(
            "mutate",
            r#"{"op":"add_edges","graph":"g","edges":[[0,3]]}"#,
            "/v1/graphs/g/mutate",
            r#"{"add":[[0,3]]}"#,
            &["graph", "fingerprint", "version", "vertices", "edges"],
        ),
        case(
            "unknown graph",
            r#"{"op":"run","kernel":"triangle-count","graph":"nope"}"#,
            "/v1/graphs/nope/run",
            run_g,
            &[],
        ),
        Case {
            headers: ClientBuilder::new().deadline_ms(0),
            ..case(
                "bad deadline",
                r#"{"op":"run","kernel":"triangle-count","graph":"g","deadline_ms":0}"#,
                "/v1/graphs/g/run",
                run_g,
                &[],
            )
        },
        Case {
            headers: ClientBuilder::new().weight(4096),
            ..case(
                "bad weight",
                r#"{"op":"run","kernel":"triangle-count","graph":"g","weight":4096}"#,
                "/v1/graphs/g/run",
                run_g,
                &[],
            )
        },
        case(
            "malformed edge",
            r#"{"op":"add_edges","graph":"g","edges":[[0,-1]]}"#,
            "/v1/graphs/g/mutate",
            r#"{"add":[[0,-1]]}"#,
            &[],
        ),
    ];
    for Case {
        what,
        line,
        headers,
        path,
        body,
        same,
    } in cases
    {
        let over_line = ndjson.request_raw(&line).unwrap();
        let over_http = headers
            .connect_http(handle.addr())
            .unwrap()
            .post(path, &Json::parse(&body).unwrap())
            .unwrap();
        let http_body = over_http.json().unwrap();
        assert_eq!(over_line.get("ok"), http_body.get("ok"), "{what}");
        if same.is_empty() {
            let line_error = ApiError::from_json(over_line.get("error").expect(what));
            let http_error = over_http.error().expect(what);
            assert_eq!(line_error.code, http_error.code, "{what}");
            assert_eq!(line_error.retryable(), http_error.retryable(), "{what}");
            assert_eq!(over_http.status, line_error.code.http_status(), "{what}");
        } else {
            assert_ok(&over_line);
            assert_eq!(over_http.status, 200, "{what}");
            for member in same {
                assert!(over_line.get(member).is_some(), "{what}: {member}");
                assert_eq!(
                    over_line.get(member),
                    http_body.get(member),
                    "{what}: {member}"
                );
            }
        }
    }

    ndjson.shutdown().unwrap();
    handle.join();
}

/// Acceptance: a streamed clique listing whose payload exceeds the
/// page limit arrives in at least two data chunks, each a complete
/// JSON line, with the totals announced up front.
#[test]
fn streamed_clique_listing_arrives_in_pages() {
    use gms_serve::HttpClient;

    let (handle, mut ndjson) = start(2, 16);
    let (graph, _) = gms_gen::planted_cliques(150, 0.05, 6, 5, 13);
    let loaded = ndjson
        .load_inline("g", "edge-list", &edge_list(&graph))
        .unwrap();
    assert_ok(&loaded);

    let http = HttpClient::new(handle.addr()).unwrap();
    let streamed = http
        .run_streaming("g", "bk", &[("collect", Json::Bool(true))], 4)
        .unwrap();
    assert_eq!(streamed.status, 200);
    assert_eq!(
        streamed.header("transfer-encoding").map(str::to_lowercase),
        Some("chunked".to_string())
    );
    assert!(
        streamed.chunks >= 4,
        "meta + >=2 pages + trailer, got {} chunks",
        streamed.chunks
    );

    let lines = streamed.json_lines().unwrap();
    let meta = &lines[0];
    let payload = meta.get("payload").expect("meta keeps the summary");
    assert!(payload.get("items").is_none(), "items live in the pages");
    let total = payload.get("items_total").and_then(Json::as_i64).unwrap();
    assert!(total > 4, "enough cliques to overflow one page: {total}");

    let done = lines.last().unwrap();
    assert_eq!(done.get("done"), Some(&Json::Bool(true)));
    assert!(done.get("pages").and_then(Json::as_i64).unwrap() >= 2);
    let paged: i64 = lines[1..lines.len() - 1]
        .iter()
        .map(|l| l.get("items").and_then(Json::as_array).unwrap().len() as i64)
        .sum();
    assert_eq!(paged, total, "pages partition the full listing");

    ndjson.shutdown().unwrap();
    handle.join();
}

/// Abuse: a peer that sends a partial request head and stalls is
/// answered 408 within the request timeout instead of parking the
/// connection thread forever.
#[test]
fn slowloris_partial_request_times_out_with_408() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let handle = Server::start(ServeConfig {
        request_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // A request head that never finishes: no blank line, no body.
    stream
        .write_all(b"POST /v1/graphs HTTP/1.1\r\nHost: x\r\n")
        .unwrap();
    let started = Instant::now();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap(); // server answers, then closes
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected 408, got: {}",
        text.lines().next().unwrap_or("")
    );
    assert!(text.contains("\"timeout\""), "typed error code in body");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "guard fired promptly"
    );

    let mut client = Client::connect(handle.addr()).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

/// Abuse: an oversized body is refused from its Content-Length alone
/// (HTTP 413) — and the same cap guards the NDJSON plane — before
/// any body bytes are materialized.
#[test]
fn oversized_bodies_are_rejected_before_materialization() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let handle = Server::start(ServeConfig {
        max_body_bytes: 1024,
        ..ServeConfig::default()
    })
    .unwrap();

    // HTTP plane: declare 50 MB, send none of it. The 413 must come
    // back anyway — the server rejected on the header.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .write_all(b"POST /v1/graphs HTTP/1.1\r\nHost: x\r\nContent-Length: 52428800\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 413"),
        "expected 413, got: {}",
        text.lines().next().unwrap_or("")
    );
    assert!(text.contains("payload-too-large"));

    // NDJSON plane: a request line over the cap gets the same typed
    // error and the connection survives for well-behaved requests.
    let mut client = Client::connect(handle.addr()).unwrap();
    let big = "0 1\n".repeat(600); // 2400 bytes > 1024
    let refused = client.load_inline("g", "edge-list", &big).unwrap();
    assert_eq!(error_code(&refused), "payload-too-large");
    assert_ok(&client.health().unwrap());

    client.shutdown().unwrap();
    handle.join();
}

/// Abuse: a newline-free NDJSON stream is cut off at the body cap
/// *while* it arrives — the server answers `payload-too-large`
/// before the flood completes instead of buffering it whole, and the
/// connection resyncs on the next newline.
#[test]
fn newline_free_ndjson_flood_is_bounded_and_resyncs() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let handle = Server::start(ServeConfig {
        max_body_bytes: 1024,
        ..ServeConfig::default()
    })
    .unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // Starts with '{' so the sniffer picks the NDJSON plane, then
    // streams far past the cap without ever sending a newline.
    let flood = vec![b'{'; 64 * 1024];
    stream.write_all(&flood).unwrap();
    stream.flush().unwrap();
    // The error must come back while the line is still unterminated.
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.contains("payload-too-large"),
        "expected payload-too-large mid-flood, got: {reply}"
    );
    // Terminate the flooded line; the connection is resynced and
    // serves well-formed requests again.
    stream.write_all(b"\n{\"op\":\"health\"}\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(
        reply.contains("\"serving\""),
        "connection should resync after the flood, got: {reply}"
    );

    let mut client = Client::connect(handle.addr()).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

/// Two pipelined requests written back-to-back in one packet both
/// get answers: bytes read past the first body are carried into the
/// next request's parse, not dropped.
#[test]
fn pipelined_http_requests_are_both_answered() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let handle = Server::start(ServeConfig::default()).unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .write_all(
            b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap(); // close arrives after both
    let text = String::from_utf8_lossy(&raw);
    let answers = text.matches("HTTP/1.1 200").count();
    assert_eq!(answers, 2, "both pipelined requests answered: {text}");

    let mut client = Client::connect(handle.addr()).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

/// Acceptance: an over-deadline Bron-Kerbosch run on a large graph
/// answers a typed `deadline-exceeded` in under 2x the deadline, and
/// the worker it ran on is freed for the next request. The graph and
/// the deadline are calibrated first, so "large" and "over-deadline"
/// hold on whatever machine and build profile runs the test.
#[test]
fn deadline_expiry_mid_kernel_returns_typed_error_and_frees_the_worker() {
    use gms_serve::{response_or_error, ClientBuilder, ErrorCode};
    use std::time::{Duration, Instant};

    let (handle, mut loader) = start(1, 8);
    // Calibrate: grow a dense graph until one full maximal-clique
    // listing takes long enough here that a quarter of it is still a
    // deadline well above scheduling noise.
    let mut vertices = 1200;
    let full = loop {
        let graph = gms_gen::gnp(vertices, 0.08, 7);
        let loaded = loader
            .load_inline("big", "edge-list", &edge_list(&graph))
            .unwrap();
        assert_ok(&loaded);
        let started = Instant::now();
        assert_ok(&loader.run("bk", "big", &[]).unwrap());
        let full = started.elapsed();
        if full >= Duration::from_millis(800) {
            break full;
        }
        vertices += vertices / 2;
    };

    // The kernel outlasts this deadline fourfold; cancellation must
    // cut it short from inside its hot loop. A parameter override
    // keeps the run off the calibration run's cache line.
    let deadline = full / 4;
    let mut client = ClientBuilder::new()
        .deadline_ms(deadline.as_millis() as u64)
        .connect(handle.addr())
        .unwrap();
    let started = Instant::now();
    let reply = client
        .run("bk", "big", &[("par-depth", Json::Int(3))])
        .unwrap();
    let elapsed = started.elapsed();
    let error = response_or_error(reply).unwrap_err();
    assert_eq!(error.code, ErrorCode::DeadlineExceeded);
    assert!(error.retryable());
    assert!(
        elapsed < 2 * deadline,
        "deadline-exceeded took {elapsed:?}, acceptance bound is {:?}",
        2 * deadline
    );

    // The single worker is free again: a cheap run completes.
    let next = loader.run("triangle-count", "big", &[]).unwrap();
    assert_ok(&next);

    loader.shutdown().unwrap();
    handle.join();
}

/// Regression: `eps: -1.0` used to reach an `assert!` inside the ADG
/// ordering and panic the worker thread — no reply, and with one
/// worker a dead data plane. It is a `bad-param` now, and the same
/// worker answers the next request.
#[test]
fn a_negative_eps_is_a_typed_error_and_the_worker_survives() {
    let (handle, mut client) = start(1, 8);
    // At the parent commit the reply never comes: fail, don't hang.
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let graph = gms_gen::planted_cliques(120, 0.03, 2, 6, 9).0;
    assert_ok(
        &client
            .load_inline("g", "edge-list", &edge_list(&graph))
            .unwrap(),
    );
    for kernel in ["bk", "k-clique", "clique-star", "coloring", "order-adg"] {
        let reply = client
            .run(kernel, "g", &[("eps", Json::Float(-1.0))])
            .unwrap_or_else(|e| panic!("{kernel}: no reply ({e}) — worker died?"));
        assert_eq!(error_code(&reply), "bad-param", "{kernel}");
    }
    let next = client.run("triangle-count", "g", &[]).unwrap();
    assert_ok(&next);
    assert_eq!(
        next.get("patterns").and_then(Json::as_i64),
        Some(gms_pattern::triangle_count_rank_merge(&graph) as i64)
    );
    client.shutdown().unwrap();
    handle.join();
}

/// Abuse: a client that exhausts its token bucket is answered 429
/// (`rate-limited`) while a second client's identical request
/// proceeds — and the shed is attributed to the right client in
/// `stats`.
#[test]
fn rate_limited_client_gets_429_while_second_client_proceeds() {
    use gms_serve::{response_or_error, ClientBuilder, ErrorCode, RateLimit};

    let handle = Server::start(ServeConfig {
        rate_limit: Some(RateLimit {
            rate_per_sec: 0.5,
            burst: 1.0,
        }),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut admin = Client::connect(handle.addr()).unwrap();
    let loaded = admin
        .load_inline("g", "edge-list", "0 1\n1 2\n2 0\n")
        .unwrap();
    assert_ok(&loaded);

    let mut alice = ClientBuilder::new()
        .client_name("alice")
        .connect(handle.addr())
        .unwrap();
    let run_as =
        |client: &mut Client| response_or_error(client.run("triangle-count", "g", &[]).unwrap());
    run_as(&mut alice).unwrap();
    let refused = run_as(&mut alice).unwrap_err();
    assert_eq!(refused.code, ErrorCode::RateLimited);
    assert!(refused.retryable());

    // A different identity is untouched by alice's bucket.
    let mut bob = ClientBuilder::new()
        .client_name("bob")
        .connect(handle.addr())
        .unwrap();
    run_as(&mut bob).unwrap();

    // The same identity over HTTP shares the same drained bucket.
    let http = ClientBuilder::new()
        .client_name("alice")
        .connect_http(handle.addr())
        .unwrap();
    let over_http = http.run("g", "triangle-count", &[]).unwrap();
    assert_eq!(over_http.status, 429);
    assert_eq!(over_http.error().unwrap().code.as_str(), "rate-limited");

    // Attributed in stats: alice's shed is hers, not bob's.
    let stats = admin.stats().unwrap();
    let clients = stats.get("clients").and_then(Json::as_array).unwrap();
    let by_name = |name: &str| {
        clients
            .iter()
            .find(|c| c.get("client").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("client {name} in stats"))
    };
    assert!(
        by_name("alice")
            .get("rate_limited")
            .and_then(Json::as_i64)
            .unwrap()
            >= 2
    );
    assert_eq!(by_name("bob").get("rate_limited"), Some(&Json::Int(0)));

    admin.shutdown().unwrap();
    handle.join();
}

/// Doubles a `gnp` graph of average degree 4 until one uncancelled
/// run of `kernel` takes at least 200 ms here (the edge list grows
/// linearly, far below the body cap in any build profile), then sends
/// the same run with a 1 ms `deadline_ms`. Only the kernel's own
/// probes can stop it early: without them it runs to completion and
/// is discarded afterwards, still `deadline-exceeded` but no sooner.
/// The cache is off, so the second run cannot be a hit.
fn a_one_ms_deadline_stops(kernel: &str) {
    use gms_serve::{response_or_error, ClientBuilder, ErrorCode};
    use std::time::{Duration, Instant};

    let handle = Server::start(ServeConfig {
        workers: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .expect("server start");
    let mut loader = Client::connect(handle.addr()).unwrap();
    let mut vertices = 2000;
    let full = loop {
        let graph = gms_gen::gnp(vertices, 4.0 / vertices as f64, 5);
        assert_ok(
            &loader
                .load_inline("g", "edge-list", &edge_list(&graph))
                .unwrap(),
        );
        let started = Instant::now();
        assert_ok(&loader.run(kernel, "g", &[]).unwrap());
        let full = started.elapsed();
        if full >= Duration::from_millis(200) {
            break full;
        }
        vertices *= 2;
    };

    let mut client = ClientBuilder::new()
        .deadline_ms(1)
        .connect(handle.addr())
        .unwrap();
    let started = Instant::now();
    let reply = client.run(kernel, "g", &[]).unwrap();
    let elapsed = started.elapsed();
    let error = response_or_error(reply).unwrap_err();
    assert_eq!(error.code, ErrorCode::DeadlineExceeded, "{kernel}");
    assert!(
        elapsed < full / 2,
        "{kernel}: deadline-exceeded took {elapsed:?} against a {full:?} full run"
    );

    loader.shutdown().unwrap();
    handle.join();
}

#[test]
fn a_one_ms_deadline_stops_mst_boruvka_mid_kernel() {
    a_one_ms_deadline_stops("mst-boruvka");
}

#[test]
fn a_one_ms_deadline_stops_louvain_mid_kernel() {
    a_one_ms_deadline_stops("louvain");
}

/// Writes `lines` back to back on one fresh connection and returns
/// the reader its replies arrive on, in the order they are answered.
fn pipeline(
    addr: std::net::SocketAddr,
    lines: &[String],
) -> (std::net::TcpStream, impl FnMut() -> Json) {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(lines.concat().as_bytes()).unwrap();
    let next = move || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("a reply line");
        Json::parse(line.trim()).expect("a JSON reply")
    };
    (stream, next)
}

/// A `run` request line with an `id` and optional envelope members.
fn run_line(id: i64, kernel: &str, params: &str, extra: &str) -> String {
    format!(
        "{{\"op\":\"run\",\"id\":{id},\"kernel\":\"{kernel}\",\"graph\":\"g\",\"params\":{{{params}}}{extra}}}\n"
    )
}

/// Loads `gnp(3000, 0.004)` — on which `min-cut`'s default trials run
/// far longer than any deadline below — and caches `triangle-count`.
fn start_with_a_hit(config: ServeConfig) -> (gms_serve::ServerHandle, Client) {
    let handle = Server::start(config).expect("server start");
    let mut admin = Client::connect(handle.addr()).unwrap();
    let graph = gms_gen::gnp(3000, 0.004, 3);
    assert_ok(
        &admin
            .load_inline("g", "edge-list", &edge_list(&graph))
            .unwrap(),
    );
    let cold = admin.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(cold.get("cached"), Some(&Json::Bool(false)));
    (handle, admin)
}

fn inline_hits(admin: &mut Client) -> i64 {
    let stats = admin.stats().unwrap();
    stats
        .get("server")
        .and_then(|s| s.get("inline_hits"))
        .and_then(Json::as_i64)
        .expect("stats.server.inline_hits")
}

#[test]
fn a_cache_hit_is_answered_while_every_worker_is_busy() {
    let (handle, mut admin) = start_with_a_hit(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // The cold run holds the only worker for its whole deadline; the
    // hit pipelined behind it on the same connection replies first.
    let (_stream, mut next) = pipeline(
        handle.addr(),
        &[
            run_line(1, "min-cut", "", ",\"deadline_ms\":1500"),
            run_line(2, "triangle-count", "", ""),
        ],
    );
    let first = next();
    assert_eq!(first.get("id"), Some(&Json::Int(2)), "{}", first.render());
    assert_eq!(first.get("cached"), Some(&Json::Bool(true)));
    let second = next();
    assert_eq!(second.get("id"), Some(&Json::Int(1)), "{}", second.render());
    assert_eq!(inline_hits(&mut admin), 1);

    admin.shutdown().unwrap();
    handle.join();
}

#[test]
fn a_cache_hit_is_answered_when_the_queue_is_full() {
    let (handle, mut admin) = start_with_a_hit(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    // The first cold run takes the worker; once it has, the second
    // fills the one queue slot, and a third is refused `queue-full`.
    // The hit behind the first run is answered once the connection
    // has submitted that run.
    let (mut stream, mut next) = pipeline(
        handle.addr(),
        &[
            run_line(1, "min-cut", "\"seed\":1", ",\"deadline_ms\":1500"),
            run_line(0, "triangle-count", "", ""),
        ],
    );
    assert_eq!(next().get("id"), Some(&Json::Int(0)));
    let queued = |admin: &mut Client| admin.health().unwrap().get("queue_depth").cloned();
    while queued(&mut admin) != Some(Json::Int(0)) {
        std::thread::yield_now();
    }
    use std::io::Write;
    let burst = [
        run_line(2, "min-cut", "\"seed\":2", ",\"deadline_ms\":1500"),
        run_line(3, "min-cut", "\"seed\":3", ",\"deadline_ms\":1500"),
        run_line(4, "triangle-count", "", ""),
    ];
    stream.write_all(burst.concat().as_bytes()).unwrap();
    let refused = next();
    assert_eq!(
        refused.get("id"),
        Some(&Json::Int(3)),
        "{}",
        refused.render()
    );
    assert_eq!(error_code(&refused), "queue-full");
    let hit = next();
    assert_eq!(hit.get("id"), Some(&Json::Int(4)), "{}", hit.render());
    assert_ok(&hit);
    assert_eq!(hit.get("cached"), Some(&Json::Bool(true)));
    for _ in 0..2 {
        next();
    }
    assert_eq!(inline_hits(&mut admin), 2);

    admin.shutdown().unwrap();
    handle.join();
}

#[test]
fn a_rate_limited_client_is_refused_on_hits_too() {
    use gms_serve::{ClientBuilder, RateLimit};

    let (handle, mut admin) = start_with_a_hit(ServeConfig {
        rate_limit: Some(RateLimit {
            rate_per_sec: 1e-9,
            burst: 2.0,
        }),
        ..ServeConfig::default()
    });
    let mut alice = ClientBuilder::new()
        .client_name("alice")
        .connect(handle.addr())
        .unwrap();
    for _ in 0..2 {
        let hit = alice.run("triangle-count", "g", &[]).unwrap();
        assert_eq!(
            hit.get("cached"),
            Some(&Json::Bool(true)),
            "{}",
            hit.render()
        );
    }
    let refused = alice.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(error_code(&refused), "rate-limited");

    let stats = admin.stats().unwrap();
    let clients = stats.get("clients").and_then(Json::as_array).unwrap();
    let alice = clients
        .iter()
        .find(|c| c.get("client").and_then(Json::as_str) == Some("alice"))
        .expect("alice in stats");
    for (counter, expected) in [("admitted", 2), ("served", 2), ("rate_limited", 1)] {
        assert_eq!(alice.get(counter), Some(&Json::Int(expected)), "{counter}");
    }
    assert_eq!(inline_hits(&mut admin), 2);

    admin.shutdown().unwrap();
    handle.join();
}
