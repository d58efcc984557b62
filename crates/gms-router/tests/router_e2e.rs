//! End-to-end routing over real sockets: a router fronting several
//! in-process `gms-serve` backends, driven through the unchanged
//! `gms_serve::Client`. The failover tests kill a backend out from
//! under the router and assert the fleet answers — with the right
//! pattern counts or the right typed error — instead of hanging.

use gms_serve::{Client, Json, ServeConfig, Server, ServerHandle};
use std::time::Duration;

use gms_router::{Router, RouterConfig, RouterHandle};

/// Starts `n` backends plus a router fronting them. Background
/// probing is disabled so tests control exactly when deaths are
/// discovered (on the request path).
fn start_fleet(n: usize) -> (Vec<ServerHandle>, RouterHandle) {
    let backends: Vec<ServerHandle> = (0..n)
        .map(|_| Server::start(ServeConfig::default()).expect("start backend"))
        .collect();
    let router = Router::start(RouterConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        probe_interval: Duration::ZERO,
        read_timeout: Duration::from_secs(10),
        ..RouterConfig::default()
    })
    .expect("start router");
    (backends, router)
}

/// Kills one backend: graceful protocol shutdown, then join — after
/// this its port refuses connections and pooled sockets die.
fn kill_backend(handle: ServerHandle) {
    let mut client = Client::connect(handle.addr()).expect("connect to backend");
    let _ = client.shutdown();
    handle.join();
}

fn edge_list_text(graph: &gms_core::CsrGraph) -> String {
    let mut text = Vec::new();
    gms_graph::io::write_edge_list(graph, &mut text).expect("render edge list");
    String::from_utf8(text).expect("edge lists are ASCII")
}

/// Loads `count` distinct graphs through `client` as g0..g{count-1}.
fn load_graphs(client: &mut Client, count: usize) {
    for i in 0..count {
        let graph = gms_gen::gnp(120 + 10 * i, 0.06, 1000 + i as u64);
        let response = client
            .load_inline(&format!("g{i}"), "edge-list", &edge_list_text(&graph))
            .expect("load round trip");
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(true)),
            "load g{i}: {}",
            response.render()
        );
    }
}

fn batch_request(count: usize) -> Json {
    Json::object([
        ("op", Json::from("batch")),
        (
            "requests",
            Json::Array(
                (0..count)
                    .map(|i| {
                        Json::object([
                            ("op", Json::from("run")),
                            ("kernel", Json::from("triangle-count")),
                            ("graph", Json::from(format!("g{i}"))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn patterns_of(results: &[Json]) -> Vec<i64> {
    results
        .iter()
        .map(|r| {
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "item: {}", r.render());
            r.get("patterns").and_then(Json::as_i64).expect("patterns")
        })
        .collect()
}

fn error_code(response: &Json) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

/// The shard address currently owning `name`, from router stats.
fn shard_of(stats: &Json, name: &str) -> String {
    stats
        .get("graphs")
        .and_then(Json::as_array)
        .expect("graphs table")
        .iter()
        .find(|g| g.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|g| g.get("shard"))
        .and_then(Json::as_str)
        .expect("graph has a shard")
        .to_string()
}

#[test]
fn router_answers_match_a_single_backend() {
    let (backends, router) = start_fleet(2);
    let mut via_router = Client::connect(router.addr()).expect("connect router");
    load_graphs(&mut via_router, 4);

    // The same graphs on one standalone backend are the reference.
    let single = Server::start(ServeConfig::default()).expect("start reference");
    let mut direct = Client::connect(single.addr()).expect("connect reference");
    load_graphs(&mut direct, 4);

    for i in 0..4 {
        let name = format!("g{i}");
        let routed = via_router
            .run("triangle-count", &name, &[])
            .expect("routed run");
        let reference = direct
            .run("triangle-count", &name, &[])
            .expect("direct run");
        assert_eq!(
            routed.get("patterns").and_then(Json::as_i64),
            reference.get("patterns").and_then(Json::as_i64),
            "{name}: routed answers equal single-backend answers"
        );
        // Responses name the shard that served them.
        let shard = routed.get("shard").and_then(Json::as_str).expect("shard");
        assert!(
            backends.iter().any(|b| b.addr().to_string() == shard),
            "shard {shard} is a fleet member"
        );
    }

    kill_backend(single);
    router.shutdown();
    router.join();
    for backend in backends {
        kill_backend(backend);
    }
}

#[test]
fn batch_scatters_across_shards_and_gathers_in_order() {
    let (backends, router) = start_fleet(3);
    let mut client = Client::connect(router.addr()).expect("connect router");
    let count = 6;
    load_graphs(&mut client, count);

    let response = client.request(&batch_request(count)).expect("batch");
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    let results = response
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert_eq!(results.len(), count, "one result per request, in order");
    let patterns = patterns_of(results);

    // Placement is fingerprint-driven: six distinct graphs land on
    // more than one shard of a three-shard fleet.
    let shards = response
        .get("shards")
        .and_then(Json::as_i64)
        .expect("shards");
    assert!(
        (2..=3).contains(&shards),
        "batch touched {shards} shards (expected 2..=3)"
    );

    // The same batch again answers identically (now cache-warm).
    let again = client.request(&batch_request(count)).expect("batch again");
    assert_eq!(
        patterns_of(again.get("results").and_then(Json::as_array).unwrap()),
        patterns,
        "batches are deterministic"
    );

    router.shutdown();
    router.join();
    for backend in backends {
        kill_backend(backend);
    }
}

#[test]
fn backend_killed_mid_batch_fails_over_to_survivors() {
    let (backends, router) = start_fleet(3);
    let mut client = Client::connect(router.addr()).expect("connect router");
    let count = 6;
    load_graphs(&mut client, count);

    // Reference pass while the whole fleet is up.
    let before = client.request(&batch_request(count)).expect("warm batch");
    let expected = patterns_of(before.get("results").and_then(Json::as_array).unwrap());

    // Kill the shard owning g0 — the router has not noticed (probing
    // is off): the next batch discovers the death mid-flight, when
    // the scattered sub-batch to the dead shard fails over sockets.
    let victim_addr = shard_of(&client.stats().expect("stats"), "g0");
    let mut survivors = Vec::new();
    for backend in backends {
        if backend.addr().to_string() == victim_addr {
            kill_backend(backend);
        } else {
            survivors.push(backend);
        }
    }

    let after = client
        .request(&batch_request(count))
        .expect("failover batch");
    assert_eq!(
        after.get("ok"),
        Some(&Json::Bool(true)),
        "batch completes despite the dead shard: {}",
        after.render()
    );
    assert_eq!(
        patterns_of(after.get("results").and_then(Json::as_array).unwrap()),
        expected,
        "post-failover pattern counts equal the full-fleet counts"
    );

    // The router recorded the failover and re-placed the dead
    // shard's graphs on survivors.
    let stats = client.stats().expect("stats after failover");
    let router_block = stats.get("router").expect("router counters");
    assert!(
        router_block
            .get("failovers")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 1,
        "failover counted"
    );
    assert!(
        router_block
            .get("graphs_replaced")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 1,
        "orphaned graphs re-placed"
    );
    assert_ne!(
        shard_of(&stats, "g0"),
        victim_addr,
        "g0 moved off the dead shard"
    );

    router.shutdown();
    router.join();
    for backend in survivors {
        kill_backend(backend);
    }
}

#[test]
fn redirect_clients_get_typed_moved_with_the_new_address() {
    let (backends, router) = start_fleet(2);
    let mut client = Client::connect(router.addr()).expect("connect router");
    load_graphs(&mut client, 1);
    let warm = client.run("triangle-count", "g0", &[]).expect("warm run");
    let expected = warm
        .get("patterns")
        .and_then(Json::as_i64)
        .expect("patterns");

    let victim_addr = shard_of(&client.stats().expect("stats"), "g0");
    let mut survivors = Vec::new();
    for backend in backends {
        if backend.addr().to_string() == victim_addr {
            kill_backend(backend);
        } else {
            survivors.push(backend);
        }
    }

    // A redirect-aware client is told where the graph went instead
    // of being transparently retried.
    let moved = client
        .request(&Json::object([
            ("op", Json::from("run")),
            ("kernel", Json::from("triangle-count")),
            ("graph", Json::from("g0")),
            ("redirect", Json::Bool(true)),
        ]))
        .expect("moved round trip");
    assert_eq!(moved.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(error_code(&moved), Some("moved"), "{}", moved.render());
    let new_addr = moved
        .get("error")
        .and_then(|e| e.get("addr"))
        .and_then(Json::as_str)
        .expect("moved carries the new shard address");
    assert_eq!(new_addr, survivors[0].addr().to_string());

    // Following the hint works: the survivor serves the graph
    // directly, reloaded from the router's spill.
    let mut direct = Client::connect(survivors[0].addr()).expect("connect survivor");
    let served = direct.run("triangle-count", "g0", &[]).expect("direct run");
    assert_eq!(
        served.get("patterns").and_then(Json::as_i64),
        Some(expected)
    );

    // A plain client sees a transparent failover on the same graph.
    let plain = client.run("triangle-count", "g0", &[]).expect("plain run");
    assert_eq!(plain.get("patterns").and_then(Json::as_i64), Some(expected));

    router.shutdown();
    router.join();
    for backend in survivors {
        kill_backend(backend);
    }
}

/// Triangle count of `graph`, recomputed from scratch — the oracle
/// the routed answers are held against.
fn local_triangles(graph: &gms_core::CsrGraph) -> i64 {
    gms_pattern::triangle_count_rank_merge(graph) as i64
}

#[test]
fn mutations_route_to_the_owner_and_survive_failover() {
    let (backends, router) = start_fleet(3);
    let mut client = Client::connect(router.addr()).expect("connect router");
    load_graphs(&mut client, 4);

    // The router's copy of g0, mutated in lockstep with the fleet.
    let mut local = gms_gen::gnp(120, 0.06, 1000);
    let warm = client.run("triangle-count", "g0", &[]).expect("warm run");
    assert_eq!(
        warm.get("patterns").and_then(Json::as_i64),
        Some(local_triangles(&local)),
        "sanity: routed count matches the local copy"
    );

    // Remove two real edges, then add a triangle; the router must
    // forward both batches to the owning shard and advance lineage.
    use gms_core::Graph as _;
    let v = (0..local.num_vertices() as u32)
        .find(|&v| local.degree(v) >= 2)
        .expect("a vertex with two edges");
    let targets: Vec<u32> = local.neighbors(v).take(2).collect();
    let removals: Vec<(u32, u32)> = targets.iter().map(|&t| (v, t)).collect();
    let removed = client.remove_edges("g0", &removals).expect("remove");
    assert_eq!(
        removed.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        removed.render()
    );
    assert_eq!(removed.get("version").and_then(Json::as_i64), Some(1));
    let additions = [(0u32, 1u32), (0, 2), (1, 2)];
    let added = client.add_edges("g0", &additions).expect("add");
    assert_eq!(
        added.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        added.render()
    );
    assert_eq!(added.get("version").and_then(Json::as_i64), Some(2));

    let edges = |pairs: &[(u32, u32)]| pairs.to_vec();
    local = gms_graph::patch_csr(&local, &[], &edges(&removals))
        .expect("local removal")
        .0;
    local = gms_graph::patch_csr(&local, &edges(&additions), &[])
        .expect("local addition")
        .0;
    let expected = local_triangles(&local);
    let routed = client.run("triangle-count", "g0", &[]).expect("routed run");
    assert_eq!(
        routed.get("patterns").and_then(Json::as_i64),
        Some(expected),
        "post-mutation count matches a from-scratch recount"
    );

    // The router's graph table tracks lineage: the content
    // fingerprint advanced, the placement key did not.
    let stats = client.stats().expect("stats");
    let g0 = stats
        .get("graphs")
        .and_then(Json::as_array)
        .expect("graphs")
        .iter()
        .find(|g| g.get("name").and_then(Json::as_str) == Some("g0"))
        .expect("g0 row")
        .clone();
    assert_eq!(g0.get("version").and_then(Json::as_i64), Some(2));
    assert_ne!(
        g0.get("fingerprint").and_then(Json::as_str),
        g0.get("base_fingerprint").and_then(Json::as_str),
        "mutations advance the fingerprint off the base"
    );

    // Kill the owner: the survivor must serve the *mutated* content
    // — the router refreshed its spill snapshot on each mutation.
    let victim_addr = shard_of(&stats, "g0");
    let mut survivors = Vec::new();
    for backend in backends {
        if backend.addr().to_string() == victim_addr {
            kill_backend(backend);
        } else {
            survivors.push(backend);
        }
    }
    let failed_over = client
        .run("triangle-count", "g0", &[])
        .expect("failover run");
    assert_eq!(
        failed_over.get("patterns").and_then(Json::as_i64),
        Some(expected),
        "failover serves the post-mutation content: {}",
        failed_over.render()
    );

    // Mutations keep working after the failover.
    let again = client.add_edges("g0", &[(3, 5)]).expect("mutate survivor");
    assert_eq!(
        again.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        again.render()
    );

    // Typed errors: out-of-range endpoints are rejected at the
    // router (the fleet never sees the batch); unknown graphs answer
    // from the router's own table.
    let bad = client
        .add_edges("g0", &[(0, 9_999_999)])
        .expect("round trip");
    assert_eq!(error_code(&bad), Some("bad-mutation"), "{}", bad.render());
    let missing = client.add_edges("nope", &[(0, 1)]).expect("round trip");
    assert_eq!(error_code(&missing), Some("graph-not-found"));

    router.shutdown();
    router.join();
    for backend in survivors {
        kill_backend(backend);
    }
}

/// Satellite regression: spill snapshots used to accumulate forever
/// — replacing a graph left the old `.gcsr` behind and shutdown kept
/// every file in a user-supplied spill directory.
#[test]
fn replace_mutate_and_shutdown_delete_stale_spills() {
    let spill_dir =
        std::env::temp_dir().join(format!("gms-router-test-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).expect("make spill dir");
    let backends: Vec<ServerHandle> = (0..2)
        .map(|_| Server::start(ServeConfig::default()).expect("start backend"))
        .collect();
    let router = Router::start(RouterConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        probe_interval: Duration::ZERO,
        read_timeout: Duration::from_secs(10),
        spill_dir: Some(spill_dir.clone()),
        ..RouterConfig::default()
    })
    .expect("start router");
    let spills = || -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&spill_dir)
            .expect("read spill dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".gcsr"))
            .collect();
        names.sort();
        names
    };

    let mut client = Client::connect(router.addr()).expect("connect router");
    let graph = gms_gen::gnp(80, 0.08, 7);
    let response = client
        .load_inline("g", "edge-list", &edge_list_text(&graph))
        .expect("load");
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    let after_load = spills();
    assert_eq!(after_load.len(), 1, "inline load spills one snapshot");

    // A mutation replaces the spill instead of accumulating: the
    // post-mutation snapshot appears, the pre-mutation one is gone.
    use gms_core::Graph as _;
    let (u, v) = (0..80u32)
        .flat_map(|u| ((u + 1)..80).map(move |v| (u, v)))
        .find(|&(u, v)| !graph.neighbors(u).any(|n| n == v))
        .expect("a non-edge to add");
    let mutated = client.add_edges("g", &[(u, v)]).expect("mutate");
    assert_eq!(
        mutated.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        mutated.render()
    );
    let after_mutation = spills();
    assert_eq!(after_mutation.len(), 1, "mutation does not leak spills");
    assert_ne!(after_mutation, after_load, "the snapshot was refreshed");

    // Replacing the graph under the same name deletes the spill the
    // replaced record reloaded from.
    let replacement = gms_gen::gnp(90, 0.08, 8);
    let reload = client
        .load_inline("g", "edge-list", &edge_list_text(&replacement))
        .expect("replace");
    assert_eq!(reload.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(reload.get("replaced"), Some(&Json::Bool(true)));
    let after_replace = spills();
    assert_eq!(after_replace.len(), 1, "replace does not leak spills");
    assert_ne!(after_replace, after_mutation);

    // Shutdown deletes router-created snapshots even from a
    // user-supplied directory (the directory itself is kept).
    router.shutdown();
    router.join();
    assert!(spill_dir.exists(), "configured spill dir is left in place");
    assert_eq!(spills(), Vec::<String>::new(), "no snapshots survive");
    let _ = std::fs::remove_dir_all(&spill_dir);
    for backend in backends {
        kill_backend(backend);
    }
}

#[test]
fn fleet_errors_are_typed_never_hangs() {
    let (backends, router) = start_fleet(1);
    let mut client = Client::connect(router.addr()).expect("connect router");

    // Unknown graph: typed graph-not-found from the router's own
    // table, no backend round trip.
    let missing = client
        .run("triangle-count", "nope", &[])
        .expect("round trip");
    assert_eq!(error_code(&missing), Some("graph-not-found"));

    // Kill the only backend: runs answer backend-unavailable.
    load_graphs(&mut client, 1);
    for backend in backends {
        kill_backend(backend);
    }
    let unavailable = client
        .run("triangle-count", "g0", &[])
        .expect("round trip, not a hang");
    assert_eq!(
        error_code(&unavailable),
        Some("backend-unavailable"),
        "{}",
        unavailable.render()
    );

    router.shutdown();
    router.join();
}

/// Regression: the router used to assemble request lines with an
/// uncapped `read_until`, so a newline-free stream grew its memory
/// without bound and was never answered. It now reads through the
/// same bounded line loop as `gms-serve`: one byte past the cap is a
/// typed `payload-too-large`, the stream resyncs on the next newline,
/// and the connection keeps serving.
#[test]
fn newline_free_flood_at_the_router_is_bounded_and_resyncs() {
    use std::io::{BufRead, BufReader, Write};

    let (backends, router) = start_fleet(1);
    let cap = ServeConfig::default().max_body_bytes;
    let mut stream = std::net::TcpStream::connect(router.addr()).expect("connect router");
    // Fail, don't hang, where the flood is swallowed silently.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    stream
        .write_all(&vec![b'{'; cap + 1])
        .expect("stream the flood");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("an answer while the line is still unterminated");
    let refused = Json::parse(reply.trim()).expect("a JSON reply");
    assert_eq!(error_code(&refused), Some("payload-too-large"), "{reply}");

    // Terminate the flooded line: the next request is served.
    stream
        .write_all(b"\n{\"op\":\"health\",\"id\":5}\n")
        .expect("resync");
    reply.clear();
    reader.read_line(&mut reply).expect("health reply");
    let health = Json::parse(reply.trim()).expect("a JSON reply");
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert_eq!(health.get("role").and_then(Json::as_str), Some("router"));
    assert_eq!(health.get("id"), Some(&Json::Int(5)));

    router.shutdown();
    router.join();
    for backend in backends {
        kill_backend(backend);
    }
}

/// Regression: every router in a process used to default to the same
/// `$TMPDIR/gms-router-spill-<pid>`, and one handle's `join` removed
/// it under the others — taking their failover snapshots with it. The
/// default is per instance now.
#[test]
fn two_routers_in_one_process_keep_their_own_spill_dirs() {
    let (first_backends, first) = start_fleet(1);
    let (second_backends, second) = start_fleet(2);
    let mut via_first = Client::connect(first.addr()).expect("connect first router");
    let mut via_second = Client::connect(second.addr()).expect("connect second router");
    load_graphs(&mut via_first, 1);
    load_graphs(&mut via_second, 1);
    let expected = via_second
        .run("triangle-count", "g0", &[])
        .expect("warm run")
        .get("patterns")
        .and_then(Json::as_i64)
        .expect("patterns");

    // The first router goes away, cleaning up after itself.
    first.shutdown();
    first.join();
    for backend in first_backends {
        kill_backend(backend);
    }

    // The second router's spill must have survived that: kill g0's
    // shard and the failover reload still finds its snapshot.
    let victim_addr = shard_of(&via_second.stats().expect("stats"), "g0");
    let mut survivors = Vec::new();
    for backend in second_backends {
        if backend.addr().to_string() == victim_addr {
            kill_backend(backend);
        } else {
            survivors.push(backend);
        }
    }
    let failed_over = via_second
        .run("triangle-count", "g0", &[])
        .expect("failover run");
    assert_eq!(
        failed_over.get("patterns").and_then(Json::as_i64),
        Some(expected),
        "the reload from the second router's own spill succeeded: {}",
        failed_over.render()
    );
    assert_eq!(failed_over.get("failover"), Some(&Json::Bool(true)));

    second.shutdown();
    second.join();
    for backend in survivors {
        kill_backend(backend);
    }
}

/// The router forwards the request it parsed, re-rendered — so the
/// rendering must keep what the shard's cache keys on. A float
/// parameter spelled `2.0` stays a float: the routed run and the same
/// run sent straight to the shard share one cache line.
#[test]
fn a_routed_float_param_hits_the_same_cache_line_as_a_direct_one() {
    let (backends, router) = start_fleet(2);
    let mut via_router = Client::connect(router.addr()).expect("connect router");
    load_graphs(&mut via_router, 1);
    let params = [
        ("ordering", Json::from("adg")),
        ("eps", Json::Float(2.0)),
        ("k", Json::Int(3)),
    ];

    let routed = via_router
        .run("k-clique", "g0", &params)
        .expect("routed run");
    assert_eq!(
        routed.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        routed.render()
    );
    assert_eq!(routed.get("cached"), Some(&Json::Bool(false)));
    let shard = routed.get("shard").and_then(Json::as_str).expect("shard");

    let mut direct = Client::connect(shard).expect("connect shard");
    let again = direct.run("k-clique", "g0", &params).expect("direct run");
    assert_eq!(
        again.get("cached"),
        Some(&Json::Bool(true)),
        "{}",
        again.render()
    );
    assert_eq!(again.get("patterns"), routed.get("patterns"));

    router.shutdown();
    router.join();
    for backend in backends {
        kill_backend(backend);
    }
}
