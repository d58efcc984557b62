//! End-to-end routing over real sockets: a router fronting several
//! in-process `gms-serve` backends, driven through the unchanged
//! `gms_serve::Client`. The failover tests kill a backend out from
//! under the router and assert the fleet answers — with the right
//! pattern counts or the right typed error — instead of hanging.

use gms_serve::{Client, Json, ServeConfig, Server, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gms_router::{HashRing, RingMember, Router, RouterConfig, RouterHandle};

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
        load_graph(client, i);
    }
}

/// Loads `g{i}`, a seeded graph of its own.
fn load_graph(client: &mut Client, i: usize) {
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

fn batch_request(count: usize) -> Json {
    let graphs: Vec<String> = (0..count).map(|i| format!("g{i}")).collect();
    batch_of(&graphs)
}

/// A batch of `triangle-count` runs, one per named graph.
fn batch_of(graphs: &[String]) -> Json {
    Json::object([
        ("op", Json::from("batch")),
        (
            "requests",
            Json::Array(
                graphs
                    .iter()
                    .map(|graph| {
                        Json::object([
                            ("op", Json::from("run")),
                            ("kernel", Json::from("triangle-count")),
                            ("graph", Json::from(graph.clone())),
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
    // The ring hashes the backends' addresses, whose ports vary from
    // run to run, so graphs are added until they span two shards.
    load_graphs(&mut client, 6);
    let mut count = 6;
    let owners = loop {
        let stats = client.stats().expect("stats");
        let owners: std::collections::HashSet<String> = (0..count)
            .map(|i| shard_of(&stats, &format!("g{i}")))
            .collect();
        if owners.len() >= 2 {
            break owners;
        }
        assert!(count < 40, "{count} graphs all placed on one shard");
        load_graph(&mut client, count);
        count += 1;
    };

    let response = client.request(&batch_request(count)).expect("batch");
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
    let results = response
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert_eq!(results.len(), count, "one result per request, in order");
    let patterns = patterns_of(results);

    // The batch scatters to exactly the shards that own its graphs.
    let shards = response
        .get("shards")
        .and_then(Json::as_i64)
        .expect("shards");
    assert_eq!(shards, owners.len() as i64, "batch shards vs graph owners");

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

/// A shard that registers and takes loads but never answers work: it
/// answers `health` (one worker), `load` and `stats` with `ok`, reads
/// every other line without a reply, and counts the `run` lines it
/// swallowed. Returns its address and that count.
fn start_hung_shard() -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind hung shard");
    let addr = listener.local_addr().expect("hung shard addr").to_string();
    let runs = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&runs);
    std::thread::spawn(move || {
        for stream in listener.incoming().map_while(Result::ok) {
            let runs = Arc::clone(&counter);
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().expect("clone shard socket");
                for line in BufReader::new(stream).lines().map_while(Result::ok) {
                    let request = Json::parse(line.trim()).expect("the router sends JSON");
                    let answer = match request.get("op").and_then(Json::as_str) {
                        Some("health") => r#"{"ok":true,"status":"serving","workers":1}"#,
                        Some("load" | "stats") => r#"{"ok":true}"#,
                        Some("run") => {
                            runs.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        _ => continue,
                    };
                    if writeln!(writer, "{answer}").is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, runs)
}

/// A router in front of one hung shard, with `g` loaded through it.
fn front_hung_shard(shard: String, read_timeout: Duration) -> (RouterHandle, Client) {
    let router = Router::start(RouterConfig {
        backends: vec![shard],
        probe_interval: Duration::ZERO,
        read_timeout,
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut client = Client::connect(router.addr()).expect("connect router");
    let graph = gms_gen::gnp(60, 0.1, 3);
    let loaded = client
        .load_inline("g", "edge-list", &edge_list_text(&graph))
        .expect("load");
    assert_eq!(
        loaded.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        loaded.render()
    );
    (router, client)
}

fn run_g() -> Vec<(&'static str, Json)> {
    vec![
        ("op", Json::from("run")),
        ("kernel", Json::from("triangle-count")),
        ("graph", Json::from("g")),
    ]
}

fn router_counter(stats: &Json, name: &str) -> Option<i64> {
    stats.get("router")?.get(name)?.as_i64()
}

/// The router's deadline path: a shard that takes a request and never
/// answers is answered for with a typed `deadline-exceeded` once the
/// caller's deadline (plus slack) lapses — for a `run` and for a
/// `batch` alike, long before the failover timeout — and is not
/// declared dead for it.
#[test]
fn a_hung_shard_answers_deadline_exceeded_and_stays_healthy() {
    let (shard, _) = start_hung_shard();
    let (router, mut client) = front_hung_shard(shard, Duration::from_secs(10));

    let started = Instant::now();
    let mut run = run_g();
    run.push(("deadline_ms", Json::Int(200)));
    let lapsed = client.request(&Json::object(run)).expect("run round trip");
    assert_eq!(
        error_code(&lapsed),
        Some("deadline-exceeded"),
        "{}",
        lapsed.render()
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "run lapsed late"
    );

    let started = Instant::now();
    let batch = client
        .request(&Json::object([
            ("op", Json::from("batch")),
            ("deadline_ms", Json::Int(200)),
            ("requests", Json::Array(vec![Json::object(run_g())])),
        ]))
        .expect("batch round trip");
    assert_eq!(
        batch.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        batch.render()
    );
    let slot = &batch
        .get("results")
        .and_then(Json::as_array)
        .expect("results")[0];
    assert_eq!(
        error_code(slot),
        Some("deadline-exceeded"),
        "{}",
        batch.render()
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "batch lapsed late"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(router_counter(&stats, "deadline_exceeded"), Some(2));
    assert_eq!(router_counter(&stats, "failovers"), Some(0));
    let backend = &stats
        .get("backends")
        .and_then(Json::as_array)
        .expect("backends")[0];
    assert_eq!(backend.get("healthy"), Some(&Json::Bool(true)));

    router.shutdown();
    router.join();
}

/// With no caller deadline, a hung shard costs one read timeout: the
/// timed-out request is not resent (only a stale connection is), the
/// shard is failed over, and the caller gets `backend-unavailable`.
#[test]
fn a_hung_shard_without_a_deadline_is_sent_the_run_once() {
    let (shard, runs) = start_hung_shard();
    let (router, mut client) = front_hung_shard(shard, Duration::from_millis(300));

    let unavailable = client.request(&Json::object(run_g())).expect("round trip");
    assert_eq!(
        error_code(&unavailable),
        Some("backend-unavailable"),
        "{}",
        unavailable.render()
    );
    assert_eq!(runs.load(Ordering::SeqCst), 1, "the run was sent once");

    router.shutdown();
    router.join();
}

/// Batches across successive shard deaths: with two of three shards
/// gone one batch completes on the survivor, and with none left every
/// slot answers typed — the re-placement of a dead shard's slots ends.
#[test]
fn a_batch_survives_successive_shard_deaths_down_to_none() {
    let (backends, router) = start_fleet(3);
    let mut client = Client::connect(router.addr()).expect("connect router");
    let count = 6;
    load_graphs(&mut client, count);
    let full = client
        .request(&batch_request(count))
        .expect("full-fleet batch");
    let expected = patterns_of(full.get("results").and_then(Json::as_array).unwrap());

    // Kill two shards that own graphs first, so the next batch is
    // sent to both and discovers both deaths.
    let stats = client.stats().expect("stats");
    let owners: Vec<String> = (0..count)
        .map(|i| shard_of(&stats, &format!("g{i}")))
        .collect();
    let mut order: Vec<ServerHandle> = backends;
    order.sort_by_key(|b| !owners.contains(&b.addr().to_string()));
    let survivor = order.pop().expect("three shards");
    for victim in order {
        kill_backend(victim);
    }
    let after = client
        .request(&batch_request(count))
        .expect("batch after two deaths");
    assert_eq!(
        after.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        after.render()
    );
    assert_eq!(
        patterns_of(after.get("results").and_then(Json::as_array).unwrap()),
        expected,
        "the survivor answers with the full-fleet counts"
    );
    assert_eq!(
        router_counter(&client.stats().expect("stats"), "failovers"),
        Some(2)
    );

    // Kill the last shard: every slot is typed, the unknown graph too.
    kill_backend(survivor);
    let mut graphs: Vec<String> = (0..count).map(|i| format!("g{i}")).collect();
    graphs.push("nope".to_string());
    let dead = client
        .request(&batch_of(&graphs))
        .expect("batch with no shard left");
    assert_eq!(dead.get("ok"), Some(&Json::Bool(true)), "{}", dead.render());
    let results = dead
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert_eq!(results.len(), count + 1);
    for (i, result) in results.iter().enumerate() {
        let want = if i < count {
            "backend-unavailable"
        } else {
            "graph-not-found"
        };
        assert_eq!(
            error_code(result),
            Some(want),
            "slot {i}: {}",
            result.render()
        );
    }

    router.shutdown();
    router.join();
}

/// A `0x…` fingerprint member of a reply.
fn fingerprint_of(reply: &Json, member: &str) -> u64 {
    let text = reply
        .get(member)
        .and_then(Json::as_str)
        .expect("fingerprint");
    u64::from_str_radix(text.trim_start_matches("0x"), 16).expect("hex fingerprint")
}

/// The `stats` row a server or router keeps for `name`, if any.
fn graph_row<'a>(stats: &'a Json, name: &str) -> Option<&'a Json> {
    let graphs = stats.get("graphs").and_then(Json::as_array)?;
    graphs
        .iter()
        .find(|g| g.get("name").and_then(Json::as_str) == Some(name))
}

/// Regression: re-loading the content a graph already holds (here:
/// its mutated content) reset the router's lineage to the new
/// fingerprint at version 0 and placed the load by that fingerprint —
/// so it could land on the other shard, disagree with a direct
/// server, and strand a stale copy on the first shard. The router now
/// keeps the lineage, as a shard does, and with it the placement key.
#[test]
fn reloading_mutated_content_keeps_lineage_and_shard() {
    use gms_core::Graph as _;
    let (backends, router) = start_fleet(2);
    let mut via_router = Client::connect(router.addr()).expect("connect router");
    let single = Server::start(ServeConfig::default()).expect("start reference");
    let mut direct = Client::connect(single.addr()).expect("connect reference");
    // The router's ring, rebuilt here: it tells which graphs a
    // placement by the re-loaded fingerprint would move.
    let members: Vec<RingMember> = backends
        .iter()
        .map(|b| {
            let health = Client::connect(b.addr()).and_then(|mut c| c.health());
            let workers = health
                .expect("health")
                .get("workers")
                .and_then(Json::as_i64);
            RingMember {
                name: b.addr().to_string(),
                weight: workers.expect("workers").max(1) as usize,
            }
        })
        .collect();
    let ring = HashRing::build(members.iter().map(Some));

    let names: Vec<String> = (0..16).map(|i| format!("m{i}")).collect();
    let mut would_move = 0;
    for (i, name) in names.iter().enumerate() {
        let graph = gms_gen::gnp(40 + i, 0.1, 500 + i as u64);
        let n = graph.num_vertices() as u32;
        let edge = (1..n)
            .map(|v| (0, v))
            .find(|&(u, v)| !graph.neighbors(u).any(|w| w == v))
            .expect("vertex 0 has a non-neighbour");
        let mutated = gms_graph::patch_csr(&graph, &[edge], &[]).expect("patch").0;
        let mut replies = Vec::new();
        for client in [&mut via_router, &mut direct] {
            client
                .load_inline(name, "edge-list", &edge_list_text(&graph))
                .expect("load");
            client.add_edges(name, &[edge]).expect("mutate");
            replies.push(
                client
                    .load_inline(name, "edge-list", &edge_list_text(&mutated))
                    .expect("re-load"),
            );
        }
        let (routed, reference) = (&replies[0], &replies[1]);
        for member in ["fingerprint", "base_fingerprint", "version"] {
            assert_eq!(
                routed.get(member),
                reference.get(member),
                "{name}: re-load reply {member}: {}",
                routed.render()
            );
        }
        let base = fingerprint_of(reference, "base_fingerprint");
        if ring.owner(base) != ring.owner(fingerprint_of(reference, "fingerprint")) {
            would_move += 1;
        }
    }
    assert!(would_move >= 1, "some re-load keys a different shard");

    let routed_stats = via_router.stats().expect("router stats");
    let direct_stats = direct.stats().expect("direct stats");
    let shard_stats: Vec<Json> = backends
        .iter()
        .map(|b| {
            Client::connect(b.addr())
                .and_then(|mut c| c.stats())
                .expect("shard stats")
        })
        .collect();
    for name in &names {
        let table = graph_row(&routed_stats, name).expect("router row");
        let reference = graph_row(&direct_stats, name).expect("direct row");
        for member in ["fingerprint", "base_fingerprint", "version"] {
            assert_eq!(
                table.get(member),
                reference.get(member),
                "{name}: table {member}"
            );
        }
        let holders = shard_stats.iter().filter(|s| graph_row(s, name).is_some());
        assert_eq!(
            holders.count(),
            1,
            "{name} is resident on exactly one shard"
        );
    }

    kill_backend(single);
    router.shutdown();
    router.join();
    for backend in backends {
        kill_backend(backend);
    }
}
