//! `bench_router`: the scaling bench for `gms-router`, and the CI
//! routing smoke. Writes `BENCH_router.json`.
//!
//! **Standalone** (no env) it measures the 1→4 backend scaling
//! curve: for each fleet size it starts that many in-process
//! `gms-serve` backends behind a fresh router, loads the same eight
//! graphs through the router, and drives an identical closed-loop
//! mixed-kernel workload from eight client threads — reporting
//! throughput, latency percentiles, and how many shards the ring
//! actually spread the graphs over. Each fleet starts cold, so the
//! numbers compare like with like. The 4-backend point finishes with
//! a failover probe: one backend is killed and the same request
//! stream must keep answering (typed errors allowed, hangs not).
//!
//! **External smoke** (`GMS_ROUTER_ADDR` set) drives an
//! already-running router — CI starts `gms-router --spawn 2` first —
//! through load/run/batch/stats and asserts the fleet plumbing:
//! responses name their serving shard, batches scatter-gather with
//! per-item results in order, and fleet stats aggregate the backend
//! counters. `GMS_ROUTER_SHUTDOWN=1` sends the final `shutdown`.
//!
//! ```sh
//! cargo run --release -p gms-bench --bin bench_router
//! ```

use gms_platform::kernel::Params;
use gms_router::{Router, RouterConfig, RouterHandle};
use gms_serve::{Client, Envelope, Json, Request, RunSpec, ServeConfig, Server, ServerHandle};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Graphs per run: enough that consistent hashing spreads them over
/// every fleet size tested.
const GRAPHS: usize = 8;
/// Closed-loop client threads.
const CLIENTS: usize = 8;
/// Requests per client thread per fleet size.
const REQUESTS_PER_CLIENT: usize = 30;

fn edge_list(graph: &gms_core::CsrGraph) -> String {
    let mut bytes = Vec::new();
    gms_graph::io::write_edge_list(graph, &mut bytes).unwrap();
    String::from_utf8(bytes).unwrap()
}

fn assert_ok(response: &Json, what: &str) {
    assert_eq!(
        response.get("ok"),
        Some(&Json::Bool(true)),
        "{what} failed: {}",
        response.render()
    );
}

fn graph_name(i: usize) -> String {
    format!("g{i}")
}

/// The benchmark graph set — distinct structures so fingerprints
/// (and therefore shard assignments) differ.
fn graphs() -> Vec<gms_core::CsrGraph> {
    // Same size, different seeds: distinct fingerprints (so the ring
    // spreads them) but near-uniform per-request cost, so the cold
    // batch's wall time tracks fleet capacity instead of the single
    // most expensive graph.
    (0..GRAPHS)
        .map(|i| gms_gen::gnp(800, 0.035, 9000 + i as u64))
        .collect()
}

fn load_all(client: &mut Client, graphs: &[gms_core::CsrGraph]) {
    for (i, graph) in graphs.iter().enumerate() {
        let response = client
            .load_inline(&graph_name(i), "edge-list", &edge_list(graph))
            .unwrap();
        assert_ok(&response, &format!("load {}", graph_name(i)));
    }
}

/// One request of the mix: kernel + graph + params, cycling so the
/// stream mixes cold executions (distinct keys) with cache hits.
fn mix_request(i: usize) -> (&'static str, String, Vec<(&'static str, Json)>) {
    let graph = graph_name(i % GRAPHS);
    // k varies per slot: most requests are distinct cache keys, so
    // the stream measures mining capacity, not just cache latency.
    match i % 4 {
        0 => ("triangle-count", graph, vec![]),
        1 => (
            "k-clique",
            graph,
            vec![("k", Json::Int(3 + ((i / 4) % 3) as i64))],
        ),
        2 => ("order-degree", graph, vec![]),
        _ => ("coloring", graph, vec![]),
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// Closed-loop drive: `CLIENTS` threads, each with its own pooled
/// connection, issuing the mixed stream as fast as answers return.
/// Returns (sorted latencies ms, wall time).
fn drive(addr: std::net::SocketAddr) -> (Vec<f64>, Duration) {
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let latencies = Arc::clone(&latencies);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("dial router");
                for r in 0..REQUESTS_PER_CLIENT {
                    let (kernel, graph, params) = mix_request(c * REQUESTS_PER_CLIENT + r);
                    let sent = Instant::now();
                    let response = client.run(kernel, &graph, &params).unwrap();
                    let elapsed_ms = sent.elapsed().as_secs_f64() * 1e3;
                    assert_ok(&response, &format!("{kernel} on {graph}"));
                    latencies.lock().unwrap().push(elapsed_ms);
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    let wall = started.elapsed();
    let mut latencies = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (latencies, wall)
}

/// Shards actually holding graphs, from the router's fleet table.
fn shards_in_use(stats: &Json) -> usize {
    let mut shards: Vec<&str> = stats
        .get("graphs")
        .and_then(Json::as_array)
        .map(|graphs| {
            graphs
                .iter()
                .filter_map(|g| g.get("shard").and_then(Json::as_str))
                .collect()
        })
        .unwrap_or_default();
    shards.sort_unstable();
    shards.dedup();
    shards.len()
}

fn start_fleet(backends: usize) -> (Vec<ServerHandle>, RouterHandle) {
    let servers: Vec<ServerHandle> = (0..backends)
        .map(|_| {
            Server::start(ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            })
            .expect("start backend")
        })
        .collect();
    let router = Router::start(RouterConfig {
        backends: servers.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval: Duration::ZERO,
        ..RouterConfig::default()
    })
    .expect("start router");
    (servers, router)
}

fn stop_backend(handle: ServerHandle) {
    if let Ok(mut client) = Client::connect(handle.addr()) {
        let _ = client.shutdown();
    }
    handle.join();
}

/// The cold phase: every distinct (kernel, graph, k) of the mix as
/// one batch. Each backend executes its sub-batch sequentially on
/// one worker, so the wall time of the scattered batch is where the
/// fleet's capacity scaling shows.
fn cold_batch() -> Json {
    let item = |kernel: &str, graph: &str, params: Params| RunSpec {
        kernel: kernel.to_string(),
        graph: graph.to_string(),
        params,
    };
    let mut items = Vec::new();
    for i in 0..GRAPHS {
        let graph = graph_name(i);
        items.push(item("triangle-count", &graph, Params::new()));
        for k in 3..=5i64 {
            items.push(item("k-clique", &graph, Params::new().with("k", k)));
        }
        items.push(item("order-degree", &graph, Params::new()));
        items.push(item("coloring", &graph, Params::new()));
    }
    Envelope::new(Request::Batch(items)).to_json()
}

/// One point of the scaling curve.
fn run_fleet(backends: usize, graphs: &[gms_core::CsrGraph], probe_failover: bool) -> Json {
    let (servers, router) = start_fleet(backends);
    let mut control = Client::connect(router.addr()).expect("dial router");
    assert_ok(&control.health().unwrap(), "router health");
    load_all(&mut control, graphs);

    // Cold phase: one big scattered batch of distinct requests.
    let batch = cold_batch();
    let cold_count = batch
        .get("requests")
        .and_then(Json::as_array)
        .unwrap()
        .len();
    let cold_started = Instant::now();
    let cold_response = control.request(&batch).expect("cold batch");
    let cold_wall = cold_started.elapsed();
    assert_ok(&cold_response, "cold batch");
    for result in cold_response
        .get("results")
        .and_then(Json::as_array)
        .expect("cold results")
    {
        assert_ok(result, "cold batch item");
    }

    // Warm phase: closed-loop serving latency over the primed cache.
    let (latencies, wall) = drive(router.addr());
    let completed = latencies.len();
    let stats = control.stats().expect("router stats");
    assert_ok(&stats, "router stats");
    let shards = shards_in_use(&stats);
    let mean = latencies.iter().sum::<f64>() / completed.max(1) as f64;

    let mut failover = Json::Null;
    let mut survivors = servers;
    if probe_failover {
        // Kill one backend under the running fleet, then re-drive a
        // slice of the stream: every request must answer (the router
        // re-places the dead shard's graphs on the survivors).
        let victim = survivors.pop().expect("fleet has a backend to kill");
        stop_backend(victim);
        let probe_started = Instant::now();
        for i in 0..GRAPHS {
            let (kernel, graph, params) = mix_request(i);
            let response = control.run(kernel, &graph, &params).unwrap();
            assert_ok(&response, &format!("post-failover {kernel} on {graph}"));
        }
        let after = control.stats().expect("stats after failover");
        let router_block = after.get("router").expect("router counters");
        failover = Json::object([
            ("killed", Json::from(1usize)),
            (
                "probe_ms",
                Json::from(probe_started.elapsed().as_secs_f64() * 1e3),
            ),
            (
                "failovers",
                router_block.get("failovers").cloned().unwrap_or(Json::Null),
            ),
            (
                "graphs_replaced",
                router_block
                    .get("graphs_replaced")
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
        ]);
    }

    router.shutdown();
    router.join();
    for server in survivors {
        stop_backend(server);
    }

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    eprintln!(
        "bench_router: {backends} backend(s): cold batch {cold_count} reqs in {:.0} ms \
         ({:.0} req/s), warm {completed}/{total} ok at {:.0} req/s, \
         p50 {:.2} ms, p99 {:.2} ms, {shards} shard(s) in use",
        cold_wall.as_secs_f64() * 1e3,
        cold_count as f64 / cold_wall.as_secs_f64(),
        completed as f64 / wall.as_secs_f64(),
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
    );
    Json::object([
        ("backends", Json::from(backends)),
        ("workers_per_backend", Json::from(2usize)),
        ("graphs", Json::from(GRAPHS)),
        ("shards_in_use", Json::from(shards)),
        (
            "cold_batch",
            Json::object([
                ("requests", Json::from(cold_count)),
                ("wall_ms", Json::from(cold_wall.as_secs_f64() * 1e3)),
                (
                    "throughput_rps",
                    Json::from(cold_count as f64 / cold_wall.as_secs_f64()),
                ),
            ]),
        ),
        (
            "warm_loop",
            Json::object([
                ("completed", Json::from(completed)),
                (
                    "throughput_rps",
                    Json::from(completed as f64 / wall.as_secs_f64()),
                ),
                ("wall_ms", Json::from(wall.as_secs_f64() * 1e3)),
                (
                    "latency_ms",
                    Json::object([
                        ("p50", Json::from(percentile(&latencies, 50.0))),
                        ("p90", Json::from(percentile(&latencies, 90.0))),
                        ("p99", Json::from(percentile(&latencies, 99.0))),
                        ("mean", Json::from(mean)),
                    ]),
                ),
            ]),
        ),
        ("failover", failover),
    ])
}

/// The standalone 1→4 scaling curve.
fn scaling_curve() -> Json {
    let graphs = graphs();
    let fleet_sizes = [1usize, 2, 4];
    let points: Vec<Json> = fleet_sizes
        .iter()
        .map(|&n| run_fleet(n, &graphs, n == 4))
        .collect();
    Json::object([
        ("bench", Json::from("router")),
        ("mode", Json::from("scaling-curve")),
        // The whole fleet shares this machine: cold-batch scaling is
        // bounded by the cores available, not just the fleet size.
        (
            "cpu_parallelism",
            Json::from(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
        ),
        ("clients", Json::from(CLIENTS)),
        (
            "requests_per_point",
            Json::from(CLIENTS * REQUESTS_PER_CLIENT),
        ),
        ("fleets", Json::Array(points)),
    ])
}

/// CI smoke against an external `gms-router` (usually `--spawn 2`).
fn external_smoke(addr_text: &str) -> Json {
    let addr: std::net::SocketAddr = addr_text
        .parse()
        .expect("GMS_ROUTER_ADDR must be host:port");
    let mut control = Client::connect(addr).expect("dial external router");
    let health = control.health().expect("health");
    assert_ok(&health, "health");
    assert_eq!(
        health.get("role").and_then(Json::as_str),
        Some("router"),
        "GMS_ROUTER_ADDR must point at a router, got {}",
        health.render()
    );

    let graphs = graphs();
    load_all(&mut control, &graphs);

    // Singleton runs: each response names its serving shard.
    let mut served_by: Vec<String> = Vec::new();
    for i in 0..GRAPHS {
        let response = control.run("triangle-count", &graph_name(i), &[]).unwrap();
        assert_ok(&response, "routed run");
        let shard = response
            .get("shard")
            .and_then(Json::as_str)
            .expect("responses name their shard");
        if !served_by.iter().any(|s| s == shard) {
            served_by.push(shard.to_string());
        }
    }

    // Scatter-gather: one batch over every graph, answered per item
    // in request order.
    let items = (0..GRAPHS)
        .map(|i| RunSpec {
            kernel: "triangle-count".to_string(),
            graph: graph_name(i),
            params: Params::new(),
        })
        .collect();
    let batch = Envelope::new(Request::Batch(items)).to_json();
    let sent = Instant::now();
    let response = control.request(&batch).expect("batch round trip");
    let batch_ms = sent.elapsed().as_secs_f64() * 1e3;
    assert_ok(&response, "batch");
    let results = response
        .get("results")
        .and_then(Json::as_array)
        .expect("batch results");
    assert_eq!(results.len(), GRAPHS, "one result per item, in order");
    for result in results {
        assert_ok(result, "batch item");
    }
    let batch_shards = response
        .get("shards")
        .and_then(Json::as_i64)
        .expect("batch reports shard fan-out");

    // Fleet stats: aggregates present and consistent with the
    // backend blocks.
    let stats = control.stats().expect("stats");
    assert_ok(&stats, "stats");
    let fleet = stats.get("fleet").expect("fleet aggregates");
    let healthy = fleet.get("healthy").and_then(Json::as_i64).unwrap_or(0);
    assert!(
        healthy >= 1,
        "fleet has healthy backends: {}",
        stats.render()
    );
    let completed: i64 = stats
        .get("backends")
        .and_then(Json::as_array)
        .map(|blocks| {
            blocks
                .iter()
                .filter_map(|b| {
                    b.get("server")
                        .and_then(|s| s.get("completed"))
                        .and_then(Json::as_i64)
                })
                .sum()
        })
        .unwrap_or(0);
    assert_eq!(
        fleet
            .get("server")
            .and_then(|s| s.get("completed"))
            .and_then(Json::as_i64),
        Some(completed),
        "fleet counters are the sum of the shards"
    );

    if std::env::var("GMS_ROUTER_SHUTDOWN").as_deref() == Ok("1") {
        let ack = control.shutdown().expect("shutdown ack");
        assert_eq!(
            ack.get("status").and_then(Json::as_str),
            Some("shutting-down"),
            "router acknowledges shutdown"
        );
    }
    eprintln!(
        "bench_router: external smoke ok — {} shard(s) served runs, batch over {} shard(s) in {:.1} ms",
        served_by.len(),
        batch_shards,
        batch_ms,
    );
    Json::object([
        ("bench", Json::from("router")),
        ("mode", Json::from("external-smoke")),
        ("router", Json::from(addr_text)),
        ("backends_healthy", Json::from(healthy)),
        ("graphs", Json::from(GRAPHS)),
        ("run_shards", Json::from(served_by.len())),
        ("batch_shards", Json::from(batch_shards)),
        ("batch_ms", Json::from(batch_ms)),
        ("fleet_completed", Json::from(completed)),
    ])
}

fn main() {
    let report = match std::env::var("GMS_ROUTER_ADDR") {
        Ok(addr) => external_smoke(&addr),
        Err(_) => scaling_curve(),
    };
    let rendered = report.render();
    std::fs::write("BENCH_router.json", format!("{rendered}\n")).expect("write BENCH_router.json");
    println!("{rendered}");
}
