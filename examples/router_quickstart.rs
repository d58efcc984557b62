//! Routing quick start: boot a two-shard fleet in-process — two
//! `gms-serve` backends behind one `gms-router` — load graphs
//! through the router, watch the ring place them on different
//! shards, scatter-gather a batch, and survive killing a backend.
//!
//! ```sh
//! cargo run --example router_quickstart
//! ```
//!
//! The same topology runs from the shell: `gms-router --spawn 2`
//! forks two local `gms-serve` children and fronts them on one
//! address, speaking the unchanged `gms-serve` protocol.

use gms::prelude::{Params, Router, RouterConfig};
use gms::serve::{Client, Envelope, Json, Request, RunSpec, ServeConfig, Server};

fn edge_list(graph: &gms::core::CsrGraph) -> String {
    let mut text = Vec::new();
    gms::graph::io::write_edge_list(graph, &mut text).unwrap();
    String::from_utf8(text).unwrap()
}

fn main() -> std::io::Result<()> {
    // Two backend shards, each its own admission queue + worker
    // sessions + result cache...
    let shard_a = Server::start(ServeConfig::default()).expect("start shard A");
    let shard_b = Server::start(ServeConfig::default()).expect("start shard B");

    // ...and one router fronting them. Clients only ever see the
    // router's address.
    let router = Router::start(RouterConfig {
        backends: vec![shard_a.addr().to_string(), shard_b.addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    println!("fleet of 2 behind {}", router.addr());

    let mut client = Client::connect(router.addr())?;

    // Load a handful of graphs through the router: each is placed on
    // the consistent-hash owner of its content fingerprint.
    for i in 0..4 {
        let graph = gms::gen::gnp(300 + 20 * i, 0.05, 70 + i as u64);
        let loaded = client.load_inline(&format!("g{i}"), "edge-list", &edge_list(&graph))?;
        println!(
            "g{i} → shard {}",
            loaded.get("shard").and_then(Json::as_str).unwrap(),
        );
    }

    // One batch over all four graphs: the router scatters it by
    // ownership, the shards mine their slices concurrently, and the
    // results come back in request order.
    let items = (0..4)
        .map(|i| RunSpec {
            kernel: "triangle-count".to_string(),
            graph: format!("g{i}"),
            params: Params::new(),
        })
        .collect();
    let batch = Envelope::new(Request::Batch(items)).to_json();
    let response = client.request(&batch)?;
    let results = response.get("results").and_then(Json::as_array).unwrap();
    for (i, result) in results.iter().enumerate() {
        println!(
            "g{i}: {} triangles",
            result.get("patterns").and_then(Json::as_i64).unwrap()
        );
    }
    println!(
        "batch fanned out over {} shard(s)",
        response.get("shards").and_then(Json::as_i64).unwrap()
    );

    // Kill shard A out from under the fleet. The router notices on
    // the next request touching it, re-places A's graphs on B from
    // its spill snapshots, and answers — no hang, same counts.
    let victim = shard_a.addr();
    let mut direct = Client::connect(victim)?;
    let _ = direct.shutdown();
    shard_a.join();
    println!("killed shard {victim}");

    for i in 0..4 {
        let response = client.run("triangle-count", &format!("g{i}"), &[])?;
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        println!(
            "g{i}: {} triangles, now served by {}",
            response.get("patterns").and_then(Json::as_i64).unwrap(),
            response.get("shard").and_then(Json::as_str).unwrap(),
        );
    }

    // Fleet stats: the router's failover counters plus per-shard and
    // aggregated backend counters.
    let stats = client.stats()?;
    let router_block = stats.get("router").unwrap();
    println!(
        "failovers: {}, graphs re-placed: {}",
        router_block
            .get("failovers")
            .and_then(Json::as_i64)
            .unwrap(),
        router_block
            .get("graphs_replaced")
            .and_then(Json::as_i64)
            .unwrap(),
    );

    router.shutdown();
    router.join();
    let mut b = Client::connect(shard_b.addr())?;
    let _ = b.shutdown();
    shard_b.join();
    println!("fleet shut down cleanly");
    Ok(())
}
