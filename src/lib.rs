//! # GraphMineSuite-rs (`gms`)
//!
//! A Rust reproduction of **GraphMineSuite** (Besta et al., VLDB
//! 2021): a benchmarking suite for high-performance, programmable
//! graph mining built on *set algebra*. Algorithms are written against
//! a small [`Set`](gms_core::Set) interface; swapping the set layout (sorted arrays,
//! roaring bitmaps, dense bitvectors, hash sets), the vertex order
//! (degree, exact or approximate degeneracy, triangle rank), or the
//! graph representation changes no algorithm code.
//!
//! ## Quick start
//!
//! Every mining kernel is served through one typed entry point: a
//! [`Session`](gms_platform::kernel::Session) owns loaded graphs, a
//! [`Registry`](gms_platform::kernel::Registry) maps kernel names
//! to implementations, and results are memoized by
//! `(graph fingerprint, kernel, params)`.
//!
//! ```
//! use gms::prelude::*;
//!
//! // A social-network-like graph with planted 8-cliques, loaded
//! // into a serving session (pipeline step 1).
//! let (graph, _) = gms::gen::planted_cliques(500, 0.01, 3, 8, 42);
//! let mut session = Session::new();
//! let g = session.add_graph(graph);
//!
//! // Maximal clique listing — the paper's BK-GMS-ADG variant — by
//! // name, through the same API as every other kernel.
//! let bk = session.run("bk-gms-adg", g, &Params::new()).unwrap();
//! assert!(bk.patterns >= 3);
//! println!("{} maximal cliques at {:.0}/s", bk.patterns, bk.throughput());
//!
//! // k-clique counting with typed parameters — swapping k or the
//! // preprocessing order is one `with` away.
//! let params = Params::new().with("k", 4).with("ordering", "degeneracy");
//! let kc = session.run("k-clique", g, &params).unwrap();
//! assert!(kc.patterns > 0);
//!
//! // The same request again is a cache hit: same result, no kernel
//! // time spent.
//! let hit = session.run("k-clique", g, &params).unwrap();
//! assert!(hit.cached && hit.same_result(&kc));
//!
//! // The registry enumerates the whole suite by category.
//! let pattern_kernels = session.registry().by_category(Category::Pattern);
//! assert!(pattern_kernels.iter().any(|k| k.name() == "triangle-count"));
//! ```
//!
//! And the whole platform serves over the network: [`serve`] wraps
//! the session machinery in a TCP front end speaking
//! newline-delimited JSON, with a bounded admission queue in front of
//! a fixed pool of worker sessions that share one result cache.
//!
//! ```
//! use gms::serve::{Client, Json, ServeConfig, Server};
//!
//! // An ephemeral-port server with two worker sessions.
//! let handle = Server::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//!
//! // Ship a graph inline and mine it by name.
//! let mut text = Vec::new();
//! gms::graph::io::write_edge_list(&gms::gen::gnp(120, 0.06, 3), &mut text).unwrap();
//! let loaded = client
//!     .load_inline("demo", "edge-list", std::str::from_utf8(&text).unwrap())
//!     .unwrap();
//! assert_eq!(loaded.get("ok"), Some(&Json::Bool(true)));
//!
//! // Identical requests are served from the shared result cache.
//! let first = client.run("triangle-count", "demo", &[]).unwrap();
//! let again = client.run("triangle-count", "demo", &[]).unwrap();
//! assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
//! assert_eq!(again.get("cached").and_then(Json::as_bool), Some(true));
//!
//! // Graceful shutdown over the wire.
//! client.shutdown().unwrap();
//! handle.join();
//! ```
//!
//! The legacy per-crate entry points (`BkVariant::run`,
//! `k_clique_count`, ...) remain available for direct use; the
//! kernel API wraps them.
//!
//! ## Crate map
//!
//! | module | contents | paper section |
//! |---|---|---|
//! | [`core`] | `Set` trait + 5 layouts, CSR, set-centric graphs | §5.1–5.3 |
//! | [`graph`] | transforms, dataset I/O (edge list / METIS / `.gcsr` snapshots), the gap-compressed CSR (varint + gap coding) | §5, App. B |
//! | [`gen`] | ER, Kronecker, planted structures, grids | §4.2 |
//! | [`order`] | DEG / DGR / ADG / triangle rank, k-cores | §6.1 |
//! | [`pattern`] | Bron–Kerbosch, k-cliques, clique-stars, triangles | §6.2–6.3, 6.6 |
//! | [`matching`] | VF2 + parallel VF3-Light-style isomorphism | §6.4 |
//! | [`learn`] | similarity, link prediction, clustering, communities | §6.5, 6.7 |
//! | [`opt`] | coloring, Borůvka MST, Karger–Stein min cut | §4.1.4 |
//! | [`platform`] | software counters, thread scaling, dataset stats | §5.5, 8.1 |
//! | [`platform::kernel`] | unified kernel API: registry, session + shared result cache; outcomes carry per-stage timings and algorithmic throughput | §4.3, 5.4 (service layer) |
//! | [`serve`] | TCP front end: NDJSON protocol, admission control, concurrent worker sessions | north star |
//! | [`router`] | fleet front end: consistent-hash sharding over N `serve` backends, scatter-gather batches, failover | north star |
//!
//! Scale past one process by putting [`router`] in front of several
//! [`serve`] backends — same wire protocol, one address:
//!
//! ```text
//!   clients ──► gms-router ──► gms-serve × N
//!              (placement,    (admission queue,
//!               scatter-       worker sessions,
//!               gather,        shared result cache)
//!               failover)
//! ```

#![warn(missing_docs)]

pub use gms_core as core;
pub use gms_gen as gen;
pub use gms_graph as graph;
pub use gms_learn as learn;
pub use gms_match as matching;
pub use gms_opt as opt;
pub use gms_order as order;
pub use gms_pattern as pattern;
pub use gms_platform as platform;
pub use gms_router as router;
pub use gms_serve as serve;

/// The most common imports in one place.
pub mod prelude {
    pub use gms_core::{
        CsrGraph, DenseBitSet, Graph, HashVertexSet, NodeId, RoaringSet, Set, SetGraph,
        SetNeighborhoods, SortedVecSet,
    };
    pub use gms_graph::io::{GraphFormat, GraphIoCause, GraphIoError, GraphSource};
    pub use gms_graph::{orient_by_rank, relabel, CompressedCsr, Rank};
    pub use gms_learn::SimilarityMeasure;
    pub use gms_match::{IsoMode, IsoOptions, LabeledGraph};
    pub use gms_order::OrderingKind;
    pub use gms_pattern::{
        bron_kerbosch, k_clique_count, BkConfig, BkVariant, KcConfig, KcParallel, KcVariant,
        SubgraphMode,
    };
    pub use gms_platform::kernel::{
        CacheKey, CacheStats, Category, GraphHandle, GraphStore, Kernel, KernelError, Outcome,
        ParamSpec, Params, Payload, Registry, ResultCache, RunCx, Session, SessionStats,
        SnapshotCompression, Value, ValueKind,
    };
    pub use gms_platform::GraphStats;
    pub use gms_router::{Router, RouterConfig, RouterHandle};
    pub use gms_serve::{Client, ServeConfig, Server, ServerHandle};
}
