//! Serving-layer integration: N concurrent sessions hammering one
//! shared [`ResultCache`] — single-flight deduplication of identical
//! in-flight requests, cross-session hits, invalidation on reload —
//! plus one facade-level round trip through the `gms-serve` TCP
//! front end.

use gms::prelude::*;
use gms::serve::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A kernel that counts its own executions and is deliberately slow,
/// so concurrently arriving identical requests overlap reliably.
struct CountingKernel {
    executions: Arc<AtomicUsize>,
    delay: Duration,
}

impl Kernel for CountingKernel {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn category(&self) -> Category {
        Category::Pattern
    }

    fn about(&self) -> &'static str {
        "execution-counting test kernel"
    }

    fn params(&self) -> &'static [ParamSpec] {
        const X: &[ParamSpec] = &[ParamSpec::int("x", 0, "distinguishes requests")];
        X
    }

    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        Ok(Outcome::new(
            "counting",
            100 + cx.params().get_int("x", 0) as u64,
        ))
    }
}

fn counting_registry(executions: &Arc<AtomicUsize>, delay: Duration) -> Registry {
    let mut registry = Registry::empty();
    registry.register(Box::new(CountingKernel {
        executions: Arc::clone(executions),
        delay,
    }));
    registry
}

fn small_graph() -> CsrGraph {
    gms::gen::planted_cliques(100, 0.04, 2, 5, 13).0
}

#[test]
fn identical_inflight_requests_execute_once_across_sessions() {
    let executions = Arc::new(AtomicUsize::new(0));
    let cache = Arc::new(ResultCache::new(64));
    let n = 8;
    let barrier = Arc::new(Barrier::new(n));
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let executions = Arc::clone(&executions);
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut session = Session::with_registry_and_cache(
                    counting_registry(&executions, Duration::from_millis(60)),
                    cache,
                );
                let g = session.add_graph(small_graph());
                barrier.wait();
                session.run("counting", g, &Params::new()).unwrap()
            })
        })
        .collect();
    let outcomes: Vec<Outcome> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "single-flight: one leader, everyone else coalesces"
    );
    assert_eq!(outcomes.iter().filter(|o| !o.cached).count(), 1);
    assert!(outcomes.iter().all(|o| o.patterns == 100));
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits as usize, n - 1);
    assert!(
        stats.cross_hits >= 1,
        "hits landed on sessions that did not pay: {stats:?}"
    );
    assert!(
        stats.coalesced >= 1,
        "at least one request waited for the in-flight leader: {stats:?}"
    );
}

#[test]
fn distinct_requests_all_execute() {
    let executions = Arc::new(AtomicUsize::new(0));
    let cache = Arc::new(ResultCache::new(64));
    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let threads: Vec<_> = (0..n)
        .map(|i| {
            let executions = Arc::clone(&executions);
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut session = Session::with_registry_and_cache(
                    counting_registry(&executions, Duration::from_millis(5)),
                    cache,
                );
                let g = session.add_graph(small_graph());
                barrier.wait();
                session
                    .run("counting", g, &Params::new().with("x", i as i64))
                    .unwrap()
            })
        })
        .collect();
    let outcomes: Vec<Outcome> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    assert_eq!(executions.load(Ordering::SeqCst), n, "no false sharing");
    assert!(outcomes.iter().all(|o| !o.cached));
    let mut patterns: Vec<u64> = outcomes.iter().map(|o| o.patterns).collect();
    patterns.sort_unstable();
    assert_eq!(patterns, (100..100 + n as u64).collect::<Vec<_>>());
    assert_eq!(cache.stats().entries, n);
}

#[test]
fn sequential_cross_session_hits_and_per_session_stats() {
    let cache = Arc::new(ResultCache::new(64));
    let mut payer = Session::with_registry_and_cache(Registry::with_builtins(), Arc::clone(&cache));
    let mut rider = Session::with_registry_and_cache(Registry::with_builtins(), Arc::clone(&cache));
    let pg = payer.add_graph(small_graph());
    let rg = rider.add_graph(small_graph());

    let paid = payer.run("triangle-count", pg, &Params::new()).unwrap();
    let served = rider.run("triangle-count", rg, &Params::new()).unwrap();
    assert!(!paid.cached && served.cached);
    assert!(served.same_result(&paid));
    assert_eq!(payer.stats(), SessionStats { hits: 0, misses: 1 });
    assert_eq!(rider.stats(), SessionStats { hits: 1, misses: 0 });
    assert_eq!(cache.stats().cross_hits, 1);
}

#[test]
fn invalidation_on_reload_forces_recomputation() {
    let executions = Arc::new(AtomicUsize::new(0));
    let mut session = Session::with_registry_and_cache(
        counting_registry(&executions, Duration::ZERO),
        Arc::new(ResultCache::new(64)),
    );
    let g = session.add_graph(small_graph());
    session.run("counting", g, &Params::new()).unwrap();
    assert_eq!(executions.load(Ordering::SeqCst), 1);

    // Reload with different content: cached outcome is invalidated.
    session
        .replace_graph(g, gms::gen::gnp(80, 0.05, 21))
        .unwrap();
    assert_eq!(session.cached_outcomes(), 0);
    assert_eq!(session.cache_stats().invalidated, 1);
    let after = session.run("counting", g, &Params::new()).unwrap();
    assert!(!after.cached);
    assert_eq!(executions.load(Ordering::SeqCst), 2);

    // Reload with identical content: nothing invalidated, still hot.
    session
        .replace_graph(g, gms::gen::gnp(80, 0.05, 21))
        .unwrap();
    let hit = session.run("counting", g, &Params::new()).unwrap();
    assert!(hit.cached);
    assert_eq!(executions.load(Ordering::SeqCst), 2);
}

#[test]
fn batch_runner_rides_the_shared_cache() {
    let cache = Arc::new(ResultCache::new(64));
    let mut a = Session::with_registry_and_cache(Registry::with_builtins(), Arc::clone(&cache));
    let mut b = Session::with_registry_and_cache(Registry::with_builtins(), Arc::clone(&cache));
    let ga = a.add_graph(small_graph());
    let gb = b.add_graph(small_graph());

    let requests = |g: GraphHandle| vec![BatchRequest::new("triangle-count", g, Params::new())];
    let first = BatchRunner::new(2).run(&mut a, &requests(ga));
    let second = BatchRunner::new(2).run(&mut b, &requests(gb));
    assert!(!first[0].as_ref().unwrap().cached);
    assert!(
        second[0].as_ref().unwrap().cached,
        "a batch on session B reuses session A's batch results"
    );
    assert!(cache.stats().cross_hits >= 1);
}

#[test]
fn facade_serves_over_tcp() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut text = Vec::new();
    gms::graph::io::write_edge_list(&small_graph(), &mut text).unwrap();
    let loaded = client
        .load_inline("g", "edge-list", std::str::from_utf8(&text).unwrap())
        .unwrap();
    assert_eq!(loaded.get("ok"), Some(&Json::Bool(true)));

    // The server answer matches the in-process session answer.
    let mut session = Session::new();
    let local = session.add_graph(small_graph());
    let expected = session
        .run("triangle-count", local, &Params::new())
        .unwrap();
    let remote = client.run("triangle-count", "g", &[]).unwrap();
    assert_eq!(
        remote.get("patterns").and_then(Json::as_i64),
        Some(expected.patterns as i64),
        "wire answers equal in-process answers"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// What one step of the differential script showed, in a form both
/// a [`Session`] and a server reply can be reduced to.
#[derive(Debug, PartialEq)]
enum Seen {
    /// A (re-)registration: fingerprint, base fingerprint, version.
    Graph(u64, u64, u64),
    /// A kernel run: pattern count and the `cached` flag.
    Run(u64, bool),
    /// A mutation: identity after it, effective delta, cache fate.
    Mutation {
        identity: (u64, u64, u64),
        delta: (usize, usize, usize),
        cache: (usize, usize, usize),
    },
}

fn wire_u64(reply: &Json, member: &str) -> u64 {
    let value = reply
        .get(member)
        .unwrap_or_else(|| panic!("no {member:?} in {}", reply.render()));
    match value {
        Json::Int(i) => *i as u64,
        Json::Str(hex) => u64::from_str_radix(hex.trim_start_matches("0x"), 16).unwrap(),
        other => panic!("{member:?} is {other:?}"),
    }
}

fn wire_identity(reply: &Json) -> (u64, u64, u64) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        reply.render()
    );
    (
        wire_u64(reply, "fingerprint"),
        wire_u64(reply, "base_fingerprint"),
        wire_u64(reply, "version"),
    )
}

fn edge_list_text(graph: &CsrGraph) -> String {
    let mut text = Vec::new();
    gms::graph::io::write_edge_list(graph, &mut text).unwrap();
    String::from_utf8(text).unwrap()
}

/// `Session`, `BatchRunner` and the serve worker hold graphs through
/// one `Resident` and its admit / run / mutate; this drives the same
/// script through a session and through a real server and demands the
/// same identity, mutation outcome, `cached` flag and pattern count
/// at every step — for every way a graph can arrive (edge list and
/// METIS inline, `.gcsr` v1 and v2 by path) and every representation
/// it can be held in (raw, recompressed to gap, a v2 snapshot's own
/// compressed body).
#[test]
fn a_session_and_a_server_tell_the_same_story_step_by_step() {
    let graph = small_graph();
    let other = gms::gen::gnp(90, 0.05, 3);
    let (u, v) = (0..100 as NodeId)
        .flat_map(|u| (u + 1..100).map(move |v| (u, v)))
        .find(|&(u, v)| !graph.has_edge(u, v))
        .unwrap();
    let present = graph.edges_undirected().next().unwrap();
    let batch = [(u, v), present];
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges_undirected().collect();
    edges.push((u, v));
    let mutated = CsrGraph::from_undirected_edges(100, &edges);

    let dir = std::env::temp_dir().join(format!("gms_serving_diff_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (v1, v2) = (dir.join("v1.gcsr"), dir.join("v2.gcsr"));
    gms::graph::io::save_snapshot(&graph, &v1).unwrap();
    gms::graph::io::save_snapshot_compressed(&CompressedCsr::from_csr(&graph), &v2).unwrap();
    let text = edge_list_text(&graph);
    let mut metis = Vec::new();
    gms::graph::io::write_metis(&graph, &mut metis).unwrap();
    let metis = String::from_utf8(metis).unwrap();

    // (label, format, source, ask the server for "compression":"gap")
    let arrivals = [
        (
            "edge-list inline",
            GraphFormat::EdgeList,
            GraphSource::Text(&text),
            false,
        ),
        (
            "metis inline",
            GraphFormat::Metis,
            GraphSource::Text(&metis),
            false,
        ),
        (
            "gcsr v1 by path",
            GraphFormat::Gcsr,
            GraphSource::Path(&v1),
            false,
        ),
        (
            "gcsr v2 by path",
            GraphFormat::Gcsr,
            GraphSource::Path(&v2),
            true,
        ),
        (
            "edge-list inline, gap",
            GraphFormat::EdgeList,
            GraphSource::Text(&text),
            true,
        ),
    ];
    const KERNELS: [&str; 3] = ["triangle-count", "order-random", "order-degree"];
    for (label, format, source, compressed) in arrivals {
        // --- through a Session -------------------------------------
        let mut told = Vec::new();
        let mut session = Session::new();
        let g = if compressed && format != GraphFormat::Gcsr {
            session.add_compressed(CompressedCsr::from_csr(&graph))
        } else {
            session.load(format, source).unwrap()
        };
        assert_eq!(
            session.store(g).unwrap().compression(),
            if compressed { "gap" } else { "raw" },
            "{label}"
        );
        let identity = |session: &Session| {
            let lineage = session.graph_lineage(g).unwrap();
            Seen::Graph(
                session.graph_fingerprint(g).unwrap(),
                lineage.base_fingerprint,
                lineage.version,
            )
        };
        let run = |session: &mut Session, kernel: &str| {
            let outcome = session.run(kernel, g, &Params::new()).unwrap();
            Seen::Run(outcome.patterns, outcome.cached)
        };
        let mutate = |session: &mut Session| {
            let out = session.add_edges(g, &batch).unwrap();
            Seen::Mutation {
                identity: (out.fingerprint, out.base_fingerprint, out.version),
                delta: (out.added, out.removed, out.touched),
                cache: (
                    out.cache.survived,
                    out.cache.refreshed,
                    out.cache.invalidated,
                ),
            }
        };
        told.push(identity(&session));
        for kernel in KERNELS {
            told.push(run(&mut session, kernel));
        }
        told.push(run(&mut session, "triangle-count"));
        told.push(mutate(&mut session));
        told.push(run(&mut session, "triangle-count"));
        told.push(mutate(&mut session)); // every change already holds
        session.replace_graph(g, mutated.clone()).unwrap();
        told.push(identity(&session));
        told.push(run(&mut session, "triangle-count"));
        session.replace_graph(g, other.clone()).unwrap();
        told.push(identity(&session));
        told.push(run(&mut session, "triangle-count"));

        // --- through a server --------------------------------------
        let handle = Server::start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let load = |client: &mut Client, format: GraphFormat, source: GraphSource<'_>| {
            let mut members = vec![
                ("op", Json::from("load")),
                ("graph", Json::from("g")),
                ("format", Json::from(format.as_str())),
                match source {
                    GraphSource::Path(path) => ("path", Json::from(path.display().to_string())),
                    GraphSource::Text(text) => ("data", Json::from(text)),
                },
            ];
            if compressed && format != GraphFormat::Gcsr {
                members.push(("compression", Json::from("gap")));
            }
            let reply = client.request(&Json::object(members)).unwrap();
            let (fingerprint, base, version) = wire_identity(&reply);
            Seen::Graph(fingerprint, base, version)
        };
        let run = |client: &mut Client, kernel: &str| {
            let reply = client.run(kernel, "g", &[]).unwrap();
            assert_eq!(
                reply.get("ok"),
                Some(&Json::Bool(true)),
                "{}",
                reply.render()
            );
            let cached = reply.get("cached").and_then(Json::as_bool).unwrap();
            Seen::Run(wire_u64(&reply, "patterns"), cached)
        };
        let mutate = |client: &mut Client| {
            let reply = client.add_edges("g", &batch).unwrap();
            let cache = reply.get("cache").unwrap();
            let count = |from: &Json, member: &str| wire_u64(from, member) as usize;
            Seen::Mutation {
                identity: wire_identity(&reply),
                delta: (
                    count(&reply, "added"),
                    count(&reply, "removed"),
                    count(&reply, "touched"),
                ),
                cache: (
                    count(cache, "survived"),
                    count(cache, "refreshed"),
                    count(cache, "invalidated"),
                ),
            }
        };
        let mut heard = vec![load(&mut client, format, source)];
        for kernel in KERNELS {
            heard.push(run(&mut client, kernel));
        }
        heard.push(run(&mut client, "triangle-count"));
        heard.push(mutate(&mut client));
        heard.push(run(&mut client, "triangle-count"));
        heard.push(mutate(&mut client));
        let same = edge_list_text(&mutated);
        heard.push(load(
            &mut client,
            GraphFormat::EdgeList,
            GraphSource::Text(&same),
        ));
        heard.push(run(&mut client, "triangle-count"));
        let different = edge_list_text(&other);
        heard.push(load(
            &mut client,
            GraphFormat::EdgeList,
            GraphSource::Text(&different),
        ));
        heard.push(run(&mut client, "triangle-count"));
        client.shutdown().unwrap();
        handle.join();

        assert_eq!(told.len(), heard.len());
        for (step, (told, heard)) in told.iter().zip(&heard).enumerate() {
            assert_eq!(told, heard, "{label}: step {step} (session vs server)");
        }
        // The script itself did what it says on the tin.
        assert!(
            matches!(told[4], Seen::Run(_, true)),
            "{label}: {:?}",
            told[4]
        );
        assert!(
            matches!(
                &told[5],
                Seen::Mutation {
                    identity: (_, _, 1),
                    delta: (1, 0, 2),
                    cache: (1, 1, 1)
                }
            ),
            "{label}: {:?}",
            told[5]
        );
        assert!(
            matches!(told[6], Seen::Run(_, true)),
            "{label}: refreshed, not recomputed"
        );
        assert!(
            matches!(
                &told[7],
                Seen::Mutation {
                    identity: (_, _, 1),
                    delta: (0, 0, 0),
                    cache: (0, 0, 0)
                }
            ),
            "{label}: {:?}",
            told[7]
        );
        assert_eq!(
            told[8],
            Seen::Graph(
                gms::platform::kernel::fingerprint(&mutated),
                gms::platform::kernel::fingerprint(&graph),
                1
            ),
            "{label}: re-load keeps lineage"
        );
        assert!(
            matches!(told[9], Seen::Run(_, true)),
            "{label}: re-load keeps the cache"
        );
        assert!(
            matches!(told[10], Seen::Graph(a, b, 0) if a == b),
            "{label}: {:?}",
            told[10]
        );
        assert!(
            matches!(told[11], Seen::Run(_, false)),
            "{label}: new content is cold"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Strategies for the request model: every op, all four scalar
/// parameter kinds (floats include integral ones like `2.0`, which
/// must not come back as integers), edge batches, and the shared
/// envelope members.
mod envelopes {
    use gms::platform::kernel::{Params, Value};
    use gms::serve::{
        Envelope, GraphFormat, Json, LoadCompression, LoadSource, LoadSpec, MutateSpec, Request,
        RunSpec,
    };
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Text that exercises JSON string escaping; `min` 1 for members
    /// that must not be empty.
    fn text(min: usize) -> impl Strategy<Value = String> {
        const ALPHABET: [char; 10] = ['a', 'Z', '7', '-', ' ', '"', '\\', '\n', '\u{1}', 'é'];
        vec(0usize..ALPHABET.len(), min..9)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-1_000_000i64..1_000_000).prop_map(Value::Int),
            prop_oneof![
                Just(2.0),
                Just(-0.0),
                Just(0.1),
                Just(1e300),
                (0u32..4096).prop_map(|x| f64::from(x) / 8.0 - 100.0),
            ]
            .prop_map(Value::Float),
            (0u8..2).prop_map(|b| Value::Bool(b == 1)),
            text(0).prop_map(Value::from),
        ]
    }

    fn run_spec() -> impl Strategy<Value = RunSpec> {
        (text(0), text(0), vec((text(1), value()), 0..5)).prop_map(|(kernel, graph, overrides)| {
            let mut params = Params::new();
            for (name, value) in overrides {
                params.set(&name, value);
            }
            RunSpec {
                kernel,
                graph,
                params,
            }
        })
    }

    fn load_spec() -> impl Strategy<Value = LoadSpec> {
        // (format, inline?) — gcsr is path-only on the wire.
        let shape = prop_oneof![
            Just((GraphFormat::EdgeList, true)),
            Just((GraphFormat::EdgeList, false)),
            Just((GraphFormat::Metis, true)),
            Just((GraphFormat::Metis, false)),
            Just((GraphFormat::Gcsr, false)),
        ];
        (text(0), shape, text(0), 0u8..2).prop_map(|(name, (format, inline), content, gap)| {
            LoadSpec {
                name,
                format,
                source: if inline {
                    LoadSource::Data(content)
                } else {
                    LoadSource::Path(content)
                },
                compression: if gap == 1 {
                    LoadCompression::Gap
                } else {
                    LoadCompression::None
                },
            }
        })
    }

    fn request() -> impl Strategy<Value = Request> {
        let edges = vec((0u32..u32::MAX, 0u32..u32::MAX), 0..6);
        prop_oneof![
            Just(Request::Health),
            Just(Request::Kernels),
            Just(Request::Stats),
            Just(Request::Shutdown),
            load_spec().prop_map(Request::Load),
            // One op per line: an NDJSON mutation fills one side.
            (text(0), edges, 0u8..2).prop_map(|(graph, edges, side)| {
                let (add, remove) = if side == 0 {
                    (edges, Vec::new())
                } else {
                    (Vec::new(), edges)
                };
                Request::Mutate(MutateSpec { graph, add, remove })
            }),
            run_spec().prop_map(Request::Run),
            vec(run_spec(), 0..4).prop_map(Request::Batch),
        ]
    }

    fn optional<S>(some: S) -> impl Strategy<Value = Option<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: Clone + 'static,
    {
        prop_oneof![Just(None), some.prop_map(Some)]
    }

    pub fn envelope() -> impl Strategy<Value = Envelope> {
        let id = prop_oneof![
            (0i64..1_000_000).prop_map(Json::Int),
            text(0).prop_map(Json::Str)
        ];
        let admission = (
            optional(1u64..10_000_000),
            optional(text(1)),
            1u32..1025,
            0u8..2,
        );
        (request(), optional(id), admission).prop_map(
            |(request, id, (deadline_ms, client, weight, redirect))| Envelope {
                id,
                deadline_ms,
                client,
                weight,
                redirect: redirect == 1,
                ..Envelope::new(request)
            },
        )
    }
}

// The request renderer is the parser's inverse: whatever the
// `Client` helpers or the router's forwarding render, a server reads
// back as the same request.
proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    #[test]
    fn envelope_rendering_round_trips_through_the_parser(envelope in envelopes::envelope()) {
        let line = envelope.to_json().render();
        let parsed = gms::serve::protocol::parse_envelope(&line)
            .unwrap_or_else(|(e, _)| panic!("{e}: {line}"));
        proptest::prop_assert_eq!(parsed, envelope, "{}", line);
    }
}

/// Placement is a pure function of (fleet membership, graph
/// content): the same graph built twice fingerprints identically,
/// and two independently constructed rings over the same fleet agree
/// on its owner — so a router restart (or a second router over the
/// same backends) places every graph where the first one did.
#[test]
fn router_placement_is_deterministic() {
    use gms::router::{HashRing, RingMember};

    let fleet: Vec<RingMember> = (0..4)
        .map(|i| RingMember {
            name: format!("10.1.0.{i}:7400"),
            weight: 2 + i % 3,
        })
        .collect();
    let ring_a = HashRing::build(fleet.iter().map(Some));
    let ring_b = HashRing::build(fleet.iter().map(Some));

    let fp_a = gms::platform::kernel::fingerprint(&small_graph());
    let fp_b = gms::platform::kernel::fingerprint(&small_graph());
    assert_eq!(fp_a, fp_b, "content fingerprints are stable");
    assert_eq!(
        ring_a.owner(fp_a),
        ring_b.owner(fp_b),
        "identical fleets place identical graphs identically"
    );
    // And across many fingerprints, not just this one.
    for key in 0..5_000u64 {
        assert_eq!(ring_a.owner(key), ring_b.owner(key));
    }
}

/// Fleet-wide `stats` through the router: per-backend counter blocks
/// sum into the fleet aggregate, and the graph table names a live
/// shard for every loaded graph.
#[test]
fn router_stats_merge_fleet_counters() {
    let backends: Vec<ServerHandle> = (0..2)
        .map(|_| Server::start(ServeConfig::default()).unwrap())
        .collect();
    let router = Router::start(RouterConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    let mut text = Vec::new();
    gms::graph::io::write_edge_list(&small_graph(), &mut text).unwrap();
    let text = std::str::from_utf8(&text).unwrap();
    for name in ["a", "b", "c"] {
        let loaded = client.load_inline(name, "edge-list", text).unwrap();
        assert_eq!(loaded.get("ok"), Some(&Json::Bool(true)));
        let run = client.run("triangle-count", name, &[]).unwrap();
        assert_eq!(run.get("ok"), Some(&Json::Bool(true)));
    }

    let stats = client
        .request(&Json::object([("op", Json::from("stats"))]))
        .unwrap();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));

    // Fleet aggregates are the sum of the per-backend blocks.
    let backend_blocks = stats.get("backends").and_then(Json::as_array).unwrap();
    assert_eq!(backend_blocks.len(), 2);
    let sum_of = |key: &str| -> i64 {
        backend_blocks
            .iter()
            .filter_map(|b| {
                b.get("server")
                    .and_then(|s| s.get(key))
                    .and_then(Json::as_i64)
            })
            .sum()
    };
    let fleet_server = stats.get("fleet").and_then(|f| f.get("server")).unwrap();
    for key in ["requests", "completed", "rejected", "malformed"] {
        assert_eq!(
            fleet_server.get(key).and_then(Json::as_i64),
            Some(sum_of(key)),
            "fleet {key} is the sum of the shards"
        );
    }
    assert!(
        fleet_server
            .get("completed")
            .and_then(Json::as_i64)
            .unwrap()
            >= 3,
        "the three runs completed somewhere in the fleet"
    );

    // The graph table is fleet-wide and every graph has a live home.
    let graphs = stats.get("graphs").and_then(Json::as_array).unwrap();
    assert_eq!(graphs.len(), 3);
    let fleet_addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    for graph in graphs {
        let shard = graph.get("shard").and_then(Json::as_str).unwrap();
        assert!(fleet_addrs.iter().any(|a| a == shard));
    }

    router.shutdown();
    router.join();
    for backend in backends {
        let mut c = Client::connect(backend.addr()).unwrap();
        let _ = c.shutdown();
        backend.join();
    }
}

/// Acceptance: two clients with 4:1 weights hammering a one-worker
/// server under a shared deadline complete requests in at least a
/// 2:1 ratio — weighted-fair scheduling, not FIFO arrival order.
/// Per-mutation cost is calibrated first so the deadline and backlog
/// sizes adapt to the machine running the test.
#[test]
fn weighted_clients_split_a_saturated_server_by_weight() {
    use gms::serve::Client;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    let graph = gms::gen::gnp(20_000, 0.0005, 11);
    let mut text = Vec::new();
    gms::graph::io::write_edge_list(&graph, &mut text).unwrap();
    let text = String::from_utf8(text).unwrap();

    // Calibrate: how long does one single-edge mutation cost here?
    let unit_ms = {
        let handle = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut admin = Client::connect(handle.addr()).unwrap();
        admin.load_inline("g", "edge-list", &text).unwrap();
        let started = Instant::now();
        for i in 0..4u32 {
            admin.add_edges("g", &[(i, i + 10_000)]).unwrap();
        }
        admin.shutdown().unwrap();
        handle.join();
        (started.elapsed().as_secs_f64() * 1000.0 / 4.0).max(0.1)
    };
    // A deadline dozens of mutations deep (ratio granularity), with
    // per-client backlogs comfortably outlasting it (saturation).
    let deadline_ms = ((40.0 * unit_ms) as u64).max(250);
    let per_client = ((2.0 * deadline_ms as f64 / unit_ms).ceil() as usize).clamp(80, 4000);

    let handle = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 2 * per_client + 64,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut admin = Client::connect(handle.addr()).unwrap();
    admin.load_inline("g", "edge-list", &text).unwrap();

    // Each client pipelines its whole backlog of distinct single-edge
    // mutations (uncacheable, so every request costs real work), then
    // counts how many completed before the shared deadline expired
    // the rest in the queue.
    let addr = handle.addr();
    let contest = |name: &'static str, weight: u32, base: usize| {
        std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for k in 0..per_client {
                let (a, b) = (4 * k + base, 4 * k + base + 1);
                let line = format!(
                    "{{\"v\":1,\"op\":\"add_edges\",\"graph\":\"g\",\"edges\":[[{a},{b}]],\
                     \"deadline_ms\":{deadline_ms},\"client\":\"{name}\",\"weight\":{weight}}}\n"
                );
                writer.write_all(line.as_bytes()).unwrap();
            }
            writer.flush().unwrap();
            let mut completed = 0usize;
            let mut line = String::new();
            for _ in 0..per_client {
                line.clear();
                reader.read_line(&mut line).unwrap();
                let response = Json::parse(line.trim()).unwrap();
                if response.get("ok") == Some(&Json::Bool(true)) {
                    completed += 1;
                }
            }
            completed
        })
    };
    let heavy = contest("heavy", 4, 0);
    let light = contest("light", 1, 2);
    let heavy_ok = heavy.join().unwrap();
    let light_ok = light.join().unwrap();

    assert!(heavy_ok >= 1, "the favored client completed work");
    assert!(
        heavy_ok + light_ok < 2 * per_client,
        "the deadline cut the backlog (saturation held): {heavy_ok} + {light_ok}"
    );
    assert!(
        heavy_ok >= 2 * light_ok.max(1),
        "4:1 weights should yield at least 2:1 service, got {heavy_ok}:{light_ok}"
    );

    admin.shutdown().unwrap();
    handle.join();
}
