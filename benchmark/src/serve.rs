//! `serve_hot`, `route_hot` and `serve_churn`: requests over loopback
//! sockets to servers and routers started in this process.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gms_core::{CsrGraph, Edge, Graph};
use gms_platform::kernel::{Params, Session};
use gms_router::{Router, RouterConfig, RouterHandle};
use gms_serve::{ServeConfig, Server, ServerHandle};

use crate::env::out_dir;
use crate::graphs::{check_invariants, generate, hot_name, Expected, HOT_GRAPHS, HOT_KEYS};
use crate::stats::{median, percentile, Rng};
use crate::trace::Tracer;
use crate::wire::{
    edge_list_text, field, field_f64, field_u64, is_ok, key, load_line, mutate_line, reply_id,
    Http, KernelKey, Ndjson, RunTemplate,
};
use crate::workload::{nproc, width, Check, Section, Workload};

/// How a closed loop offers its requests: connections, and requests
/// each connection keeps in flight (pipelined, matched by `id`).
#[derive(Clone, Copy)]
pub struct Load {
    pub connections: usize,
    pub depth: usize,
}

impl Load {
    /// `serve_hot`: one connection per core, eight requests in flight
    /// on each. At depth 1 throughput was bimodal (12.6 k to 30.5 k
    /// req/s): whether a reply finds its reader parked is the OS
    /// scheduler's lottery. Two connections with eight in flight gave
    /// 80 to 90 k req/s every time.
    pub fn direct() -> Self {
        Self {
            connections: nproc(),
            depth: 8,
        }
    }

    /// `route_hot`: the router serves each connection serially, so a
    /// deeper pipeline only queues inside it, and with one connection
    /// per core the path idles between wake-ups: throughput then swung
    /// by 8 % and p99 by 25 % between runs of one build. Two
    /// connections per core, one request served and one waiting on
    /// each, halved both spreads.
    pub fn routed() -> Self {
        Self {
            connections: 2 * nproc(),
            depth: 2,
        }
    }

    /// One request at a time: the round trip with nothing else in flight.
    pub fn unloaded() -> Self {
        Self {
            connections: 1,
            depth: 1,
        }
    }
}

/// Request and reply lines each connection keeps for the JSON probes.
const CORPUS_LINES: usize = 256;

/// Servers, and optionally a router in front of them, in this process.
struct Fleet {
    servers: Vec<ServerHandle>,
    router: Option<(RouterHandle, PathBuf)>,
    /// Where clients connect: the router if there is one.
    addr: SocketAddr,
}

impl Fleet {
    fn start(backends: usize, routed: bool, cache_capacity: usize) -> Self {
        let servers: Vec<ServerHandle> = (0..backends)
            .map(|_| {
                Server::start(ServeConfig {
                    workers: width(),
                    queue_capacity: 64,
                    cache_capacity,
                    ..Default::default()
                })
                .expect("server starts on an ephemeral port")
            })
            .collect();
        let router = routed.then(|| {
            // Inside the checkout, not the system temp directory.
            let spill = out_dir().join(format!("spill-{}", std::process::id()));
            let handle = Router::start(RouterConfig {
                backends: servers.iter().map(|s| s.addr().to_string()).collect(),
                spill_dir: Some(spill.clone()),
                ..Default::default()
            })
            .expect("router starts on an ephemeral port");
            (handle, spill)
        });
        let addr = router
            .as_ref()
            .map_or_else(|| servers[0].addr(), |(r, _)| r.addr());
        Self {
            servers,
            router,
            addr,
        }
    }

    fn stop(self) {
        if let Some((router, spill)) = self.router {
            router.shutdown();
            router.join();
            let _ = std::fs::remove_dir_all(spill);
        }
        for server in self.servers {
            server.shutdown();
            server.join();
        }
    }
}

/// Loads a graph inline over the wire; the reply must be `ok`.
fn load_over_wire(conn: &mut Ndjson, name: &str, graph: &CsrGraph, check: &mut Check) {
    let reply = conn.call(&load_line(name, &edge_list_text(graph)));
    check.expect(reply.as_deref().is_ok_and(is_ok), || {
        format!("load {name}: {reply:?}")
    });
}

// ------------------------------------------------------------------ hot

/// `serve_hot` and `route_hot`: a 64-key working set, every timed
/// reply a cache hit. Read, parse, admission, cache lookup, render and
/// write do all the work and kernels none. `route_hot` sends the same
/// stream through a router in front of two backends, so the difference
/// between the two is the router hop.
pub struct Hot {
    fleet: Fleet,
    routed: bool,
    /// One entry per key of the working set.
    keys: Vec<HotKey>,
    seed: u64,
    check: Check,
}

struct HotKey {
    graph: String,
    key: KernelKey,
    template: RunTemplate,
    expected: u64,
}

impl Hot {
    pub fn setup(seed: u64, routed: bool) -> Self {
        let expected = Expected::load();
        let fleet = Fleet::start(if routed { 2 } else { 1 }, routed, 256);
        let mut check = Check::default();
        let mut conn = Ndjson::connect(fleet.addr).expect("control connection");
        let mut keys = Vec::new();
        for g in 0..HOT_GRAPHS {
            let name = hot_name(g);
            load_over_wire(&mut conn, &name, &generate(&name), &mut check);
            keys.extend(HOT_KEYS.iter().map(|&key| HotKey {
                template: RunTemplate::new(&name, key),
                expected: expected.get(&name, key),
                graph: name.clone(),
                key,
            }));
        }
        // The discarded pass computes every key; a second pass must
        // find each one cached.
        let mut observed = BTreeMap::new();
        for pass in 0..2 {
            for (id, k) in keys.iter().enumerate() {
                let reply = conn.call(&k.template.render(id as u64)).unwrap_or_default();
                let patterns = field_u64(&reply, "patterns");
                let cached = field(&reply, "cached") == Some("true");
                check.expect(
                    is_ok(&reply) && patterns == Some(k.expected) && (pass == 0 || cached),
                    || format!("warm-up {} on {}: {reply}", k.key.kernel, k.graph),
                );
                if let Some(patterns) = patterns {
                    observed.insert((k.graph.clone(), k.key), patterns);
                }
            }
        }
        check.merge(check_invariants(&observed));
        Self {
            fleet,
            routed,
            keys,
            seed,
            check,
        }
    }

    /// The same keys over keep-alive HTTP (`POST /v1/graphs/{g}/run`),
    /// one request at a time per connection: the cost of the gateway
    /// framing over the NDJSON plane.
    pub fn http_lane(&self, seconds: f64) -> Section {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..nproc())
                .map(|c| {
                    scope.spawn(move || {
                        let Ok(mut http) = Http::connect(self.fleet.addr) else {
                            return (1, 1);
                        };
                        let (mut attempted, mut failed) = (0, 0);
                        let mut next = c * 17;
                        while Instant::now() < deadline {
                            let k = &self.keys[next % self.keys.len()];
                            next += 1;
                            attempted += 1;
                            let good = http.run(&k.graph, k.key).is_ok_and(|(status, body)| {
                                status == 200 && field_u64(&body, "patterns") == Some(k.expected)
                            });
                            if !good {
                                failed += 1;
                            }
                        }
                        (attempted, failed)
                    })
                })
                .collect();
            lanes
                .into_iter()
                .map(|l| l.join().expect("HTTP lane thread"))
                .collect()
        });
        let mut section = Section::default();
        for (attempted, failed) in results {
            section.attempted += attempted;
            section.failed += failed;
        }
        section.ops_per_s =
            (section.attempted - section.failed) as f64 / start.elapsed().as_secs_f64();
        section
    }
}

/// Throughput and percentiles as medians over one-second windows of
/// the section. A stall of the host (this box is a small shared VM)
/// spoils the windows it falls in, not the run's numbers. Each window
/// of a closed loop holds tens of thousands of replies, enough for its
/// own p99. `windows[k]` holds the latencies, in ms, of window `k`.
fn summarise_windows(section: &mut Section, windows: &mut [Vec<f32>], length_s: f64) {
    let mut per_window: [Vec<f64>; 4] = Default::default();
    for window in windows.iter_mut().filter(|w| !w.is_empty()) {
        window.sort_by(f32::total_cmp);
        section.samples += window.len() as u64;
        let at = |p: f64| f64::from(percentile(window, p));
        let stats = [
            window.len() as f64 / length_s,
            at(0.50),
            at(0.99),
            at(0.999),
        ];
        for (values, stat) in per_window.iter_mut().zip(stats) {
            values.push(stat);
        }
    }
    if section.samples > 0 {
        [
            section.ops_per_s,
            section.p50_ms,
            section.p99_ms,
            section.p999_ms,
        ] = per_window.map(|mut values| median(&mut values));
    }
}

struct ConnResult {
    /// Latency of each reply in ms, by the window it arrived in.
    windows: Vec<Vec<f32>>,
    replies: u64,
    failed: u64,
    /// Replies per `shard` address the router stamped on them.
    shards: BTreeMap<String, u64>,
    tracer: Option<Tracer>,
    corpus: Vec<String>,
}

/// One closed-loop connection: `depth` requests in flight, each reply
/// releasing the next request on its slot until `deadline`.
fn drive_connection(
    hot: &Hot,
    conn_index: usize,
    depth: usize,
    start: Instant,
    // How many windows the section has, and how long each is.
    windows: (usize, Duration),
    mut tracer: Option<Tracer>,
) -> std::io::Result<ConnResult> {
    let deadline = start + windows.1 * windows.0 as u32;
    let mut conn = Ndjson::connect(hot.fleet.addr)?;
    let mut order: Vec<usize> = (0..hot.keys.len()).collect();
    Rng(hot.seed.wrapping_add(conn_index as u64)).shuffle(&mut order);

    let mut result = ConnResult {
        windows: vec![Vec::new(); windows.0],
        replies: 0,
        failed: 0,
        shards: BTreeMap::new(),
        tracer: None,
        corpus: Vec::new(),
    };
    let keep_corpus = tracer.is_some();
    let mut request = String::new();
    let mut reply = String::new();
    let mut sequence = 0usize;
    // Per slot: the key in flight and when it was sent.
    let mut slots = vec![(0usize, Instant::now()); depth];
    let mut send = |slot: usize, conn: &mut Ndjson, corpus: &mut Vec<String>| {
        let key_index = order[sequence % order.len()];
        let id = (sequence * depth + slot) as u64;
        sequence += 1;
        hot.keys[key_index].template.render_into(id, &mut request);
        if keep_corpus && corpus.len() < CORPUS_LINES {
            corpus.push(request.clone());
        }
        let sent = Instant::now();
        conn.send(&request).map(|()| (key_index, sent))
    };
    for (slot, state) in slots.iter_mut().enumerate() {
        *state = send(slot, &mut conn, &mut result.corpus)?;
    }
    let mut in_flight = depth;
    while in_flight > 0 {
        if conn.recv(&mut reply).is_err() {
            result.failed += in_flight as u64;
            break;
        }
        let now = Instant::now();
        let id = reply_id(&reply).unwrap_or(0) as usize;
        let slot = id % depth;
        let (key_index, sent) = slots[slot];
        let k = &hot.keys[key_index];
        let good = is_ok(&reply)
            && field_u64(&reply, "patterns") == Some(k.expected)
            && field(&reply, "cached") == Some("true");
        if !good {
            result.failed += 1;
        }
        result.replies += 1;
        let window = ((now - start).as_nanos() / windows.1.as_nanos()) as usize;
        // Replies drained after the deadline belong to no window.
        if let Some(window) = result.windows.get_mut(window) {
            window.push((now - sent).as_secs_f32() * 1e3);
        }
        if hot.routed {
            if let Some(shard) = field(&reply, "shard") {
                *result.shards.entry(shard.to_string()).or_default() += 1;
            }
        }
        if let Some(tracer) = tracer.as_mut() {
            let op = ((conn_index as u64) << 48) | id as u64;
            let (t0, t1) = (tracer.ns(sent), tracer.ns(now));
            let parent = tracer.record("request", "run", t0, t1, None, op);
            let total_ns = (field_f64(&reply, "total_ms").unwrap_or(0.0) * 1e6) as u64;
            if total_ns > 0 {
                tracer.record(
                    "server.total",
                    "run",
                    t1.saturating_sub(total_ns),
                    t1,
                    parent,
                    op,
                );
            }
        }
        if keep_corpus && result.corpus.len() < 2 * CORPUS_LINES {
            result.corpus.push(reply.clone());
        }
        if now < deadline {
            slots[slot] = send(slot, &mut conn, &mut result.corpus)?;
        } else {
            in_flight -= 1;
        }
    }
    result.tracer = tracer;
    Ok(result)
}

impl Workload for Hot {
    fn run(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Section {
        let load = if self.routed {
            Load::routed()
        } else {
            Load::direct()
        };
        self.closed_loop(load, seconds, tracer)
    }

    fn finish(self: Box<Self>) -> Check {
        self.fleet.stop();
        self.check
    }
}

impl Hot {
    /// The closed loop under `load` for `seconds`.
    pub fn closed_loop(
        &self,
        load: Load,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> Section {
        let hot = self;
        let count = (seconds.floor() as usize).max(1);
        let length = Duration::from_secs_f64(seconds / count as f64);
        let start = Instant::now();
        // The generator: one thread per connection.
        let results: Vec<std::io::Result<ConnResult>> = std::thread::scope(|scope| {
            let connections: Vec<_> = (0..load.connections)
                .map(|c| {
                    let fork = tracer.as_deref().map(Tracer::fork);
                    scope.spawn(move || {
                        drive_connection(hot, c, load.depth, start, (count, length), fork)
                    })
                })
                .collect();
            connections
                .into_iter()
                .map(|c| c.join().expect("connection thread"))
                .collect()
        });

        let mut section = Section::default();
        let mut windows = vec![Vec::new(); count];
        let mut shards: BTreeMap<String, u64> = BTreeMap::new();
        for result in results {
            let Ok(result) = result else {
                // A connection that could not even be opened.
                section.attempted += 1;
                section.failed += 1;
                continue;
            };
            section.attempted += result.replies;
            section.failed += result.failed;
            for (merged, window) in windows.iter_mut().zip(result.windows) {
                merged.extend(window);
            }
            section.corpus.extend(result.corpus);
            for (shard, served) in result.shards {
                *shards.entry(shard).or_default() += served;
            }
            if let (Some(tracer), Some(fork)) = (tracer.as_deref_mut(), result.tracer) {
                tracer.absorb(fork);
            }
        }
        summarise_windows(&mut section, &mut windows, length.as_secs_f64());
        if self.routed {
            // A shard that served nothing is absent from the map.
            let all_served = shards.len() == self.fleet.servers.len();
            let least = shards
                .values()
                .min()
                .filter(|_| all_served)
                .map_or(0, |n| *n);
            let most = shards.values().max().map_or(1, |n| *n);
            section.add("shard_balance", least as f64 / most as f64);
            let stats = Ndjson::connect(self.fleet.addr)
                .and_then(|mut c| c.call("{\"v\":1,\"op\":\"stats\"}\n"))
                .unwrap_or_default();
            section.add(
                "failovers",
                field_u64(&stats, "failovers").unwrap_or(0) as f64,
            );
        }
        section
    }
}

// ---------------------------------------------------------------- churn

pub const CHURN_GRAPHS: [&str; 4] = ["clique-3k", "er-3k", "kron-1k", "tskew-5k"];

pub const CHURN_KEYS: [KernelKey; 12] = [
    key("bk", "{}"),
    key("bk-gms-adg", "{}"),
    key("k-clique", "{\"k\":3}"),
    key("k-clique", "{\"k\":4}"),
    key("triangle-count", "{}"),
    key("subgraph-iso-par", "{}"),
    key("coloring", "{}"),
    key("order-adg", "{}"),
    key("order-degeneracy", "{}"),
    key("k-core", "{}"),
    key("similarity", "{}"),
    key("label-propagation", "{}"),
];

/// Requests per second of the open loop. Frozen: at the commit that
/// added the benchmark a cycle through all 48 `(graph, key)` pairs
/// costs ~170 ms of kernel time, so 100 req/s keeps the server about a
/// third busy. The median request then finds it idle, and the tail is
/// the one heavy class (`subgraph-iso-par` on `kron-1k`, 1 read in 48)
/// plus whatever queues behind it. Nearer half busy the median
/// sat on the knee between idle and queued and moved by 25 % between
/// runs of one build.
pub const RATE: u64 = 100;
/// A run whose generator sent its 99th-percentile request later than
/// this is reported invalid, not slow. Sender and server share two
/// cores, and a sleeping thread here wakes up to one scheduler slice
/// (~3 ms) late when both are busy; latency is counted from the due
/// time, so lateness below the 10 ms between requests reorders nothing.
pub const MAX_LAG_MS: f64 = 5.0;
/// Mutations per hundred requests.
const WRITE_PERCENT: usize = 15;
/// Edges per mutation batch, and batches in each graph's candidate pool.
const BATCH_EDGES: usize = 8;
const BATCHES: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Run {
        graph: usize,
        key: usize,
    },
    /// Adds the batch if the model says it is absent, removes it if
    /// present, so no batch is ever a no-op and the graph stays within
    /// 64 edges of its base.
    Write {
        graph: usize,
        batch: usize,
        add: bool,
    },
}

/// The generator's own model of the server: which candidate batches
/// are in each graph, and where the cycles of reads and writes stand.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Model {
    present: [[bool; BATCHES]; CHURN_GRAPHS.len()],
    next_batch: [usize; CHURN_GRAPHS.len()],
    /// The reads still to come of the current cycle, last first, and
    /// the tail of the cycle before it.
    cycle: Vec<(usize, usize)>,
    recent: Vec<(usize, usize)>,
    /// Operations planned so far, and writes among them.
    ops: usize,
    writes: usize,
}

/// How many of the last reads of one cycle may not open the next one:
/// more than the server's result cache holds.
const COLD_DISTANCE: usize = 12;

impl Model {
    /// The next read. Reads come in cycles through all 48
    /// `(graph, key)` pairs, each cycle in a seeded order of its own
    /// that does not start with a pair the last cycle ended on. A pair
    /// therefore recurs only after more distinct pairs than the cache
    /// holds, and whether a read hits is never the luck of the order:
    /// every seed offers the same cold work.
    fn next_read(&mut self, rng: &mut Rng) -> (usize, usize) {
        if self.cycle.is_empty() {
            let mut cycle: Vec<(usize, usize)> = (0..CHURN_GRAPHS.len())
                .flat_map(|g| (0..CHURN_KEYS.len()).map(move |k| (g, k)))
                .collect();
            loop {
                rng.shuffle(&mut cycle);
                // `cycle` is consumed from its end.
                let opening = &cycle[cycle.len() - COLD_DISTANCE..];
                if !opening.iter().any(|pair| self.recent.contains(pair)) {
                    break;
                }
            }
            self.recent = cycle[..COLD_DISTANCE].to_vec();
            self.cycle = cycle;
        }
        self.cycle.pop().expect("a cycle was just dealt")
    }
}

/// The next `ops` operations. Writes are spread evenly, 15 in every
/// 100 operations, over the graphs in turn; each graph's batches are
/// toggled round-robin, so the same batch recurs only after seven
/// others, seconds later: two workers can never reorder an add and a
/// remove of the same edges.
pub fn schedule(rng: &mut Rng, ops: usize, model: &mut Model) -> Vec<Op> {
    (0..ops)
        .map(|_| {
            model.ops += 1;
            if model.ops * WRITE_PERCENT / 100 == model.writes {
                let (graph, key) = model.next_read(rng);
                return Op::Run { graph, key };
            }
            let graph = model.writes % CHURN_GRAPHS.len();
            model.writes += 1;
            let batch = model.next_batch[graph];
            model.next_batch[graph] = (batch + 1) % BATCHES;
            let present = &mut model.present[graph][batch];
            *present = !*present;
            Op::Write {
                graph,
                batch,
                add: *present,
            }
        })
        .collect()
}

/// 64 distinct vertex pairs that are not edges of `graph`, as 8
/// batches of 8.
pub fn candidate_pool(rng: &mut Rng, graph: &CsrGraph) -> Vec<Edge> {
    let n = graph.num_vertices();
    let mut pool: Vec<Edge> = Vec::new();
    while pool.len() < BATCH_EDGES * BATCHES {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        let edge = (u.min(v), u.max(v));
        if u != v && !graph.has_edge(u, v) && !pool.contains(&edge) {
            pool.push(edge);
        }
    }
    pool
}

/// Keeps every core busy for a second. On the reference VM a second of
/// full load halves the time of the server's parallel kernels for the
/// next ~15 s (clock or host scheduling; a 46 ms kernel takes 26 ms),
/// and a partly loaded run does not bring that state about itself.
/// Without this, whatever ran before `serve_churn` decided whether its
/// p99 read 27 or 58 ms. The other workloads saturate the cores in
/// their own warm-up.
fn preheat() {
    let until = Instant::now() + Duration::from_secs(1);
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// `serve_churn`: mutations beside cold mining reads, open loop. Every
/// layer works at once: admission wait behind long kernels, kernels on
/// the workers, `patch_csr`, and delta-aware cache migration.
pub struct Churn {
    fleet: Fleet,
    bases: Vec<CsrGraph>,
    pools: Vec<Vec<Edge>>,
    model: Model,
    rng: Rng,
    next_id: u64,
    check: Check,
}

/// What the receiver thread keeps of one reply.
#[derive(Clone, Copy)]
struct Reply {
    at: Instant,
    good: bool,
    cached: bool,
    rejected: bool,
    total_ms: f64,
    migrated: [u64; 3],
}

impl Churn {
    pub fn setup(seed: u64) -> Self {
        // A cache far smaller than the 48-pair working set: no read fits.
        let fleet = Fleet::start(1, false, 8);
        let mut rng = Rng(seed);
        let mut check = Check::default();
        let mut conn = Ndjson::connect(fleet.addr).expect("control connection");
        let bases: Vec<CsrGraph> = CHURN_GRAPHS.iter().map(|name| generate(name)).collect();
        for (name, graph) in CHURN_GRAPHS.iter().zip(&bases) {
            load_over_wire(&mut conn, name, graph, &mut check);
        }
        let pools = bases.iter().map(|g| candidate_pool(&mut rng, g)).collect();
        let mut churn = Self {
            fleet,
            bases,
            pools,
            model: Model::default(),
            rng,
            next_id: 0,
            check,
        };
        // The discarded pass: the first second of traffic pays for
        // lazy set-up on the server and ran ~50 % slower at p99.
        let warm = churn.run(1.0, None);
        churn.check.attempted += warm.attempted;
        for _ in 0..warm.failed {
            churn
                .check
                .failures
                .push("a warm-up request failed".to_string());
        }
        preheat();
        churn
    }

    fn render(&self, id: u64, op: Op) -> String {
        match op {
            Op::Run { graph, key } => {
                RunTemplate::new(CHURN_GRAPHS[graph], CHURN_KEYS[key]).render(id)
            }
            Op::Write { graph, batch, add } => {
                let edges = &self.pools[graph][batch * BATCH_EDGES..(batch + 1) * BATCH_EDGES];
                mutate_line(id, CHURN_GRAPHS[graph], add, edges)
            }
        }
    }

    /// The graph the generator's model says the server now holds,
    /// rebuilt from scratch.
    fn rebuilt(&self, graph: usize) -> CsrGraph {
        let base = &self.bases[graph];
        let mut edges: Vec<Edge> = base.edges_undirected().collect();
        for (batch, present) in self.model.present[graph].iter().enumerate() {
            if *present {
                edges.extend(&self.pools[graph][batch * BATCH_EDGES..(batch + 1) * BATCH_EDGES]);
            }
        }
        CsrGraph::from_undirected_edges(base.num_vertices(), &edges)
    }
}

fn parse_reply(line: &str, op: Op, at: Instant) -> Reply {
    let ok = is_ok(line);
    let good = match op {
        Op::Run { .. } => ok && field(line, "patterns").is_some(),
        Op::Write { add, .. } => {
            let changed = field_u64(line, if add { "added" } else { "removed" });
            ok && changed == Some(BATCH_EDGES as u64)
        }
    };
    Reply {
        at,
        good,
        cached: field(line, "cached") == Some("true"),
        rejected: field(line, "code") == Some("queue-full"),
        total_ms: field_f64(line, "total_ms").unwrap_or(0.0),
        migrated: ["survived", "refreshed", "invalidated"]
            .map(|name| field_u64(line, name).unwrap_or(0)),
    }
}

impl Workload for Churn {
    fn run(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Section {
        let ops = (seconds * RATE as f64).round().max(1.0) as usize;
        let plan = schedule(&mut self.rng, ops, &mut self.model);
        let base_id = self.next_id;
        self.next_id += ops as u64;
        let lines: Vec<String> = plan
            .iter()
            .enumerate()
            .map(|(i, &op)| self.render(base_id + i as u64, op))
            .collect();

        let mut section = Section {
            attempted: ops as u64,
            ..Default::default()
        };
        let Ok(Ndjson {
            mut writer,
            mut reader,
        }) = Ndjson::connect(self.fleet.addr)
        else {
            section.failed = ops as u64;
            return section;
        };
        let interval = Duration::from_nanos(1_000_000_000 / RATE);
        let start = Instant::now() + Duration::from_millis(2);
        let due = |i: usize| start + interval * i as u32;

        // One pipelined connection, two generator threads: this one
        // sends each line when it is due, the other matches replies to
        // requests by id.
        let mut sent_at = vec![start; ops];
        let mut replies: Vec<Option<Reply>> = vec![None; ops];
        std::thread::scope(|scope| {
            let plan = &plan;
            let replies = &mut replies;
            let receiver = scope.spawn(move || {
                use std::io::BufRead as _;
                let mut line = String::new();
                for _ in 0..ops {
                    line.clear();
                    if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                        return;
                    }
                    let at = Instant::now();
                    let index = reply_id(&line).and_then(|id| id.checked_sub(base_id));
                    if let Some(index) = index.filter(|&i| (i as usize) < ops) {
                        let index = index as usize;
                        replies[index] = Some(parse_reply(&line, plan[index], at));
                    }
                }
            });
            for (i, line) in lines.iter().enumerate() {
                if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                sent_at[i] = Instant::now();
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            receiver.join().expect("receiver thread");
        });

        let mut tracer = tracer;
        let mut lag_ms: Vec<f64> = (0..ops)
            .map(|i| (sent_at[i] - due(i)).as_secs_f64() * 1e3)
            .collect();
        lag_ms.sort_by(f64::total_cmp);
        section.add("lag_p99_ms", percentile(&lag_ms, 0.99));
        let mut done = start;
        for (i, (&op, reply)) in plan.iter().zip(&replies).enumerate() {
            let Some(reply) = reply else {
                section.failed += 1;
                continue;
            };
            if !reply.good {
                section.failed += 1;
            }
            done = done.max(reply.at);
            // From when the request was due, not from when it was
            // sent: a stalled generator must not hide waiting.
            let latency_ms = (reply.at - due(i)).as_secs_f64() * 1e3;
            let label = match op {
                Op::Run { key, .. } => {
                    section.read_ms.push(latency_ms);
                    section.add("hits", f64::from(u8::from(reply.cached)));
                    CHURN_KEYS[key].kernel
                }
                Op::Write { .. } => {
                    section.write_ms.push(latency_ms);
                    for (name, n) in ["survived", "refreshed", "invalidated"]
                        .into_iter()
                        .zip(reply.migrated)
                    {
                        section.add(name, n as f64);
                    }
                    "write"
                }
            };
            section.add("rejected", f64::from(u8::from(reply.rejected)));
            if let Some(tracer) = tracer.as_deref_mut() {
                let op_id = base_id + i as u64;
                let (t0, t1) = (tracer.ns(due(i)), tracer.ns(reply.at));
                let parent = tracer.record("request", label, t0, t1, None, op_id);
                let total_ns = (reply.total_ms * 1e6) as u64;
                if total_ns > 0 {
                    tracer.record(
                        "server.total",
                        label,
                        t1.saturating_sub(total_ns),
                        t1,
                        parent,
                        op_id,
                    );
                }
            }
        }
        let correct = section.attempted - section.failed;
        section.ops_per_s = correct as f64 / (done - start).as_secs_f64().max(1e-9);
        section.summarise();
        section
    }

    /// Mutate-vs-rebuild: what the server answers for `triangle-count`
    /// (refreshed incrementally across every mutation) and `k-core`
    /// must equal a fresh run on the generator's own edge model.
    fn finish(mut self: Box<Self>) -> Check {
        let mut check = std::mem::take(&mut self.check);
        let mut session = Session::new();
        session.set_cache_capacity(0);
        let mut conn = Ndjson::connect(self.fleet.addr);
        for (g, name) in CHURN_GRAPHS.iter().enumerate() {
            let handle = session.add_graph(self.rebuilt(g));
            for kernel in ["triangle-count", "k-core"] {
                let rebuilt = session
                    .run(kernel, handle, &Params::new())
                    .map(|o| o.patterns)
                    .ok();
                let served = conn.as_mut().ok().and_then(|c| {
                    let request = RunTemplate::new(name, key(kernel, "{}")).render(0);
                    field_u64(&c.call(&request).ok()?, "patterns")
                });
                check.expect(served.is_some() && served == rebuilt, || {
                    format!("{kernel} on {name}: served {served:?}, rebuilt {rebuilt:?}")
                });
            }
        }
        self.fleet.stop();
        check
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, ops: usize) -> (Vec<Op>, Model) {
        let mut model = Model::default();
        let plan = schedule(&mut Rng(seed), ops, &mut model);
        (plan, model)
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        assert_eq!(plan(20210, 1000), plan(20210, 1000));
        assert_ne!(plan(20210, 1000).0, plan(20211, 1000).0);
        // Byte-identical request streams, too.
        let render = |seed| {
            let (plan, _) = plan(seed, 50);
            format!("{plan:?}")
        };
        assert_eq!(render(3), render(3));
    }

    #[test]
    fn every_seed_offers_the_same_work() {
        let tally = |seed| {
            let mut runs = BTreeMap::new();
            let mut writes = [0usize; CHURN_GRAPHS.len()];
            for op in plan(seed, 1200).0 {
                match op {
                    Op::Run { graph, key } => *runs.entry((graph, key)).or_insert(0usize) += 1,
                    Op::Write { graph, .. } => writes[graph] += 1,
                }
            }
            (runs, writes)
        };
        let (runs, writes) = tally(1);
        assert_eq!(writes, [45; 4]);
        assert_eq!(runs.len(), CHURN_GRAPHS.len() * CHURN_KEYS.len());
        let (least, most) = (runs.values().min().unwrap(), runs.values().max().unwrap());
        assert!(most - least <= 1, "{least}..{most}");
        assert_eq!(tally(2).1, writes);
    }

    #[test]
    fn no_read_recurs_within_the_cache() {
        // Between two reads of one pair lie more distinct pairs than
        // the cache of 8 holds, across cycle boundaries too.
        let reads: Vec<(usize, usize)> = plan(4, 3000)
            .0
            .into_iter()
            .filter_map(|op| match op {
                Op::Run { graph, key } => Some((graph, key)),
                Op::Write { .. } => None,
            })
            .collect();
        for (i, pair) in reads.iter().enumerate() {
            let window = &reads[i.saturating_sub(COLD_DISTANCE)..i];
            assert!(!window.contains(pair), "read {i} repeats {pair:?}");
        }
    }

    #[test]
    fn toggles_are_never_no_ops() {
        // Replay the plan against an independent model: every add finds
        // its batch absent, every remove finds it present.
        let mut model = Model::default();
        let mut rng = Rng(9);
        let mut present = [[false; BATCHES]; CHURN_GRAPHS.len()];
        for _ in 0..3 {
            for op in schedule(&mut rng, 400, &mut model) {
                if let Op::Write { graph, batch, add } = op {
                    assert_ne!(present[graph][batch], add);
                    present[graph][batch] = add;
                }
            }
        }
        assert_eq!(present, model.present);
    }

    #[test]
    fn candidate_pools_hold_distinct_non_edges() {
        let graph = generate("hot-0");
        let pool = candidate_pool(&mut Rng(5), &graph);
        assert_eq!(pool.len(), BATCH_EDGES * BATCHES);
        for (i, &(u, v)) in pool.iter().enumerate() {
            assert!(u < v && !graph.has_edge(u, v));
            assert!(!pool[..i].contains(&(u, v)));
        }
    }
}
