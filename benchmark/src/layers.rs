//! The traced run: per-layer metrics, measured from outside each layer.
//!
//! `--trace 1` runs the named workload twice, spans off and then on
//! (the difference is `trace.overhead_share`), writes its span file,
//! and then measures every layer the same way whatever the workload
//! was: a short traced pass of each other workload for the numbers
//! that only its request path yields, and probe loops that time calls
//! into public functions. Nothing here adds a clock or a counter to
//! any crate. End-to-end metrics never come from a traced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use gms_core::{
    CsrGraph, DenseBitSet, Edge, Graph, HashVertexSet, RoaringSet, Set, SortedVecSet, SparseBitSet,
};
use gms_graph::CompressedCsr;
use gms_platform::kernel::{Params, Session};
use gms_router::{HashRing, RingMember};
use gms_serve::json::Json;

use crate::env::out_dir;
use crate::graphs::{generate, params_of};
use crate::mine::{Mine, MINE_GAP, MINE_RAW};
use crate::serve::{candidate_pool, Churn, Hot, Load, CHURN_KEYS};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::workload::{pool, width, Check, Section, Workload};

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("gms-core.setops.sorted.ns_per_op", "ns"),
    ("gms-core.setops.dense.ns_per_op", "ns"),
    ("gms-core.setops.hash.ns_per_op", "ns"),
    ("gms-core.setops.sparse_bits.ns_per_op", "ns"),
    ("gms-core.setops.roaring.ns_per_op", "ns"),
    ("rayon.bk.par_efficiency", "ratio"),
    ("rayon.steals_per_job", "count"),
    ("rayon.parks_per_job", "count"),
    ("rayon.notifies_per_job", "count"),
    ("gms-order.degeneracy.ms", "ms"),
    ("gms-order.adg.ms", "ms"),
    ("gms-order.preprocess_share", "ratio"),
    ("gms-pattern.bk.patterns_per_s", "1/s"),
    ("gms-pattern.bk-gms-adg.patterns_per_s", "1/s"),
    ("gms-pattern.k-clique.patterns_per_s", "1/s"),
    ("gms-pattern.triangle-count.patterns_per_s", "1/s"),
    ("gms-match.subgraph-iso-par.patterns_per_s", "1/s"),
    ("gms-opt.coloring.ms", "ms"),
    ("gms-learn.similarity.ms", "ms"),
    ("gms-graph.decode.ns_per_arc", "ns"),
    ("gms-graph.to_csr.ms", "ms"),
    ("gms-graph.compress.ms", "ms"),
    ("gms-graph.bytes_per_arc.gap", "B"),
    ("gms-graph.bytes_per_arc.gap_reorder", "B"),
    ("gms-graph.triangle_gap_slowdown", "ratio"),
    ("gms-graph.convert_share", "ratio"),
    ("gms-graph.patch.us_per_batch", "us"),
    ("gms-graph.write_edge_list.mb_per_s", "MB/s"),
    ("gms-platform.session_hit.ns", "ns"),
    ("gms-platform.dispatch_overhead_us", "us"),
    ("gms-platform.mutate.ms", "ms"),
    ("gms-platform.cache.hit_share", "ratio"),
    ("gms-platform.migrate.survived", "count"),
    ("gms-platform.migrate.refreshed", "count"),
    ("gms-platform.migrate.invalidated", "count"),
    ("gms-serve.hit_cost_us", "us"),
    ("gms-serve.json.parse_mb_per_s", "MB/s"),
    ("gms-serve.json.render_mb_per_s", "MB/s"),
    ("gms-serve.http.hit_cost_us", "us"),
    ("gms-serve.outside_kernel_p50_ms", "ms"),
    ("gms-serve.outside_kernel_share", "ratio"),
    ("gms-serve.rejected", "count"),
    ("gms-serve.write_p50_ms", "ms"),
    ("gms-router.hop_cost_us", "us"),
    ("gms-router.hop_p50_ms", "ms"),
    ("gms-router.ring.owner_ns", "ns"),
    ("gms-router.shard_balance", "ratio"),
    ("gms-router.failovers", "count"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// How long a probe loop runs.
const PROBE: Duration = Duration::from_millis(250);

/// What a traced run reports.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub check: Check,
}

fn median_or_zero(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&mut values)
    }
}

/// Core-microseconds one request costs at this throughput.
fn cost_us(section: &Section) -> f64 {
    width() as f64 * 1e6 / section.ops_per_s
}

/// The median wall time, in ms, of three calls of `body`.
fn median_ms_of_three(mut body: impl FnMut()) -> f64 {
    let runs = (0..3)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median_or_zero(runs)
}

/// Calls `body` until [`PROBE`] has passed; nanoseconds per call.
fn ns_per_call(mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < PROBE {
        body();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

struct Suite {
    /// The workload `--trace 1` named: it runs for `seconds`, half of
    /// it with spans off; the others get a short pass.
    named: &'static str,
    seed: u64,
    seconds: f64,
    out: Traced,
}

impl Suite {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.metrics.insert(name, value);
    }

    /// One traced pass of a workload that is already set up.
    fn pass(&mut self, name: &'static str, w: &mut dyn Workload, short: f64) -> (Section, Tracer) {
        let mut tracer = Tracer::new(Instant::now());
        if name != self.named {
            let section = w.run(short, Some(&mut tracer));
            self.tally(&section);
            return (section, tracer);
        }
        let untraced = w.run(self.seconds / 2.0, None);
        self.tally(&untraced);
        let section = w.run(self.seconds / 2.0, Some(&mut tracer));
        self.tally(&section);
        self.put(
            "trace.overhead_share",
            (untraced.ops_per_s - section.ops_per_s) / untraced.ops_per_s,
        );
        let path = out_dir().join(format!("trace-{name}.json"));
        std::fs::write(&path, tracer.to_json(name)).expect("span file can be written");
        (section, tracer)
    }

    fn tally(&mut self, section: &Section) {
        self.out.attempted += section.attempted;
        self.out.failed += section.failed;
    }

    fn mine_raw(&mut self) {
        let mut w = Mine::setup(&MINE_RAW, self.seed);
        let (section, tracer) = self.pass("mine_raw", &mut w, 0.0);
        self.out.check.merge(Box::new(w).finish());
        let totals = tracer.self_times();
        let jobs = tracer.totals("job");
        for (metric, family) in [
            ("gms-pattern.bk.patterns_per_s", "bk"),
            ("gms-pattern.bk-gms-adg.patterns_per_s", "bk-gms-adg"),
            ("gms-pattern.k-clique.patterns_per_s", "k-clique"),
            (
                "gms-pattern.triangle-count.patterns_per_s",
                "triangle-count",
            ),
            (
                "gms-match.subgraph-iso-par.patterns_per_s",
                "subgraph-iso-par",
            ),
        ] {
            // The paper's algorithmic throughput: patterns mined per second.
            let seconds = totals[&("job", family)].total_ns as f64 / 1e9;
            self.put(metric, section.count(family) / seconds);
        }
        let count = jobs.count as f64;
        self.put("rayon.steals_per_job", section.count("steals") / count);
        self.put("rayon.parks_per_job", section.count("parks") / count);
        self.put("rayon.notifies_per_job", section.count("notifies") / count);
        self.put(
            "gms-order.degeneracy.ms",
            median_or_zero(tracer.durations_ms("preprocess", "order-degeneracy")),
        );
        self.put(
            "gms-order.adg.ms",
            median_or_zero(tracer.durations_ms("preprocess", "order-adg")),
        );
        self.put(
            "gms-order.preprocess_share",
            tracer.totals("preprocess").total_ns as f64 / jobs.total_ns as f64,
        );
        // What a job costs beyond the stages its outcome accounts for.
        self.put(
            "gms-platform.dispatch_overhead_us",
            jobs.self_ns as f64 / count / 1e3,
        );
    }

    fn mine_gap(&mut self) {
        let mut w = Mine::setup(&MINE_GAP, self.seed);
        let (_, tracer) = self.pass("mine_gap", &mut w, 0.0);
        self.out.check.merge(Box::new(w).finish());
        self.put(
            "gms-graph.convert_share",
            tracer.totals("convert").total_ns as f64 / tracer.totals("job").total_ns as f64,
        );
        self.put(
            "gms-opt.coloring.ms",
            median_or_zero(tracer.durations_ms("job", "coloring")),
        );
    }

    fn hot_and_routed(&mut self) {
        let mut hot = Hot::setup(self.seed, false);
        let (direct, _) = self.pass("serve_hot", &mut hot, 1.0);
        let direct_alone = hot.closed_loop(Load::unloaded(), 0.5, None);
        let http = hot.http_lane(1.0);
        self.out.check.merge(Box::new(hot).finish());
        self.put("gms-serve.hit_cost_us", cost_us(&direct));
        self.put("gms-serve.http.hit_cost_us", cost_us(&http));
        self.json_probes(&direct.corpus);

        let mut routed_hot = Hot::setup(self.seed, true);
        let (routed, _) = self.pass("route_hot", &mut routed_hot, 1.0);
        let routed_alone = routed_hot.closed_loop(Load::unloaded(), 0.5, None);
        self.out.check.merge(Box::new(routed_hot).finish());
        for section in [&direct_alone, &http, &routed_alone] {
            self.tally(section);
        }
        // The request stream is the same, so the differences are the
        // hop: in core time per request under load, and in round-trip
        // time with nothing else in flight.
        self.put(
            "gms-router.hop_cost_us",
            cost_us(&routed) - cost_us(&direct),
        );
        self.put(
            "gms-router.hop_p50_ms",
            routed_alone.p50_ms - direct_alone.p50_ms,
        );
        self.put("gms-router.shard_balance", routed.count("shard_balance"));
        self.put("gms-router.failovers", routed.count("failovers"));
    }

    /// `Json::parse` and `Json::render` over the request and reply
    /// lines the `serve_hot` pass recorded.
    fn json_probes(&mut self, corpus: &[String]) {
        let bytes: usize = corpus.iter().map(String::len).sum();
        let parse_ns = ns_per_call(|| {
            for line in corpus {
                black_box(Json::parse(black_box(line.trim_end())).is_ok());
            }
        });
        let values: Vec<Json> = corpus
            .iter()
            .filter_map(|l| Json::parse(l.trim_end()).ok())
            .collect();
        let render_ns = ns_per_call(|| {
            for value in &values {
                black_box(black_box(value).render());
            }
        });
        // bytes per ns x 1000 = MB/s
        self.put(
            "gms-serve.json.parse_mb_per_s",
            bytes as f64 / parse_ns * 1e3,
        );
        self.put(
            "gms-serve.json.render_mb_per_s",
            bytes as f64 / render_ns * 1e3,
        );
    }

    fn churn(&mut self) {
        let mut w = Churn::setup(self.seed);
        let (section, tracer) = self.pass("serve_churn", &mut w, 3.0);
        self.out.check.merge(Box::new(w).finish());
        let writes = (section.write_ms.len() as f64).max(1.0);
        self.put(
            "gms-platform.cache.hit_share",
            section.count("hits") / (section.read_ms.len() as f64).max(1.0),
        );
        // Cache entries per mutation batch that were kept, refreshed
        // incrementally, or dropped.
        self.put(
            "gms-platform.migrate.survived",
            section.count("survived") / writes,
        );
        self.put(
            "gms-platform.migrate.refreshed",
            section.count("refreshed") / writes,
        );
        self.put(
            "gms-platform.migrate.invalidated",
            section.count("invalidated") / writes,
        );
        self.put("gms-serve.rejected", section.count("rejected"));
        self.put(
            "gms-serve.write_p50_ms",
            median_or_zero(section.write_ms.clone()),
        );
        self.put("gen.lag_p99_ms", section.count("lag_p99_ms"));
        // A `run` request's latency minus the `total_ms` its reply
        // reports: admission wait plus the wire.
        let outside = tracer.self_ms("request", |label| label != "write");
        let latency: f64 = section.read_ms.iter().sum();
        self.put(
            "gms-serve.outside_kernel_share",
            outside.iter().sum::<f64>() / latency.max(1e-9),
        );
        self.put("gms-serve.outside_kernel_p50_ms", median_or_zero(outside));
        self.put(
            "gms-learn.similarity.ms",
            median_or_zero(tracer.durations_ms("server.total", "similarity")),
        );
    }

    fn setops<S: Set>(&mut self, name: &'static str, graph: &CsrGraph) {
        let sets: Vec<S> = graph
            .vertices()
            .map(|v| S::from_sorted(graph.neighbors_slice(v)))
            .collect();
        let mut sink = 0usize;
        // Adjacent neighbourhood pairs: the operand sizes a mining
        // kernel meets on a skewed graph.
        let pass_ns = ns_per_call(|| {
            for pair in sets.windows(2) {
                let (a, b) = (black_box(&pair[0]), black_box(&pair[1]));
                sink += a.intersect_count(b) + a.union_count(b) + a.diff_count(b);
            }
        });
        black_box(sink);
        self.put(name, pass_ns / (3 * (sets.len() - 1)) as f64);
    }

    fn core_and_scheduler_probes(&mut self) {
        let kron = generate("kron-4k");
        self.setops::<SortedVecSet>("gms-core.setops.sorted.ns_per_op", &kron);
        self.setops::<DenseBitSet>("gms-core.setops.dense.ns_per_op", &kron);
        self.setops::<HashVertexSet>("gms-core.setops.hash.ns_per_op", &kron);
        self.setops::<SparseBitSet>("gms-core.setops.sparse_bits.ns_per_op", &kron);
        self.setops::<RoaringSet>("gms-core.setops.roaring.ns_per_op", &kron);

        // bk at width 1 against width W: T1 / (W x TW).
        let mut session = Session::new();
        session.set_cache_capacity(0);
        let handle = session.add_graph(kron);
        let mut bk_ms = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("rayon pool");
            median_ms_of_three(|| {
                black_box(
                    pool.install(|| session.run("bk", handle, &Params::new()))
                        .is_ok(),
                );
            })
        };
        let (one, wide) = (bk_ms(1), bk_ms(width()));
        self.put("rayon.bk.par_efficiency", one / (width() as f64 * wide));

        let members = [8001, 8002].map(|port| RingMember {
            name: format!("127.0.0.1:{port}"),
            weight: width(),
        });
        let ring = HashRing::build(members.iter().map(Some));
        let mut key = 0u64;
        self.put(
            "gms-router.ring.owner_ns",
            ns_per_call(|| {
                key = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
                black_box(ring.owner(black_box(key)));
            }),
        );
    }

    fn graph_probes(&mut self) {
        let big = generate("big-kron");
        let arcs = big.num_arcs() as f64;
        let gap = CompressedCsr::from_csr(&big);
        let reordered = CompressedCsr::from_csr_ordered(&big, &gms_order::bfs_order(&big, 0));
        self.put("gms-graph.bytes_per_arc.gap", gap.bytes_per_arc());
        self.put(
            "gms-graph.bytes_per_arc.gap_reorder",
            reordered.bytes_per_arc(),
        );
        self.put(
            "gms-graph.compress.ms",
            median_ms_of_three(|| {
                black_box(CompressedCsr::from_csr(black_box(&big)));
            }),
        );
        self.put(
            "gms-graph.to_csr.ms",
            median_ms_of_three(|| {
                black_box(black_box(&gap).to_csr());
            }),
        );
        let mut neighbours = Vec::new();
        let decode_ms = median_ms_of_three(|| {
            for v in big.vertices() {
                gap.decode_into(v, &mut neighbours);
                black_box(&neighbours);
            }
        });
        self.put("gms-graph.decode.ns_per_arc", decode_ms * 1e6 / arcs);
        let mut text = Vec::new();
        let write_ms = median_ms_of_three(|| {
            text.clear();
            gms_graph::io::write_edge_list(&big, &mut text).expect("writing to memory");
        });
        self.put(
            "gms-graph.write_edge_list.mb_per_s",
            text.len() as f64 / 1e6 / (write_ms / 1e3),
        );

        // Decode-native triangle counting against the same count on slices.
        let mid = generate("mid-kron");
        let mut session = Session::new();
        session.set_cache_capacity(0);
        let compressed = session.add_compressed(CompressedCsr::from_csr(&mid));
        let raw = session.add_graph(mid);
        let mut triangles_ms = |handle| {
            median_ms_of_three(|| {
                black_box(
                    pool()
                        .install(|| session.run("triangle-count", handle, &Params::new()))
                        .is_ok(),
                );
            })
        };
        let (on_gap, on_raw) = (triangles_ms(compressed), triangles_ms(raw));
        self.put("gms-graph.triangle_gap_slowdown", on_gap / on_raw);
    }

    fn platform_probes(&mut self) {
        // A warm key through `Session::run`: key build plus cache hit.
        let mut session = Session::new();
        let handle = session.add_graph(generate("kron-1k"));
        let params = Params::new();
        let _ = session.run("triangle-count", handle, &params);
        self.put(
            "gms-platform.session_hit.ns",
            ns_per_call(|| {
                black_box(session.run("triangle-count", handle, &params).is_ok());
            }),
        );

        // The churn batches applied in-process to `er-6k`: with nothing
        // cached a mutation is clone + patch + fingerprint; with cached
        // outcomes it also migrates them.
        let base = generate("er-6k");
        let pool = candidate_pool(&mut Rng(self.seed), &base);
        let batches: Vec<&[Edge]> = pool.chunks(8).collect();
        let cached_keys = [CHURN_KEYS[4], CHURN_KEYS[6], CHURN_KEYS[8], CHURN_KEYS[9]];
        let mutate_ms = |cache: usize| {
            let mut session = Session::new();
            session.set_cache_capacity(cache);
            let handle = session.add_graph(base.clone());
            let mut samples = Vec::new();
            for round in 0..4 {
                for batch in &batches {
                    if cache > 0 {
                        for key in cached_keys {
                            let _ = session.run(key.kernel, handle, &params_of(key));
                        }
                    }
                    let (add, remove): (&[_], &[_]) = if round % 2 == 0 {
                        (batch, &[])
                    } else {
                        (&[], batch)
                    };
                    let start = Instant::now();
                    black_box(session.mutate_edges(handle, add, remove).is_ok());
                    samples.push(start.elapsed().as_secs_f64() * 1e3);
                }
            }
            median_or_zero(samples)
        };
        let bare = mutate_ms(0);
        self.put("gms-graph.patch.us_per_batch", bare * 1e3);
        self.put("gms-platform.mutate.ms", mutate_ms(256));
    }
}

/// The traced run of `named`: every per-layer metric by name.
pub fn run(named: &'static str, seed: u64, seconds: f64) -> Traced {
    let mut suite = Suite {
        named,
        seed,
        seconds,
        out: Traced {
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            check: Check::default(),
        },
    };
    suite.mine_raw();
    suite.mine_gap();
    suite.hot_and_routed();
    suite.churn();
    suite.core_and_scheduler_probes();
    suite.graph_probes();
    suite.platform_probes();
    suite.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_distinct_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
