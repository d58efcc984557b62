//! The input graphs and the answer oracle.
//!
//! Every graph comes from `gms-gen` with a fixed generator seed: they
//! are stand-ins for the paper's SNAP/KONECT inputs, which cannot be
//! downloaded here. `--seed` never changes a graph, only the order in
//! which work is offered, so pattern counts are the same on every run
//! and `expected.json` applies to any seed.

use std::collections::BTreeMap;

use gms_core::CsrGraph;
use gms_platform::kernel::Params;
use gms_serve::json::Json;

use crate::wire::{key, KernelKey};
use crate::workload::Check;

/// Resident graphs of `serve_hot` / `route_hot`.
pub const HOT_GRAPHS: usize = 8;

/// Builds a catalogue graph by name.
pub fn generate(name: &str) -> CsrGraph {
    match name {
        "kron-4k" => gms_gen::kronecker_default(12, 12, 101),
        "kron-1k" => gms_gen::kronecker_default(10, 12, 101),
        // 32 768 vertices: the decode-native triangle count takes
        // ~0.45 s compressed, which a 10 s run can repeat.
        "mid-kron" => gms_gen::kronecker_default(15, 8, 101),
        // 131 072 vertices, ~971 k edges, ~8.8 MB of raw CSR: larger
        // than the two 4 MiB private L2 caches of the reference box.
        "big-kron" => gms_gen::kronecker_default(17, 8, 101),
        "clique-6k" => gms_gen::planted_cliques(6000, 0.001, 48, 10, 103).0,
        "er-6k" => gms_gen::gnp(6000, 0.0015, 108),
        "clique-3k" => gms_gen::planted_cliques(3000, 0.002, 24, 10, 103).0,
        "er-3k" => gms_gen::gnp(3000, 0.003, 108),
        "tskew-5k" => gms_gen::planted_cliques(4800, 0.0005, 240, 5, 106).0,
        hot => {
            let index: u64 = hot
                .strip_prefix("hot-")
                .and_then(|i| i.parse().ok())
                .unwrap_or_else(|| panic!("no graph named {hot}"));
            gms_gen::planted_cliques(600, 0.01, 3, 8, 40 + index).0
        }
    }
}

pub fn hot_name(index: usize) -> String {
    format!("hot-{index}")
}

/// The working set of the hot workloads: 8 graphs x 8 keys = 64.
pub const HOT_KEYS: [KernelKey; 8] = [
    key("k-clique", "{\"k\":3}"),
    key("k-clique", "{\"k\":4}"),
    key("k-clique", "{\"k\":5}"),
    key("triangle-count", "{}"),
    key("bk", "{}"),
    key("bk-gms-adg", "{}"),
    key("subgraph-iso-par", "{}"),
    key("k-core", "{}"),
];

/// `key.params` as the typed parameters an in-process run takes.
pub fn params_of(key: KernelKey) -> Params {
    let parsed = Json::parse(key.params).expect("key params are JSON");
    let mut params = Params::new();
    for (name, value) in parsed.as_object().expect("key params are an object") {
        match value {
            Json::Int(i) => params.set(name, *i),
            Json::Bool(b) => params.set(name, *b),
            Json::Float(f) => params.set(name, *f),
            other => params.set(name, other.as_str().expect("params are scalars")),
        }
    }
    params
}

/// Pattern counts per `(graph, kernel, params)`, checked in beside the
/// sources. `gms-benchmark expected` prints the file from the current build.
pub struct Expected(BTreeMap<String, u64>);

impl Expected {
    pub fn load() -> Self {
        let parsed = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
        let counts = parsed
            .as_object()
            .expect("expected.json is an object")
            .iter()
            .map(|(k, v)| (k.clone(), v.as_i64().expect("counts are integers") as u64))
            .collect();
        Self(counts)
    }

    pub fn entry(graph: &str, key: KernelKey) -> String {
        format!("{graph}|{}|{}", key.kernel, key.params)
    }

    /// The expected count; a missing entry is a defect of the benchmark itself.
    pub fn get(&self, graph: &str, key: KernelKey) -> u64 {
        let entry = Self::entry(graph, key);
        *self
            .0
            .get(&entry)
            .unwrap_or_else(|| panic!("expected.json has no entry {entry}"))
    }
}

/// Relations between kernels that hold on any graph, checked on the
/// counts a run observed: `bk` = `bk-gms-adg` (one clique set, two
/// variants), `k-clique` k=3 = `triangle-count`, and the triangle
/// query of `subgraph-iso-par` finds each triangle 3! = 6 times.
pub fn check_invariants(observed: &BTreeMap<(String, KernelKey), u64>) -> Check {
    let relations = [
        (key("bk", "{}"), key("bk-gms-adg", "{}"), 1),
        (key("triangle-count", "{}"), key("k-clique", "{\"k\":3}"), 1),
        (
            key("subgraph-iso-par", "{}"),
            key("triangle-count", "{}"),
            6,
        ),
    ];
    let mut check = Check::default();
    for ((graph, k), &count) in observed {
        for (left, right, factor) in relations {
            if *k != left {
                continue;
            }
            if let Some(&other) = observed.get(&(graph.clone(), right)) {
                check.expect(count == factor * other, || {
                    format!(
                        "{graph}: {} = {count} but {factor} x {} = {}",
                        left.kernel,
                        right.kernel,
                        factor * other
                    )
                });
            }
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_trip_through_json_text() {
        let p = params_of(key("k-clique", "{\"k\":5}"));
        assert_eq!(p.get_int("k", 0), 5);
        assert_eq!(params_of(key("bk", "{}")).iter().count(), 0);
    }

    #[test]
    fn invariants_flag_a_wrong_count() {
        let mut seen = BTreeMap::new();
        seen.insert(("g".to_string(), key("triangle-count", "{}")), 10);
        seen.insert(("g".to_string(), key("k-clique", "{\"k\":3}")), 10);
        seen.insert(("g".to_string(), key("subgraph-iso-par", "{}")), 60);
        let check = check_invariants(&seen);
        assert_eq!((check.attempted, check.failures.len()), (2, 0));
        seen.insert(("g".to_string(), key("subgraph-iso-par", "{}")), 61);
        let check = check_invariants(&seen);
        assert_eq!((check.attempted, check.failures.len()), (2, 1));
    }

    #[test]
    fn every_hot_key_has_an_expected_count() {
        let expected = Expected::load();
        for g in 0..HOT_GRAPHS {
            for k in HOT_KEYS {
                expected.get(&hot_name(g), k);
            }
        }
    }
}
