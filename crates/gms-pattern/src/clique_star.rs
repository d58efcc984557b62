//! `k`-clique-star listing (§6.6): a `k`-clique core `C` with its
//! satellites `S(C) = ∩_{v∈C} N(v) \ C`, the vertices adjacent to all
//! of it. One recursion over the DAG that `k-clique` orients meets each
//! core once, at its first vertex, carrying its prefix's forward
//! candidates `∩ N⁺(w)` and running satellites `∩ N(w)` as sorted sets;
//! without self-loops the latter is `S(C)` at depth `k`. The roots are
//! walked with [`gms_core::split::walk`], and the token is probed at
//! every root and recursion node. A star is a core inside some
//! (k+1)-clique, so a core needs `max(min_satellites, 1)` satellites.

use crate::SPLIT_AFTER;
use gms_core::set::intersect_sorted_slices_into;
use gms_core::split::{walk, with_worker_checkout};
use gms_core::{CancelToken, CsrGraph, Graph, NodeId};
use gms_graph::orient_by_rank;
use gms_order::OrderingKind;
use std::ops::AddAssign;

/// A `k`-clique-star: the clique core plus its shared satellites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliqueStar {
    /// The `k`-clique (sorted).
    pub core: Vec<NodeId>,
    /// Vertices adjacent to every core member (sorted, non-empty).
    pub satellites: Vec<NodeId>,
}

/// What a clique-star run found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StarOutcome {
    /// Number of stars.
    pub count: u64,
    /// The stars sorted by core; empty unless collected.
    pub stars: Vec<CliqueStar>,
}

impl AddAssign for StarOutcome {
    fn add_assign(&mut self, mut other: StarOutcome) {
        self.count += other.count;
        self.stars.append(&mut other.stars);
    }
}

/// A prefix's forward candidates and running satellites.
type Level = (Vec<NodeId>, Vec<NodeId>);

struct Search<'a> {
    graph: &'a CsrGraph,
    dag: &'a CsrGraph,
    k: usize,
    need: usize,
    collect: bool,
    cancel: &'a CancelToken,
}

/// Every `k`-clique-star with at least `max(min_satellites, 1)`
/// satellites, the cores enumerated under `ordering`. A fired token
/// yields a partial outcome the caller must discard.
pub fn k_clique_stars(
    graph: &CsrGraph,
    k: usize,
    min_satellites: usize,
    ordering: OrderingKind,
    collect: bool,
    cancel: &CancelToken,
) -> StarOutcome {
    assert!(k >= 2, "clique-star cores need k >= 2");
    let dag = &orient_by_rank(graph, &ordering.compute(graph));
    let need = min_satellites.max(1);
    let search = Search {
        graph,
        dag,
        k,
        need,
        collect,
        cancel,
    };
    // Each worker keeps one level per depth; a `k` above every forward
    // degree never sizes them.
    let root = |levels: &mut Vec<Level>, u, _| {
        let (u, mut out) = (u as NodeId, StarOutcome::default());
        let forward = dag.neighbors_slice(u);
        if forward.len() + 1 >= k {
            levels.resize_with(levels.len().max(k), Default::default);
            levels[0] = (forward.to_vec(), graph.neighbors_slice(u).to_vec());
            search.extend(&mut vec![u], levels, &mut out);
        }
        out
    };
    let roots = 0..dag.num_vertices();
    let mut out = walk(roots, SPLIT_AFTER, &|s| with_worker_checkout(s), &root);
    out.stars.sort_unstable_by(|a, b| a.core.cmp(&b.core));
    out
}

impl Search<'_> {
    /// Extends `prefix` by each of its candidates in `levels[0]`.
    fn extend(&self, prefix: &mut Vec<NodeId>, levels: &mut [Level], out: &mut StarOutcome) {
        let depth = prefix.len();
        let ((cands, sats), deeper) = levels.split_first_mut().expect("a level per depth");
        // The rest of the core comes out of `sats`; since `cands ⊆
        // sats`, the subtraction cannot underflow.
        if self.cancel.is_cancelled()
            || depth + cands.len() < self.k
            || sats.len() - (self.k - depth) < self.need
        {
            return;
        }
        for &v in cands.iter() {
            let (next_cands, next_sats) = &mut deeper[0];
            next_sats.clear();
            intersect_sorted_slices_into(sats, self.graph.neighbors_slice(v), next_sats);
            prefix.push(v);
            if depth + 1 < self.k {
                next_cands.clear();
                intersect_sorted_slices_into(cands, self.dag.neighbors_slice(v), next_cands);
                self.extend(prefix, deeper, out);
            } else if next_sats.len() >= self.need {
                out.count += 1;
                if self.collect {
                    let mut core = prefix.clone();
                    core.sort_unstable();
                    let satellites = next_sats.clone();
                    out.stars.push(CliqueStar { core, satellites });
                }
            }
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::clique_stars_brute;

    const ADG: OrderingKind = OrderingKind::ApproxDegeneracy(0.25);

    fn stars(graph: &CsrGraph, k: usize, min_satellites: usize) -> Vec<CliqueStar> {
        k_clique_stars(graph, k, min_satellites, ADG, true, &CancelToken::none()).stars
    }

    #[test]
    fn planted_star_is_recovered() {
        let (g, mut core, mut satellites) = gms_gen::planted_clique_star(60, 0.0, 3, 4, 2);
        core.sort_unstable();
        satellites.sort_unstable();
        let stars = stars(&g, 3, 1);
        let found = stars
            .iter()
            .find(|s| s.core == core)
            .expect("planted core present");
        // Every planted satellite is adjacent to the whole core.
        for s in &satellites {
            assert!(found.satellites.contains(s), "satellite {s} missing");
        }
    }

    #[test]
    fn k4_stars_of_triangles() {
        // In K4 every triangle (3-clique) has exactly one satellite:
        // the remaining vertex.
        let g = gms_gen::complete(4);
        let stars = stars(&g, 3, 1);
        assert_eq!(stars.len(), 4);
        for star in &stars {
            assert_eq!(star.satellites.len(), 1);
            let all: Vec<NodeId> = (0..4).collect();
            let missing: Vec<NodeId> = all.into_iter().filter(|v| !star.core.contains(v)).collect();
            assert_eq!(star.satellites, missing);
        }
    }

    #[test]
    fn min_satellites_filters() {
        let g = gms_gen::complete(6);
        // In K6, each triangle has 3 satellites.
        let all = stars(&g, 3, 3);
        assert_eq!(all.len(), 20);
        let none = stars(&g, 3, 4);
        assert!(none.is_empty());
    }

    #[test]
    fn satellites_are_fully_connected_to_core() {
        let g = gms_gen::gnp(40, 0.3, 14);
        for star in stars(&g, 3, 1) {
            for &s in &star.satellites {
                for &c in &star.core {
                    assert!(g.has_edge(s, c));
                }
            }
        }
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    // The heartbeat is zero under `cfg(test)`, so 2- and 4-wide pools
    // split the root walk at every chance. The natural order makes the
    // hub of the ring graph a root with 69 forward neighbors.
    #[test]
    fn stars_equal_the_brute_force_oracle_at_widths_1_2_4() {
        let hub: Vec<(NodeId, NodeId)> = (1..70)
            .map(|v| (0, v))
            .chain((1..70).flat_map(|v| [(v, v % 69 + 1), (v, (v + 1) % 69 + 1)]))
            .collect();
        let gallery = [
            gms_gen::gnp(30, 0.3, 1),
            gms_gen::planted_cliques(80, 0.03, 3, 7, 5).0,
            gms_gen::planted_clique_star(50, 0.05, 4, 5, 2).0,
            gms_gen::complete(8),
            CsrGraph::from_undirected_edges(70, &hub),
            CsrGraph::from_undirected_edges(7, &[(1, 2), (2, 3), (1, 3)]),
            CsrGraph::from_undirected_edges(0, &[]),
        ];
        let pools = [1, 2, 4].map(pool);
        let none = CancelToken::none();
        for (g, graph) in gallery.iter().enumerate() {
            for k in 2..=5 {
                for min in 0..=3 {
                    let expected = clique_stars_brute(graph, k, min);
                    for (ordering, (pool, width)) in [ADG, OrderingKind::Natural]
                        .into_iter()
                        .flat_map(|o| pools.iter().zip([1, 2, 4]).map(move |p| (o, p)))
                    {
                        let (listed, counted) = pool.install(|| {
                            (
                                k_clique_stars(graph, k, min, ordering, true, &none),
                                k_clique_stars(graph, k, min, ordering, false, &none),
                            )
                        });
                        let at = format!("graph {g} k {k} min {min} {ordering:?} width {width}");
                        assert_eq!(listed.stars, expected, "{at}");
                        assert_eq!(listed.count, expected.len() as u64, "{at}");
                        assert_eq!(counted.count, expected.len() as u64, "{at}");
                        assert!(counted.stars.is_empty(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn kron_10_counts_are_pinned() {
        let g = gms_gen::kronecker_default(10, 8, 101);
        let pinned = [
            (2, [5544, 5544, 5054, 4608]),
            (3, [24408, 24408, 23582, 22520]),
            (4, [76716, 76716, 75533, 73438]),
            (5, [174935, 174935, 173181, 169581]),
        ];
        for (k, counts) in pinned {
            let got = [0, 1, 2, 3]
                .map(|min| k_clique_stars(&g, k, min, ADG, false, &CancelToken::none()).count);
            assert_eq!(got, counts, "k = {k}, min-satellites 0..=3");
        }
    }

    #[test]
    fn a_fired_token_stops_every_root() {
        let token = CancelToken::manual();
        token.cancel();
        let out = k_clique_stars(&gms_gen::complete(12), 3, 1, ADG, true, &token);
        assert_eq!(out, StarOutcome::default());
    }
}
