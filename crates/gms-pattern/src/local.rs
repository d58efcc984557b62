//! Root-local universes: one root's neighborhood numbered `0..d`, and
//! the rows of the subgraph it induces as sets over those local ids.
//!
//! Both clique miners work one root at a time on a subproblem the size
//! of a neighborhood — Bron–Kerbosch on the induced subgraph `H` on
//! `P ∪ X` (§6.2), k-clique counting on the oriented subgraph induced
//! by `N⁺(u)` (§6.3). Numbering that neighborhood `0..d` makes every set
//! of the search a set over `d` elements: a bitset has `d` bits instead
//! of `n`, which on a 4 k-vertex graph whose roots have a handful of
//! candidates is one word per operation instead of 64.
//!
//! Local ids follow the order of the members, which are a sorted CSR
//! neighborhood, so scanning another sorted neighborhood yields local
//! ids already in ascending order: every row is built with
//! `assign_sorted` or ascending `add`s, never a sort. A [`Universe`]
//! is per-worker scratch (see
//! [`with_worker_checkout`](gms_core::split::with_worker_checkout)):
//! its `n`-entry marker array and its rows are reused across roots and
//! jobs, so a warm worker builds a root's rows without allocating.

use gms_core::{CsrGraph, Graph, NodeId, Set};

/// Marker of a vertex outside the current root's universe.
const OUTSIDE: u32 = u32::MAX;

/// One root's universe: the local id of every member, the original id
/// of every local id, and the induced rows over local ids.
pub(crate) struct Universe<S: Set> {
    /// `local[v]` is `v`'s local id under the current root, or
    /// [`OUTSIDE`]. Grows to the largest graph seen; only the current
    /// members are ever marked.
    local: Vec<u32>,
    /// `ids[i]` is the original id of local `i`.
    ids: Vec<NodeId>,
    /// Row `i`: the local neighbors of local `i` (the first `d` rows
    /// are the current root's; later ones are stale capacity).
    rows: Vec<S>,
    /// Number of members, i.e. of the current root's rows.
    members: usize,
    /// One row's local ids before they become a set.
    gathered: Vec<NodeId>,
}

impl<S: Set> Default for Universe<S> {
    fn default() -> Self {
        Universe {
            local: Vec::new(),
            ids: Vec::new(),
            rows: Vec::new(),
            members: 0,
            gathered: Vec::new(),
        }
    }
}

impl<S: Set> Universe<S> {
    /// Makes `members` (strictly increasing) the universe, as local ids
    /// `0..members.len()`, and clears the previous root's marks.
    fn enter(&mut self, n: usize, members: &[NodeId]) {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        for &v in &self.ids {
            self.local[v as usize] = OUTSIDE;
        }
        if self.local.len() < n {
            self.local.resize(n, OUTSIDE);
        }
        self.ids.clear();
        self.ids.extend_from_slice(members);
        for (i, &v) in members.iter().enumerate() {
            self.local[v as usize] = i as u32;
        }
        if self.rows.len() < members.len() {
            self.rows.resize_with(members.len(), S::empty);
        }
        self.members = members.len();
    }

    /// Builds the subgraph of `graph` induced by `members` over local
    /// ids. Row `i` is `N(members[i]) ∩ members` when `full(i)`; every
    /// other row holds only its `full` neighbors — all that Bron–Kerbosch
    /// asks of an `X` vertex, whose row only ever meets `P`. The `full`
    /// rows come from one scan of each neighborhood, and that scan
    /// appends `i` to the partial rows it meets, in ascending order.
    pub(crate) fn induce(
        &mut self,
        graph: &CsrGraph,
        members: &[NodeId],
        full: impl Fn(usize) -> bool,
    ) {
        self.enter(graph.num_vertices(), members);
        let d = members.len();
        for i in (0..d).filter(|&i| !full(i)) {
            self.rows[i].assign_sorted(&[]);
        }
        for i in (0..d).filter(|&i| full(i)) {
            self.gathered.clear();
            self.gathered.extend(
                graph
                    .neighbors_slice(members[i])
                    .iter()
                    .map(|&w| self.local[w as usize])
                    .filter(|&j| j != OUTSIDE),
            );
            self.rows[i].assign_sorted(&self.gathered);
            for &j in &self.gathered {
                if !full(j as usize) {
                    self.rows[j as usize].add(i as NodeId);
                }
            }
        }
    }

    /// `Σ |N(m) ∩ members|` over `members`: the arcs of the induced
    /// subgraph, counted without building a row.
    pub(crate) fn count_arcs(&mut self, graph: &CsrGraph, members: &[NodeId]) -> usize {
        self.enter(graph.num_vertices(), members);
        members
            .iter()
            .map(|&m| {
                graph
                    .neighbors_slice(m)
                    .iter()
                    .filter(|&&w| self.local[w as usize] != OUTSIDE)
                    .count()
            })
            .sum()
    }

    /// Appends a vertex outside the rows (Bron–Kerbosch's root) as the
    /// next local id and returns that id.
    pub(crate) fn push_id(&mut self, v: NodeId) -> NodeId {
        self.ids.push(v);
        (self.ids.len() - 1) as NodeId
    }

    /// The current root's rows, one per member.
    pub(crate) fn rows(&self) -> &[S] {
        &self.rows[..self.members]
    }

    /// Original id of every local id.
    pub(crate) fn ids(&self) -> &[NodeId] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_core::{DenseBitSet, SortedVecSet};

    /// A 6-cycle with the chords 0-2 and 3-5, so `N(1) = {0, 2}` is
    /// adjacent, `N(4) = {3, 5}` is adjacent, and the rest is sparse.
    fn graph() -> CsrGraph {
        CsrGraph::from_undirected_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (0, 2),
                (3, 5),
            ],
        )
    }

    fn rows_of<S: Set>(universe: &Universe<S>, d: usize) -> Vec<Vec<NodeId>> {
        universe.rows()[..d].iter().map(Set::to_vec).collect()
    }

    #[test]
    fn full_rows_are_the_induced_subgraph_in_local_ids() {
        let g = graph();
        let mut universe = Universe::<DenseBitSet>::default();
        // N(2) = {0, 1, 3}: 0-1 is an edge, 3 is adjacent to neither.
        universe.induce(&g, g.neighbors_slice(2), |_| true);
        assert_eq!(universe.ids(), &[0, 1, 3]);
        assert_eq!(rows_of(&universe, 3), vec![vec![1], vec![0], vec![]]);
        assert_eq!(universe.count_arcs(&g, g.neighbors_slice(2)), 2);
    }

    #[test]
    fn partial_rows_hold_only_their_full_neighbors() {
        let g =
            CsrGraph::from_undirected_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)]);
        let mut universe = Universe::<SortedVecSet>::default();
        // Members {1, 2, 3} form a triangle; local 0 (vertex 1) is full,
        // locals 1 and 2 are partial: the 2-3 edge must not appear.
        universe.induce(&g, g.neighbors_slice(0), |i| i == 0);
        assert_eq!(rows_of(&universe, 3), vec![vec![1, 2], vec![0], vec![0]]);
    }

    #[test]
    fn a_new_root_clears_the_previous_marks_across_graphs() {
        let g = graph();
        let mut universe = Universe::<DenseBitSet>::default();
        universe.induce(&g, g.neighbors_slice(2), |_| true);
        // A smaller graph next, with members {1}: the marks on 0 and 3
        // left by the last root must be gone, or the scan of the path's
        // N(1) = {0, 2} would count vertex 0.
        let path = CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(universe.count_arcs(&path, path.neighbors_slice(0)), 0);
        universe.induce(&g, g.neighbors_slice(4), |_| true);
        assert_eq!(universe.ids(), &[3, 5]);
        assert_eq!(rows_of(&universe, 2), vec![vec![1], vec![0]]);
        assert_eq!(universe.push_id(4), 2);
        assert_eq!(universe.rows().len(), 2, "the pushed id has no row");
    }
}
