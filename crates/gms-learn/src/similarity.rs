//! Vertex similarity measures (§6.5, Table 4): the seven measures the
//! paper prescribes, all built on neighborhood set algebra. The shared
//! kernel is one fused pass over the two sorted CSR neighbour slices
//! ([`for_each_common`], merging or galloping by operand sizes, ⑤⁺)
//! that counts `|N(u) ∩ N(v)|` and, for the two degree-weighted
//! measures, folds their weights; [`score`] turns those into a score.

use gms_core::set::{for_each_common, intersect_count_sorted_slices};
use gms_core::{CancelToken, CsrGraph, Graph, NodeId};
use rayon::prelude::*;

/// The vertex-similarity measures of Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimilarityMeasure {
    /// `|N(u) ∩ N(v)| / |N(u) ∪ N(v)|`
    Jaccard,
    /// `|N(u) ∩ N(v)| / min(|N(u)|, |N(v)|)`
    Overlap,
    /// `Σ_{w ∈ N(u) ∩ N(v)} 1 / log |N(w)|`
    AdamicAdar,
    /// `Σ_{w ∈ N(u) ∩ N(v)} 1 / |N(w)|`
    ResourceAllocation,
    /// `|N(u) ∩ N(v)|`
    CommonNeighbors,
    /// `|N(u) ∪ N(v)|`
    TotalNeighbors,
    /// `|N(u)| · |N(v)|`
    PreferentialAttachment,
}

impl SimilarityMeasure {
    /// All measures in Table 4 order.
    pub const ALL: [SimilarityMeasure; 7] = [
        SimilarityMeasure::Jaccard,
        SimilarityMeasure::Overlap,
        SimilarityMeasure::AdamicAdar,
        SimilarityMeasure::ResourceAllocation,
        SimilarityMeasure::CommonNeighbors,
        SimilarityMeasure::TotalNeighbors,
        SimilarityMeasure::PreferentialAttachment,
    ];

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            SimilarityMeasure::Jaccard => "Jaccard",
            SimilarityMeasure::Overlap => "Overlap",
            SimilarityMeasure::AdamicAdar => "AdamicAdar",
            SimilarityMeasure::ResourceAllocation => "ResourceAllocation",
            SimilarityMeasure::CommonNeighbors => "CommonNeighbors",
            SimilarityMeasure::TotalNeighbors => "TotalNeighbors",
            SimilarityMeasure::PreferentialAttachment => "PreferentialAttachment",
        }
    }

    /// What a common neighbour of degree `dw` adds to the sum of the
    /// two degree-weighted measures (Adamic–Adar, resource
    /// allocation); `None` for the others.
    pub(crate) fn weight(self) -> Option<fn(usize) -> f64> {
        match self {
            SimilarityMeasure::AdamicAdar => Some(|dw| match dw {
                0 | 1 => 0.0,
                _ => 1.0 / (dw as f64).ln(),
            }),
            SimilarityMeasure::ResourceAllocation => Some(|dw| match dw {
                0 => 0.0,
                _ => 1.0 / dw as f64,
            }),
            _ => None,
        }
    }
}

/// Table 4's formulas: `measure` of two vertices of degrees `du` and
/// `dv` with `common` common neighbours, whose weights (see
/// [`SimilarityMeasure::AdamicAdar`] and
/// [`SimilarityMeasure::ResourceAllocation`]) sum to `weighted`.
pub fn score(
    measure: SimilarityMeasure,
    du: usize,
    dv: usize,
    common: usize,
    weighted: f64,
) -> f64 {
    use SimilarityMeasure::*;
    let (du, dv, common) = (du as f64, dv as f64, common as f64);
    let union = du + dv - common;
    match measure {
        Jaccard if union > 0.0 => common / union,
        Overlap if du.min(dv) > 0.0 => common / du.min(dv),
        Jaccard | Overlap => 0.0,
        AdamicAdar | ResourceAllocation => weighted,
        CommonNeighbors => common,
        TotalNeighbors => union,
        PreferentialAttachment => du * dv,
    }
}

/// Computes `measure(u, v)` from one pass over the two neighbour
/// slices. The weights are summed in ascending `w` from `-0.0`, as
/// `Iterator::sum` does, so a pair with no common neighbour scores
/// `-0.0` under the degree-weighted measures.
pub fn similarity(graph: &CsrGraph, measure: SimilarityMeasure, u: NodeId, v: NodeId) -> f64 {
    let (nu, nv) = (graph.neighbors_slice(u), graph.neighbors_slice(v));
    let (mut common, mut weighted) = (0, -0.0);
    match measure.weight() {
        Some(weight) => for_each_common(nu, nv, |w| {
            common += 1;
            weighted += weight(graph.degree(w));
        }),
        None if measure != SimilarityMeasure::PreferentialAttachment => {
            common = intersect_count_sorted_slices(nu, nv);
        }
        None => {}
    }
    score(measure, nu.len(), nv.len(), common, weighted)
}

/// Pairs scored between two probes of a run's token.
pub(crate) const PROBE_STRIDE: usize = 256;

/// Computes a measure for every given vertex pair in parallel; returns
/// the scores aligned with `pairs`. This is the bulk entry point whose
/// rate defines the paper's "vertex pairs with similarity derived per
/// second" algorithmic throughput. A fired `cancel` yields a partial
/// result the caller must discard.
pub fn similarity_batch(
    graph: &CsrGraph,
    measure: SimilarityMeasure,
    pairs: &[(NodeId, NodeId)],
    cancel: &CancelToken,
) -> Vec<f64> {
    pairs
        .par_chunks(PROBE_STRIDE)
        .flat_map_iter(|chunk| {
            let chunk = if cancel.is_cancelled() { &[] } else { chunk };
            chunk.iter().map(|&(u, v)| similarity(graph, measure, u, v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        // 0 and 1 share neighbors {2, 3}; 0 also sees 4; 1 also sees 5.
        CsrGraph::from_undirected_edges(6, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)])
    }

    #[test]
    fn jaccard_and_overlap() {
        let g = sample();
        // N(0) = {2,3,4}, N(1) = {2,3,5}: common 2, union 4.
        assert_eq!(similarity(&g, SimilarityMeasure::Jaccard, 0, 1), 0.5);
        assert_eq!(similarity(&g, SimilarityMeasure::Overlap, 0, 1), 2.0 / 3.0);
        assert_eq!(
            similarity(&g, SimilarityMeasure::CommonNeighbors, 0, 1),
            2.0
        );
        assert_eq!(similarity(&g, SimilarityMeasure::TotalNeighbors, 0, 1), 4.0);
        assert_eq!(
            similarity(&g, SimilarityMeasure::PreferentialAttachment, 0, 1),
            9.0
        );
    }

    #[test]
    fn degree_weighted_measures() {
        let g = sample();
        // Common neighbors 2 and 3 both have degree 2.
        let aa = similarity(&g, SimilarityMeasure::AdamicAdar, 0, 1);
        assert!((aa - 2.0 / 2f64.ln()).abs() < 1e-12);
        let ra = similarity(&g, SimilarityMeasure::ResourceAllocation, 0, 1);
        assert!((ra - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_pairs_are_zero() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1)]);
        // Vertex 2 is isolated.
        assert_eq!(similarity(&g, SimilarityMeasure::Jaccard, 0, 2), 0.0);
        assert_eq!(similarity(&g, SimilarityMeasure::Overlap, 0, 2), 0.0);
        assert_eq!(similarity(&g, SimilarityMeasure::AdamicAdar, 0, 2), 0.0);
    }

    #[test]
    fn batch_matches_single() {
        let g = sample();
        let pairs = [(0u32, 1u32), (2, 3), (4, 5)];
        for measure in SimilarityMeasure::ALL {
            let batch = similarity_batch(&g, measure, &pairs, &CancelToken::none());
            for (i, &(u, v)) in pairs.iter().enumerate() {
                assert_eq!(
                    batch[i],
                    similarity(&g, measure, u, v),
                    "{}",
                    measure.label()
                );
            }
        }
    }

    #[test]
    fn symmetry() {
        let g = sample();
        for measure in SimilarityMeasure::ALL {
            for &(u, v) in &[(0u32, 1u32), (2, 5), (0, 4)] {
                assert_eq!(
                    similarity(&g, measure, u, v),
                    similarity(&g, measure, v, u),
                    "{}",
                    measure.label()
                );
            }
        }
    }
}
