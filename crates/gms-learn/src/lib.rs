//! # gms-learn
//!
//! Graph learning problems of the GMS specification (§4.1.2), read
//! straight off the resident CSR:
//!
//! * [`mod@similarity`] — the seven vertex-similarity measures of Table 4
//!   (Jaccard, Overlap, Adamic-Adar, Resource Allocation, Common /
//!   Total Neighbors, Preferential Attachment): one [`score`] from the
//!   degrees, the common-neighbour count and the degree-weighted sum,
//!   fed per pair by one fused pass over two neighbour slices (⑤⁺);
//! * [`linkpred`] — similarity-based link prediction and the §6.7
//!   accuracy protocol (`eff = |E_predict ∩ E_rndm|`), one wedge walk
//!   per vertex into a bounded top-k;
//! * [`clustering`] — Jarvis–Patrick clustering on top of any
//!   similarity measure;
//! * [`community`] — Label Propagation and the Louvain method, with
//!   modularity and Rand-index utilities.
//!
//! `similarity_batch`, `jarvis_patrick` and `evaluate_accuracy` take the
//! run's [`gms_core::CancelToken`] and probe it as they go.

#![warn(missing_docs)]

pub mod clustering;
pub mod community;
pub mod linkpred;
pub mod similarity;

/// The link-prediction walk's [`gms_core::split`] heartbeat; zero in
/// unit tests, so it splits at every chance.
const SPLIT_AFTER: std::time::Duration = if cfg!(test) {
    std::time::Duration::ZERO
} else {
    gms_core::split::HEARTBEAT
};

pub use clustering::{jarvis_patrick, num_clusters, JarvisPatrickConfig};
pub use community::{label_propagation, louvain, louvain_cancellable, modularity, rand_index};
pub use linkpred::{
    evaluate_accuracy, split_edges, top_candidates, LinkPredictionSplit, ScoredPair,
};
pub use similarity::{score, similarity, similarity_batch, SimilarityMeasure};
