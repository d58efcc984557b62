//! # gms-learn
//!
//! Graph learning problems of the GMS specification (§4.1.2):
//!
//! * [`mod@similarity`] — the seven vertex-similarity measures of Table 4
//!   (Jaccard, Overlap, Adamic-Adar, Resource Allocation, Common /
//!   Total Neighbors, Preferential Attachment), all expressed over
//!   neighborhood set intersections (⑤⁺);
//! * [`linkpred`] — similarity-based link prediction and the §6.7
//!   accuracy protocol (`eff = |E_predict ∩ E_rndm|`);
//! * [`clustering`] — Jarvis–Patrick clustering on top of any
//!   similarity measure;
//! * [`community`] — Label Propagation and the Louvain method, with
//!   modularity and Rand-index utilities.

#![warn(missing_docs)]

pub mod clustering;
pub mod community;
pub mod linkpred;
pub mod similarity;

pub use clustering::{jarvis_patrick, num_clusters, JarvisPatrickConfig};
pub use community::{label_propagation, louvain, louvain_cancellable, modularity, rand_index};
pub use linkpred::{
    evaluate_accuracy, score_candidates, split_edges, LinkPredictionSplit, ScoredPair,
};
pub use similarity::{similarity, similarity_batch, similarity_batch_csr, SimilarityMeasure};
