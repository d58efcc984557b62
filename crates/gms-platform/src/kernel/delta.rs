//! Delta-aware cache maintenance for dynamic graphs.
//!
//! A batched edge mutation ([`Session::add_edges`] /
//! [`Session::remove_edges`]) changes a graph's content and therefore
//! its fingerprint — naively, every cached outcome for the old
//! fingerprint dies. But most kernels declare *how* a structural
//! delta can reach their result ([`DeltaSensitivity`]), and for the
//! declared-local ones an [`EdgeDelta`] is enough to either prove the
//! entry unaffected or maintain it incrementally
//! ([`Kernel::run_delta`]). The one mutation sequence is
//! [`Engine::mutate`](super::Engine::mutate) (patch → fingerprint →
//! migrate → next [`Resident`](super::Resident)); this module holds
//! the vocabulary it speaks and the policy it calls —
//! `migrate_for_delta` turns the declarations into per-entry
//! [`MigrationDecision`](super::MigrationDecision)s for
//! [`ResultCache::migrate_fingerprint`]:
//!
//! * [`DeltaSensitivity::VertexCount`] — edge mutations cannot touch
//!   the result at all (e.g. `order-random`, a pure function of the
//!   vertex count and seed): the entry survives verbatim under the
//!   new fingerprint;
//! * [`DeltaSensitivity::VertexNeighborhood`] /
//!   [`DeltaSensitivity::ComponentLocal`] — the kernel is asked to
//!   maintain the outcome incrementally from the delta (touched-wedge
//!   triangle recount, localized k-core re-peeling); if it declines,
//!   the entry is invalidated and the next request recomputes from
//!   scratch — the always-correct fallback;
//! * [`DeltaSensitivity::Global`] — any structural change may move
//!   the result (MST, min-cut, BFS orders…): invalidate.
//!
//! [`Session::add_edges`]: super::Session::add_edges
//! [`Session::remove_edges`]: super::Session::remove_edges
//! [`Kernel::run_delta`]: super::Kernel::run_delta

use super::cache::{MigrationDecision, MigrationStats};
use super::{Engine, Params};
use gms_core::{CsrGraph, Graph};
use gms_graph::EdgeDelta;

/// How a kernel's result depends on structural deltas — each
/// [`Kernel`] declares one via [`Kernel::delta_sensitivity`]. The
/// declaration is a *promise the cache acts on*: declaring too-local
/// a sensitivity serves stale results, so the default is
/// [`DeltaSensitivity::Global`] and kernels opt into locality.
///
/// [`Kernel`]: super::Kernel
/// [`Kernel::delta_sensitivity`]: super::Kernel::delta_sensitivity
/// [`Kernel::run_delta`]: super::Kernel::run_delta
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeltaSensitivity {
    /// Any edge change anywhere may change the result (MST, min cut,
    /// colorings, BFS/degree orders…). Mutations always invalidate.
    #[default]
    Global,
    /// The result is determined per connected component and can be
    /// re-derived from the previous outcome plus the touched region
    /// (k-core: membership cascades only through the touched
    /// vertices' components). Mutations attempt
    /// [`Kernel::run_delta`], invalidating on decline.
    ///
    /// [`Kernel::run_delta`]: super::Kernel::run_delta
    ComponentLocal,
    /// The result decomposes over bounded vertex neighborhoods, so
    /// only patterns incident to touched vertices can appear or
    /// disappear (triangle counting: every affected triangle has a
    /// touched corner). Mutations attempt [`Kernel::run_delta`],
    /// invalidating on decline.
    ///
    /// [`Kernel::run_delta`]: super::Kernel::run_delta
    VertexNeighborhood,
    /// The result depends only on the vertex count and the
    /// parameters, never on edges (`order-random` is a seeded shuffle
    /// of `0..n`). Edge mutations provably cannot affect it: entries
    /// survive migration verbatim.
    VertexCount,
}

/// Versioned fingerprint lineage of a graph behind a handle: where
/// the content started ([`GraphLineage::base_fingerprint`], the hash
/// at load time) and how many mutation batches have been applied
/// since ([`GraphLineage::version`]). The *current* fingerprint keeps
/// keying the cache; the lineage is the stable identity mutations
/// preserve — the router places shards by base fingerprint so a
/// mutation never migrates a graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphLineage {
    /// Content fingerprint at load time (version 0).
    pub base_fingerprint: u64,
    /// Number of effective (non-no-op) mutation batches applied.
    pub version: u64,
}

impl GraphLineage {
    /// Lineage of a freshly loaded graph.
    pub fn new(base_fingerprint: u64) -> Self {
        Self {
            base_fingerprint,
            version: 0,
        }
    }
}

/// What one `add_edges`/`remove_edges` batch did: the new identity of
/// the graph, the effective delta size, and how the result cache
/// fared ([`MigrationStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Content fingerprint after the mutation.
    pub fingerprint: u64,
    /// Fingerprint at load time (stable across mutations).
    pub base_fingerprint: u64,
    /// Version after the mutation (unchanged for a no-op batch).
    pub version: u64,
    /// Undirected edges actually added (requested-but-present ones
    /// don't count).
    pub added: usize,
    /// Undirected edges actually removed.
    pub removed: usize,
    /// Vertices whose neighborhood changed.
    pub touched: usize,
    /// Vertex count (mutations never change it).
    pub vertices: usize,
    /// Undirected edge count after the mutation.
    pub edges: usize,
    /// Cache migration results: survived / refreshed / invalidated.
    pub cache: MigrationStats,
}

/// Migrates every cached entry of the mutated graph from `old_fp` to
/// `new_fp` according to each kernel's declared [`DeltaSensitivity`]
/// — see the module docs for the decision table. Entries whose kernel
/// is no longer registered are invalidated (no declaration, no
/// proof).
pub(super) fn migrate_for_delta(
    engine: &Engine,
    old: &CsrGraph,
    new: &CsrGraph,
    old_fp: u64,
    new_fp: u64,
    delta: &EdgeDelta,
) -> MigrationStats {
    engine.cache.migrate_fingerprint(
        old_fp,
        new_fp,
        new.num_vertices() + 1,
        new.num_arcs(),
        |key, previous| {
            let Some(kernel) = engine.registry.get(key.kernel) else {
                return MigrationDecision::Invalidate;
            };
            match kernel.delta_sensitivity() {
                DeltaSensitivity::VertexCount => MigrationDecision::Keep,
                DeltaSensitivity::Global => MigrationDecision::Invalidate,
                DeltaSensitivity::ComponentLocal | DeltaSensitivity::VertexNeighborhood => {
                    let params = Params::from_canonical(&key.params);
                    match kernel.run_delta(old, new, delta, previous, &params) {
                        Some(outcome) => MigrationDecision::Refresh(outcome),
                        None => MigrationDecision::Invalidate,
                    }
                }
            }
        },
    )
}
