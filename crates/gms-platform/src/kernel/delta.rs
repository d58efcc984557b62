//! Delta-aware cache maintenance for dynamic graphs.
//!
//! A batched edge mutation ([`Session::add_edges`] /
//! [`Session::remove_edges`]) changes a graph's content and therefore
//! its fingerprint — naively, every cached outcome for the old
//! fingerprint dies. But most kernels declare *how* a structural
//! delta can reach their result ([`DeltaSensitivity`]), and for the
//! declared-local ones an [`EdgeDelta`] is enough to either prove the
//! entry unaffected or maintain it incrementally
//! ([`Kernel::run_delta`]). [`apply_mutation`] is the one mutation
//! sequence; the policy inside it turns those declarations into
//! per-entry [`MigrationDecision`](super::MigrationDecision)s for
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

use super::cache::{MigrationDecision, MigrationStats, ResultCache};
use super::{GraphStore, KernelError, Params, Registry};
use gms_core::{CsrGraph, Edge, Graph};
use gms_graph::{patch_csr, CompressedCsr, EdgeDelta};

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

/// The one edge-mutation sequence, shared by [`Session::mutate_edges`]
/// (which documents the semantics) and the `gms-serve` worker: patch
/// the resident with `(E \ remove) ∪ add` and — unless every requested
/// change already held — fingerprint the new content, migrate the old
/// content's cached outcomes to it and rebuild the resident in the
/// representation it had. Returns the store to swap in (`None` for a
/// no-op batch, whose outcome repeats the current `fingerprint` and
/// `lineage`) and the outcome.
///
/// `still_referenced` says the old content is reachable through
/// another handle or name, so its cache entries stay where they are.
/// A raw resident is patched from a borrow; only a compressed one is
/// decoded first.
///
/// [`Session::mutate_edges`]: super::Session::mutate_edges
#[allow(clippy::too_many_arguments)]
pub fn apply_mutation(
    store: &GraphStore,
    fingerprint: u64,
    lineage: GraphLineage,
    add: &[Edge],
    remove: &[Edge],
    cache: &ResultCache,
    registry: &Registry,
    still_referenced: bool,
) -> Result<(Option<GraphStore>, MutationOutcome), KernelError> {
    let decoded;
    let old_csr = match store {
        GraphStore::Csr(graph) => graph,
        GraphStore::Compressed(graph) => {
            decoded = graph.to_csr();
            &decoded
        }
    };
    let (new_csr, delta) =
        patch_csr(old_csr, add, remove).map_err(|e| KernelError::BadMutation {
            message: e.to_string(),
        })?;
    let mut outcome = MutationOutcome {
        fingerprint,
        base_fingerprint: lineage.base_fingerprint,
        version: lineage.version,
        added: delta.added.len(),
        removed: delta.removed.len(),
        touched: delta.touched.len(),
        vertices: new_csr.num_vertices(),
        edges: new_csr.num_arcs() / 2,
        cache: MigrationStats::default(),
    };
    if delta.is_empty() {
        // Every requested change already held: same content, same
        // fingerprint, no version bump, nothing to migrate.
        return Ok((None, outcome));
    }
    outcome.fingerprint = super::fingerprint(&new_csr);
    outcome.version += 1;
    if !still_referenced {
        outcome.cache = migrate_for_delta(
            cache,
            registry,
            old_csr,
            &new_csr,
            fingerprint,
            outcome.fingerprint,
            &delta,
        );
    }
    let new_store = match store {
        GraphStore::Csr(_) => GraphStore::Csr(new_csr),
        GraphStore::Compressed(_) => GraphStore::Compressed(CompressedCsr::from_csr(&new_csr)),
    };
    Ok((Some(new_store), outcome))
}

/// Migrates every cached entry of the mutated graph from `old_fp` to
/// `new_fp` according to each kernel's declared [`DeltaSensitivity`]
/// — see the module docs for the decision table. Entries whose kernel
/// is no longer registered are invalidated (no declaration, no
/// proof).
fn migrate_for_delta(
    cache: &ResultCache,
    registry: &Registry,
    old: &CsrGraph,
    new: &CsrGraph,
    old_fp: u64,
    new_fp: u64,
    delta: &EdgeDelta,
) -> MigrationStats {
    cache.migrate_fingerprint(
        old_fp,
        new_fp,
        new.num_vertices() + 1,
        new.num_arcs(),
        |key, previous| {
            let Some(kernel) = registry.get(key.kernel) else {
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
