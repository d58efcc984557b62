//! The one way to hold a graph: a [`Resident`] and the three
//! operations on it — **admit**, **run**, **mutate** — that
//! [`Session`](super::Session), [`BatchRunner`](super::BatchRunner)
//! and the `gms-serve` worker all call. The holders differ only in
//! how they find a resident (by handle, by name) and under which
//! lock; what registering, running and mutating *mean* is here, once.
//!
//! ```text
//!  gms_graph::io::load_graph ─► GraphStore
//!                                  │ Resident::new   (fingerprint, outside any lock)
//!                                  │ Engine::admit   (same content ⇒ keep lineage + cache
//!                                  ▼                  lines, else fresh lineage +
//!                              Resident               invalidate the old)
//!            ┌─────────────────────┴────────────────────┐
//!   Session: Vec<Resident>              gms-serve: RwLock<BTreeMap<name, Resident>>
//!   (by GraphHandle)                    (runs clone it out of the read lock,
//!            │                           mutations serialize under the write lock)
//!            └─────────────────────┬────────────────────┘
//!                Engine::key ─► Engine::run      registry → CacheKey → RunCx →
//!                                                single-flight → execute
//!                Engine::mutate                  patch → migrate cache → next Resident
//! ```

use super::cache::{CacheKey, MigrationStats, ResultCache};
use super::delta::{migrate_for_delta, GraphLineage, MutationOutcome};
use super::{execute, CancelToken, Kernel, KernelError, Outcome, Params, Registry, RunCx};
use gms_core::{Edge, Graph};
use gms_graph::{patch_csr, CompressedCsr, GraphStore, GraphView};
use std::sync::Arc;

/// One loaded graph with its cached identity: the resident
/// representation, the current content fingerprint (the graph half of
/// every cache key), and the versioned lineage mutations advance.
/// Cheap to clone — the store is shared — so a reader can take one
/// out of a lock and run on it while a mutation swaps the next
/// version in underneath. Vertex and edge counts are the store's.
#[derive(Clone)]
pub struct Resident {
    store: Arc<GraphStore>,
    fingerprint: u64,
    lineage: GraphLineage,
}

impl Resident {
    /// Fingerprints `store` — one pass over the whole graph, so do it
    /// before taking whatever lock guards the table — and starts its
    /// lineage at version 0. What it becomes in a table that may
    /// already hold the content is [`Engine::admit`]'s call.
    pub fn new(store: GraphStore) -> Self {
        let fingerprint = store.fingerprint();
        Self {
            store: Arc::new(store),
            fingerprint,
            lineage: GraphLineage::new(fingerprint),
        }
    }

    /// The representation held — raw or compressed.
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// Content fingerprint of the current version.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Where the content started and how many effective mutation
    /// batches have been applied since.
    pub fn lineage(&self) -> GraphLineage {
        self.lineage
    }
}

/// Whether content `fingerprint` is still reachable through a
/// resident of `table` *besides* the one being replaced or mutated —
/// which is itself in the table, so: whether a second one holds it.
/// While one does, the content's cache lines stay put.
fn still_referenced<'a>(fingerprint: u64, table: impl IntoIterator<Item = &'a Resident>) -> bool {
    let mut holders = table.into_iter().filter(|r| r.fingerprint == fingerprint);
    holders.nth(1).is_some()
}

/// A validated request against a resident, ready to run: the kernel,
/// the cache key ([`Engine::key`] built it, validating the parameters
/// on the way), and what the run borrows.
pub struct KeyedRun<'a> {
    /// The request's identity in the result cache.
    pub key: CacheKey,
    kernel: &'a dyn Kernel,
    view: GraphView<'a>,
    params: &'a Params,
}

/// What every holder of residents runs against: the kernel
/// [`Registry`] and the — possibly shared — [`ResultCache`].
pub struct Engine {
    /// The kernels that can be run.
    pub registry: Registry,
    /// Memoized outcomes, keyed by content fingerprint.
    pub cache: Arc<ResultCache>,
}

impl Engine {
    /// **Admit**: decides what `fresh` — a just-loaded
    /// [`Resident::new`] — becomes when it takes the place of
    /// `replaces` in `table`, the holder's residents (`None`: the
    /// slot is new, `fresh` it is). Registration is idempotent by
    /// content: when the fingerprints are equal the replaced
    /// resident's lineage, version and every cache line are kept, and
    /// the store itself is swapped only if its representation differs
    /// (a re-load asking for `gap` over a raw resident recompresses;
    /// an identical retry changes nothing). New content keeps its
    /// fresh lineage and invalidates the old content's cached
    /// outcomes unless another resident of `table` still holds it.
    /// Returns the resident to store and how many cache entries were
    /// invalidated.
    pub fn admit<'a>(
        &self,
        fresh: Resident,
        replaces: Option<&Resident>,
        table: impl IntoIterator<Item = &'a Resident>,
    ) -> (Resident, usize) {
        let Some(old) = replaces else {
            return (fresh, 0);
        };
        if old.fingerprint == fresh.fingerprint {
            let mut kept = old.clone();
            if old.store.compression() != fresh.store.compression() {
                kept.store = fresh.store;
            }
            return (kept, 0);
        }
        if still_referenced(old.fingerprint, table) {
            return (fresh, 0);
        }
        (fresh, self.cache.invalidate_fingerprint(old.fingerprint))
    }

    /// The key half of **run**: looks the kernel up, validates
    /// `params` against its schema and builds the request's
    /// [`CacheKey`] — all a caller needs to probe the cache or
    /// deduplicate before committing to [`Engine::run`].
    pub fn key<'a>(
        &'a self,
        resident: &'a Resident,
        kernel: &str,
        params: &'a Params,
    ) -> Result<KeyedRun<'a>, KernelError> {
        let kernel = self
            .registry
            .get(kernel)
            .ok_or_else(|| KernelError::UnknownKernel(kernel.to_string()))?;
        let store = resident.store();
        let key = CacheKey::build(
            kernel,
            store.num_vertices() + 1,
            store.num_arcs(),
            resident.fingerprint,
            params,
        )?;
        Ok(KeyedRun {
            key,
            kernel,
            view: store.view(),
            params,
        })
    }

    /// **Run**: serves the request from the cache, waits for an
    /// identical computation already in flight, or executes the
    /// kernel and caches the fresh outcome — attributed to `owner`
    /// (see [`next_owner`](super::next_owner)). `cancel` rides into
    /// the kernel's own cancellation points; a fired token surfaces
    /// as [`KernelError::DeadlineExceeded`], which is never cached,
    /// and a waiting duplicate is promoted to leader with its *own*
    /// token, so one caller's tight deadline cannot poison another's
    /// identical request.
    pub fn run(
        &self,
        request: &KeyedRun<'_>,
        cancel: &CancelToken,
        owner: u64,
    ) -> Result<Outcome, KernelError> {
        let cx =
            RunCx::new(request.view, request.params, request.kernel.params()).with_cancel(cancel);
        self.cache
            .run_or_wait(&request.key, owner, || execute(request.kernel, &cx))
    }

    /// **Mutate**: the one edge-mutation sequence
    /// ([`Session::mutate_edges`](super::Session::mutate_edges)
    /// documents the semantics). Patches `resident` with
    /// `(E \ remove) ∪ add` and — unless every requested change
    /// already held — fingerprints the new content, migrates the old
    /// content's cached outcomes to it per kernel
    /// [`DeltaSensitivity`](super::DeltaSensitivity) (unless another
    /// resident of `table`, where `resident` lives, still holds the
    /// old content, whose entries then stay where they are) and
    /// rebuilds the store in the representation it had. Returns the next version of the resident — for a
    /// no-op batch the same one, same fingerprint and lineage — and
    /// what the batch did. A raw resident is patched from a borrow;
    /// only a compressed one is decoded first.
    pub fn mutate<'a>(
        &self,
        resident: &Resident,
        add: &[Edge],
        remove: &[Edge],
        table: impl IntoIterator<Item = &'a Resident>,
    ) -> Result<(Resident, MutationOutcome), KernelError> {
        let decoded;
        let old_csr = match resident.store() {
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
            fingerprint: resident.fingerprint,
            base_fingerprint: resident.lineage.base_fingerprint,
            version: resident.lineage.version,
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
            return Ok((resident.clone(), outcome));
        }
        outcome.fingerprint = gms_graph::fingerprint(&new_csr);
        outcome.version += 1;
        if !still_referenced(resident.fingerprint, table) {
            outcome.cache = migrate_for_delta(
                self,
                old_csr,
                &new_csr,
                resident.fingerprint,
                outcome.fingerprint,
                &delta,
            );
        }
        let store = match resident.store() {
            GraphStore::Csr(_) => GraphStore::Csr(new_csr),
            GraphStore::Compressed(_) => GraphStore::Compressed(CompressedCsr::from_csr(&new_csr)),
        };
        let next = Resident {
            store: Arc::new(store),
            fingerprint: outcome.fingerprint,
            lineage: GraphLineage {
                version: outcome.version,
                ..resident.lineage
            },
        };
        Ok((next, outcome))
    }
}
