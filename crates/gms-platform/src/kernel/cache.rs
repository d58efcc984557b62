//! The shared result cache: a thread-safe, `Arc`-able LRU memo of
//! `(graph fingerprint, kernel, canonical params)` → [`Outcome`] that
//! any number of concurrent [`Session`](super::Session)s — or server
//! worker threads — can sit on top of.
//!
//! Beyond plain memoization the cache provides:
//!
//! * **observability** — hit / miss / eviction / coalescing /
//!   cross-owner counters ([`CacheStats`]), the numbers a serving
//!   stats endpoint reports;
//! * **single-flight deduplication** — [`ResultCache::run_or_wait`]
//!   admits exactly one computation per key; identical requests that
//!   arrive while it is in flight block until the leader finishes and
//!   are then served from the fresh entry, so a thundering herd of
//!   duplicate requests costs one kernel execution;
//! * **invalidation** — [`ResultCache::invalidate_fingerprint`] drops
//!   every outcome computed for a graph content hash, the hook
//!   [`Session::replace_graph`](super::Session::replace_graph) and
//!   the server's load-with-replace use when a graph is reloaded.
//!   Invalidation is *final*: each call stamps an epoch for the
//!   fingerprint, and an in-flight computation admitted before the
//!   stamp discards its insert instead of resurrecting a dropped
//!   entry — the stale-result window a replace racing a concurrent
//!   run would otherwise open ([`CacheStats::stale_drops`]);
//! * **delta migration** — [`ResultCache::migrate_fingerprint`]
//!   re-keys the entries of a *mutated* graph (old fingerprint → new
//!   fingerprint) under a caller-supplied per-entry decision: keep
//!   verbatim (the kernel's declared delta sensitivity provably cannot
//!   be affected), refresh with an incrementally maintained outcome,
//!   or invalidate. This is what makes batched edge mutations cheaper
//!   than a blanket flush.

use super::{Kernel, KernelError, Outcome, Params, StageTimings};
use gms_core::hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, TryLockError};

/// Allocates a process-unique owner tag. Every [`Session`] draws one
/// at construction, and server workers draw one per worker thread;
/// the cache uses the tag to tell *cross-owner* hits (one session
/// reusing work another session paid for) from self-hits.
///
/// [`Session`]: super::Session
pub fn next_owner() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The full identity of one kernel request: the graph content hash
/// (with the exact CSR dimensions riding along so a 64-bit collision
/// between structurally different graphs cannot share cache lines),
/// the kernel name, and the canonical parameter rendering with
/// defaults filled in.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content fingerprint of the CSR arrays
    /// ([`fingerprint`](super::fingerprint)).
    pub fingerprint: u64,
    /// Length of the CSR offsets array (vertex count + 1).
    pub vertices: usize,
    /// Length of the CSR adjacency array (directed arc count).
    pub arcs: usize,
    /// Registered kernel name.
    pub kernel: &'static str,
    /// Canonical `name=value` parameter rendering
    /// ([`Params::canonical`]).
    pub params: String,
}

impl CacheKey {
    /// Builds the key for running `kernel` on a graph of the given
    /// CSR dimensions (`vertices` = offsets length = n+1, `arcs` =
    /// stored arc count) whose content hash is `fingerprint`,
    /// validating the parameters against the kernel's schema on the
    /// way. Taking the dimensions rather than the graph lets raw and
    /// compressed backends of the same content share one key.
    pub fn build(
        kernel: &dyn Kernel,
        vertices: usize,
        arcs: usize,
        fingerprint: u64,
        params: &Params,
    ) -> Result<Self, KernelError> {
        let specs = kernel.params();
        params.validate(kernel.name(), specs)?;
        Ok(Self {
            fingerprint,
            vertices,
            arcs,
            kernel: kernel.name(),
            params: params.canonical(specs),
        })
    }
}

/// A point-in-time snapshot of the cache's counters — the
/// observability surface of the result cache (the `stats`
/// endpoint).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cached entry.
    pub hits: u64,
    /// Computations admitted (each one ran a kernel).
    pub misses: u64,
    /// Entries dropped under capacity pressure.
    pub evictions: u64,
    /// Hits that waited for an identical in-flight computation
    /// instead of starting their own (single-flight deduplication).
    pub coalesced: u64,
    /// Hits served to a different owner (session / worker) than the
    /// one that paid for the computation.
    pub cross_hits: u64,
    /// Entries dropped by fingerprint invalidation (graph replaced,
    /// or a mutation delta its kernel's sensitivity could affect).
    pub invalidated: u64,
    /// Entries re-keyed to a mutated graph's new fingerprint because
    /// the mutation provably could not affect them ([`ResultCache::
    /// migrate_fingerprint`] decisions `Keep` + `Refresh`).
    pub migrated: u64,
    /// The subset of `migrated` whose outcome was incrementally
    /// maintained (`Refresh`) rather than kept verbatim.
    pub refreshed: u64,
    /// Completed computations discarded instead of inserted because
    /// their fingerprint was invalidated while they were in flight —
    /// the replace-mid-run stale window, closed.
    pub stale_drops: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum number of entries (0 = caching disabled).
    pub capacity: usize,
}

/// Per-entry verdict for [`ResultCache::migrate_fingerprint`].
pub enum MigrationDecision {
    /// The mutation provably cannot affect this outcome: re-key it to
    /// the new fingerprint unchanged.
    Keep,
    /// The outcome was incrementally maintained across the delta:
    /// re-key it with this replacement value.
    Refresh(Outcome),
    /// The mutation may affect the outcome and no incremental path
    /// exists: drop it (the full-recompute fallback).
    Invalidate,
}

/// What one [`ResultCache::migrate_fingerprint`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Entries re-keyed verbatim.
    pub survived: usize,
    /// Entries re-keyed with an incrementally maintained outcome.
    pub refreshed: usize,
    /// Entries dropped.
    pub invalidated: usize,
}

struct Entry {
    outcome: Outcome,
    stamp: u64,
    owner: u64,
}

#[derive(Default)]
struct Inner {
    capacity: usize,
    tick: u64,
    entries: FxHashMap<CacheKey, Entry>,
    /// Keys with a computation currently in flight (single-flight).
    inflight: FxHashMap<CacheKey, ()>,
    /// Fingerprint → tick of its most recent invalidation or
    /// migration. Computations admitted before that tick must not
    /// insert: their graph was replaced or mutated while they ran,
    /// and a late insert would resurrect an entry invalidation
    /// already dropped.
    invalidated_at: FxHashMap<u64, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    coalesced: u64,
    cross_hits: u64,
    invalidated: u64,
    migrated: u64,
    refreshed: u64,
    stale_drops: u64,
}

impl Inner {
    /// Serves `key` from the cache if present: refreshes its LRU
    /// stamp, bumps the counters, and returns a copy flagged
    /// `cached` with zeroed per-request timings (a hit does no
    /// kernel work).
    fn lookup(&mut self, key: &CacheKey, owner: u64, waited: bool) -> Option<Outcome> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        entry.stamp = tick;
        self.hits += 1;
        if waited {
            self.coalesced += 1;
        }
        if entry.owner != owner {
            self.cross_hits += 1;
        }
        let mut outcome = entry.outcome.clone();
        outcome.cached = true;
        outcome.timings = StageTimings::default();
        Some(outcome)
    }

    /// Inserts a freshly computed outcome. `admitted` is the tick at
    /// which the computation was admitted: if the key's fingerprint
    /// was invalidated after that, the result is for content some
    /// handle no longer references and is dropped instead of cached.
    fn insert(&mut self, key: CacheKey, outcome: Outcome, owner: u64, admitted: u64) {
        if self.capacity == 0 {
            return;
        }
        if self
            .invalidated_at
            .get(&key.fingerprint)
            .is_some_and(|&at| at > admitted)
        {
            self.stale_drops += 1;
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.evict_oldest();
        }
        let stamp = self.tick;
        self.entries.insert(
            key,
            Entry {
                outcome,
                stamp,
                owner,
            },
        );
    }

    /// Stamps `fingerprint` as invalidated *now* and bounds the epoch
    /// map (a long-lived server replacing graphs forever must not
    /// grow it without limit; pruned stamps only cost a wasted —
    /// harmless — late insert).
    fn stamp_invalidated(&mut self, fingerprint: u64) {
        self.tick += 1;
        let tick = self.tick;
        self.invalidated_at.insert(fingerprint, tick);
        if self.invalidated_at.len() > 1024 {
            let mut ticks: Vec<u64> = self.invalidated_at.values().copied().collect();
            ticks.sort_unstable();
            let cutoff = ticks[ticks.len() / 2];
            self.invalidated_at.retain(|_, &mut at| at > cutoff);
        }
    }

    fn evict_oldest(&mut self) {
        if let Some(oldest) = self
            .entries
            .iter()
            .min_by_key(|(_, entry)| entry.stamp)
            .map(|(k, _)| k.clone())
        {
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// A bounded, thread-safe LRU memo of kernel outcomes, shared by
/// cloning the `Arc` it is constructed behind. See the
/// module-level docs above for the full contract.
pub struct ResultCache {
    inner: Mutex<Inner>,
    flight_done: Condvar,
}

impl ResultCache {
    /// A cache holding at most `capacity` outcomes (0 disables both
    /// caching and single-flight deduplication).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                capacity,
                ..Inner::default()
            }),
            flight_done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Compute runs unlocked; only a `migrate_fingerprint` decision
        // runs kernel code under the lock, and a panic there at worst
        // drops the entry being decided, so poisoning cannot leave
        // bad state.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks `key` up without computing anything. A hit counts toward
    /// [`CacheStats::hits`]; absence counts nothing (misses are
    /// counted when a computation is admitted).
    pub fn get(&self, key: &CacheKey, owner: u64) -> Option<Outcome> {
        self.lock().lookup(key, owner, false)
    }

    /// [`ResultCache::get`] that never waits: while another thread
    /// holds the cache lock — a leader inserting, a mutation migrating
    /// entries under it — it returns `None` at once, as for absence.
    /// Only a returned hit counts toward [`CacheStats::hits`].
    pub fn try_get(&self, key: &CacheKey, owner: u64) -> Option<Outcome> {
        let mut inner = match self.inner.try_lock() {
            Ok(inner) => inner,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        inner.lookup(key, owner, false)
    }

    /// The single-flight entry point: serves `key` from the cache,
    /// or — if an identical request is already computing — waits for
    /// it, or becomes the leader and runs `compute` itself (exactly
    /// one leader per key at a time). Fresh successful outcomes are
    /// inserted; a leader's error is returned to the leader only, and
    /// one waiter is promoted to retry.
    pub fn run_or_wait<F>(
        &self,
        key: &CacheKey,
        owner: u64,
        compute: F,
    ) -> Result<Outcome, KernelError>
    where
        F: FnOnce() -> Result<Outcome, KernelError>,
    {
        let mut waited = false;
        let (track, admitted) = {
            let mut inner = self.lock();
            loop {
                if let Some(hit) = inner.lookup(key, owner, waited) {
                    return Ok(hit);
                }
                if inner.capacity == 0 || !inner.inflight.contains_key(key) {
                    break;
                }
                inner = self
                    .flight_done
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
                waited = true;
            }
            inner.misses += 1;
            let track = inner.capacity > 0;
            if track {
                inner.inflight.insert(key.clone(), ());
            }
            (track, inner.tick)
        };
        if !track {
            // Caching disabled: every request computes for itself.
            return compute();
        }
        // The guard unparks waiters even if `compute` panics, so a
        // crashed leader cannot strand its followers.
        let _flight = Flight { cache: self, key };
        let result = compute();
        if let Ok(outcome) = &result {
            self.lock()
                .insert(key.clone(), outcome.clone(), owner, admitted);
        }
        result
    }

    /// Drops every cached outcome computed for graphs with content
    /// hash `fingerprint`; returns how many entries were removed.
    /// Called when a graph is replaced under an existing handle or
    /// server-side name.
    pub fn invalidate_fingerprint(&self, fingerprint: u64) -> usize {
        let mut inner = self.lock();
        let before = inner.entries.len();
        inner
            .entries
            .retain(|key, _| key.fingerprint != fingerprint);
        let removed = before - inner.entries.len();
        inner.invalidated += removed as u64;
        // Stamp even when nothing was cached: an in-flight
        // computation for this fingerprint must still discard its
        // late insert.
        inner.stamp_invalidated(fingerprint);
        removed
    }

    /// Re-keys the cached entries of a mutated graph from `old_fp` to
    /// `new_fp` (with the new CSR dimensions), asking `decide` what
    /// to do with each one: [`MigrationDecision::Keep`] moves the
    /// outcome verbatim, [`MigrationDecision::Refresh`] moves an
    /// incrementally maintained replacement, and
    /// [`MigrationDecision::Invalidate`] drops the entry. The old
    /// fingerprint is stamped invalidated either way, so an in-flight
    /// computation against the pre-mutation content cannot resurrect
    /// an entry afterwards.
    ///
    /// `decide` runs with the cache lock held: it must not call back
    /// into this cache (incremental kernel maintenance is fine; cache
    /// lookups are not).
    pub fn migrate_fingerprint<F>(
        &self,
        old_fp: u64,
        new_fp: u64,
        new_vertices: usize,
        new_arcs: usize,
        mut decide: F,
    ) -> MigrationStats
    where
        F: FnMut(&CacheKey, &Outcome) -> MigrationDecision,
    {
        let mut stats = MigrationStats::default();
        let mut inner = self.lock();
        inner.stamp_invalidated(old_fp);
        if old_fp == new_fp {
            return stats;
        }
        let old_keys: Vec<CacheKey> = inner
            .entries
            .keys()
            .filter(|k| k.fingerprint == old_fp)
            .cloned()
            .collect();
        for key in old_keys {
            let entry = inner.entries.remove(&key).expect("key collected above");
            let new_key = CacheKey {
                fingerprint: new_fp,
                vertices: new_vertices,
                arcs: new_arcs,
                kernel: key.kernel,
                params: key.params,
            };
            let moved = match decide(&new_key, &entry.outcome) {
                MigrationDecision::Keep => {
                    stats.survived += 1;
                    Some(entry)
                }
                MigrationDecision::Refresh(outcome) => {
                    stats.refreshed += 1;
                    Some(Entry { outcome, ..entry })
                }
                MigrationDecision::Invalidate => {
                    stats.invalidated += 1;
                    None
                }
            };
            if let Some(entry) = moved {
                // Never clobber an entry already computed for the new
                // content (a racing fresh run beat the migration).
                inner.entries.entry(new_key).or_insert(entry);
            }
        }
        inner.migrated += (stats.survived + stats.refreshed) as u64;
        inner.refreshed += stats.refreshed as u64;
        inner.invalidated += stats.invalidated as u64;
        stats
    }

    /// Resizes the cache; shrinking evicts least-recently-used
    /// entries down to the new capacity.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        while inner.entries.len() > capacity {
            inner.evict_oldest();
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            coalesced: inner.coalesced,
            cross_hits: inner.cross_hits,
            invalidated: inner.invalidated,
            migrated: inner.migrated,
            refreshed: inner.refreshed,
            stale_drops: inner.stale_drops,
            entries: inner.entries.len(),
            capacity: inner.capacity,
        }
    }
}

/// Removes the in-flight marker and wakes waiters when the leader's
/// computation ends, however it ends.
struct Flight<'a> {
    cache: &'a ResultCache,
    key: &'a CacheKey,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        self.cache.lock().inflight.remove(self.key);
        self.cache.flight_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    fn key(fp: u64, params: &str) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            vertices: 10,
            arcs: 20,
            kernel: "test-kernel",
            params: params.to_string(),
        }
    }

    fn outcome(patterns: u64) -> Outcome {
        Outcome::new("test-kernel", patterns)
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let cache = ResultCache::new(2);
        for fp in [1u64, 2, 3] {
            cache
                .run_or_wait(&key(fp, "a"), 1, || Ok(outcome(fp)))
                .unwrap();
        }
        // Capacity 2: inserting the third evicted the first.
        let hit = cache.get(&key(3, "a"), 1).unwrap();
        assert!(hit.cached && hit.patterns == 3);
        assert!(cache.get(&key(1, "a"), 1).is_none());
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
    }

    #[test]
    fn try_get_never_waits_and_counts_only_hits() {
        let cache = Arc::new(ResultCache::new(4));
        cache
            .run_or_wait(&key(1, "a"), 1, || Ok(outcome(3)))
            .unwrap();
        assert!(cache.try_get(&key(2, "a"), 1).is_none());
        assert_eq!(cache.try_get(&key(1, "a"), 2).unwrap().patterns, 3);
        // Hold the lock the way a migration does, through its
        // per-entry decision, while another thread probes.
        let (held, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let holder = {
            let (cache, held, release) = (cache.clone(), held.clone(), release.clone());
            std::thread::spawn(move || {
                cache.migrate_fingerprint(1, 9, 10, 20, |_, _| {
                    held.wait();
                    release.wait();
                    MigrationDecision::Keep
                })
            })
        };
        held.wait();
        assert!(cache.try_get(&key(9, "a"), 1).is_none(), "locked: no wait");
        release.wait();
        holder.join().unwrap();
        assert!(cache.try_get(&key(9, "a"), 1).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn single_flight_runs_identical_requests_once() {
        let cache = Arc::new(ResultCache::new(16));
        let runs = Arc::new(AtomicUsize::new(0));
        let n = 6;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (cache, runs, barrier) = (cache.clone(), runs.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    cache
                        .run_or_wait(&key(7, "a"), i as u64 + 1, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(40));
                            Ok(outcome(9))
                        })
                        .unwrap()
                })
            })
            .collect();
        let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one leader, N-1 followers");
        assert_eq!(outcomes.iter().filter(|o| !o.cached).count(), 1);
        assert!(outcomes.iter().all(|o| o.patterns == 9));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, n - 1);
        assert!(stats.cross_hits >= 1, "owners differ, hits are cross-owner");
    }

    #[test]
    fn leader_error_is_not_cached_and_promotes_a_waiter() {
        let cache = Arc::new(ResultCache::new(16));
        let runs = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(2));
        let spawn = |fail: bool| {
            let (cache, runs, barrier) = (cache.clone(), runs.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                cache.run_or_wait(&key(1, "a"), 1, move || {
                    let order = runs.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    if fail && order == 0 {
                        Err(KernelError::InvalidHandle)
                    } else {
                        Ok(outcome(5))
                    }
                })
            })
        };
        // Whichever thread leads first fails; the other must end up
        // with a real outcome (either it led first, or it was
        // promoted after the leader's error).
        let a = spawn(true);
        let b = spawn(true);
        let results = [a.join().unwrap(), b.join().unwrap()];
        assert!(results.iter().any(|r| r.is_ok()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_fingerprint_drops_only_that_graph() {
        let cache = ResultCache::new(16);
        cache
            .run_or_wait(&key(1, "a"), 1, || Ok(outcome(1)))
            .unwrap();
        cache
            .run_or_wait(&key(1, "b"), 1, || Ok(outcome(2)))
            .unwrap();
        cache
            .run_or_wait(&key(2, "a"), 1, || Ok(outcome(3)))
            .unwrap();
        assert_eq!(cache.invalidate_fingerprint(1), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(2, "a"), 1).is_some());
        assert_eq!(cache.stats().invalidated, 2);
    }

    #[test]
    fn invalidation_mid_flight_discards_the_late_insert() {
        // The replace-mid-run race: a computation admitted for
        // fingerprint 1 is still running when the graph is replaced
        // and fp 1 invalidated. Its insert must be discarded — the
        // cache promised "after invalidate returns, fp-1 entries do
        // not reappear unless recomputed".
        let cache = Arc::new(ResultCache::new(16));
        let started = Arc::new(Barrier::new(2));
        let cache2 = cache.clone();
        let started2 = started.clone();
        let worker = std::thread::spawn(move || {
            cache2.run_or_wait(&key(1, "a"), 1, || {
                started2.wait();
                // Hold the computation open long enough for the main
                // thread to invalidate.
                std::thread::sleep(Duration::from_millis(60));
                Ok(outcome(5))
            })
        });
        started.wait();
        std::thread::sleep(Duration::from_millis(10));
        cache.invalidate_fingerprint(1);
        let result = worker.join().unwrap().unwrap();
        assert_eq!(result.patterns, 5, "the caller still gets its result");
        assert!(
            cache.get(&key(1, "a"), 1).is_none(),
            "a late insert must not resurrect an invalidated fingerprint"
        );
        assert_eq!(cache.stats().stale_drops, 1);
        // A computation admitted *after* the invalidation caches
        // normally.
        cache
            .run_or_wait(&key(1, "a"), 1, || Ok(outcome(6)))
            .unwrap();
        assert_eq!(cache.get(&key(1, "a"), 1).unwrap().patterns, 6);
    }

    #[test]
    fn migrate_fingerprint_moves_refreshes_and_drops_per_decision() {
        let cache = ResultCache::new(16);
        let mk = |kernel: &'static str, fp: u64, patterns: u64| {
            let k = CacheKey {
                fingerprint: fp,
                vertices: 10,
                arcs: 20,
                kernel,
                params: "".to_string(),
            };
            cache.run_or_wait(&k, 1, || Ok(Outcome::new(kernel, patterns)))
        };
        mk("keep-me", 1, 10).unwrap();
        mk("refresh-me", 1, 20).unwrap();
        mk("drop-me", 1, 30).unwrap();
        mk("other-graph", 2, 40).unwrap();

        let stats = cache.migrate_fingerprint(1, 9, 11, 24, |key, prev| match key.kernel {
            "keep-me" => MigrationDecision::Keep,
            "refresh-me" => {
                MigrationDecision::Refresh(Outcome::new("refresh-me", prev.patterns + 1))
            }
            _ => MigrationDecision::Invalidate,
        });
        assert_eq!(
            stats,
            MigrationStats {
                survived: 1,
                refreshed: 1,
                invalidated: 1
            }
        );
        let at = |kernel: &'static str, fp: u64| CacheKey {
            fingerprint: fp,
            vertices: if fp == 9 { 11 } else { 10 },
            arcs: if fp == 9 { 24 } else { 20 },
            kernel,
            params: "".to_string(),
        };
        assert_eq!(cache.get(&at("keep-me", 9), 1).unwrap().patterns, 10);
        assert_eq!(cache.get(&at("refresh-me", 9), 1).unwrap().patterns, 21);
        assert!(cache.get(&at("drop-me", 9), 1).is_none());
        assert!(cache.get(&at("keep-me", 1), 1).is_none(), "old key gone");
        assert!(
            cache.get(&at("other-graph", 2), 1).is_some(),
            "unrelated fingerprints untouched"
        );
        let cs = cache.stats();
        assert_eq!((cs.migrated, cs.refreshed, cs.invalidated), (2, 1, 1));
    }

    #[test]
    fn capacity_zero_disables_caching_but_still_computes() {
        let cache = ResultCache::new(0);
        let first = cache
            .run_or_wait(&key(1, "a"), 1, || Ok(outcome(4)))
            .unwrap();
        let second = cache
            .run_or_wait(&key(1, "a"), 1, || Ok(outcome(4)))
            .unwrap();
        assert!(!first.cached && !second.cached);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn set_capacity_shrinks_lru_first() {
        let cache = ResultCache::new(8);
        for fp in 1..=4u64 {
            cache
                .run_or_wait(&key(fp, "a"), 1, || Ok(outcome(fp)))
                .unwrap();
        }
        // Touch fp=1 so it is the most recently used.
        cache.get(&key(1, "a"), 1).unwrap();
        cache.set_capacity(2);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, "a"), 1).is_some());
        assert!(cache.get(&key(4, "a"), 1).is_some());
        assert!(cache.get(&key(2, "a"), 1).is_none());
    }
}
