//! The work-stealing scheduler behind the `rayon` shim.
//!
//! One persistent [`Registry`] exists per pool width, created lazily
//! on first use and reused for the rest of the process ([`ThreadPool`]
//! handles are cheap views onto the shared registry, so repeated
//! `ThreadPoolBuilder::build` calls — e.g. a scaling sweep — do not
//! leak threads). Each worker owns a lock-free Chase–Lev deque: the
//! owner pushes and pops at the bottom (LIFO, for locality down a
//! `join` spine) with plain stores and one fence, thieves take from
//! the top (FIFO, stealing the largest remaining subtrees first) with
//! a CAS. The mutex-guarded deques this shim used before PR 6 cost
//! two lock round-trips per `join` even when nothing was ever stolen;
//! the owner-side protocol below reduces the uncontended push+pop
//! pair to a handful of atomic ops.
//!
//! [`join`] is the one scheduling primitive: the caller publishes the
//! second closure on its own deque, runs the first inline, then either
//! pops the second back (nobody wanted it) or — if it was stolen —
//! helps with other queued work until the thief's latch flips. All
//! parallel iterator combinators reduce to recursive range splits over
//! `join`, so any imbalance in one half of a split is rebalanced by
//! idle workers stealing from the other.
//!
//! # Sleep protocol (no lost wakeups)
//!
//! Workers with nothing to do park on a condvar. The publish side
//! never takes the sleep lock unless someone is actually parked, so
//! the protocol is the classic Dekker / store-buffer pattern and is
//! made airtight with explicit `SeqCst` fences:
//!
//! * **Publisher**: make the job visible (deque slot + bottom store,
//!   or injection queue) → `fence(SeqCst)` → load `sleepers`. If the
//!   load sees zero, the parker's increment is later in the SC order,
//!   so the parker's re-check is guaranteed to see the job. If it
//!   sees a sleeper, the publisher notifies *under the sleep lock*,
//!   which orders it against the parker's lock/wait handoff.
//! * **Parker**: increment `sleepers` (`SeqCst` RMW) → `fence(SeqCst)`
//!   → re-check for work → take the sleep lock → re-check again →
//!   `wait_timeout`. Either the publisher's job is visible to one of
//!   the re-checks, or the publisher saw the raised count and its
//!   notification reaches the waiter through the lock.
//!
//! Job pushes wake **one** sleeper (an awake worker never re-parks
//! while work is visible, so one waker is enough and a full broadcast
//! per push would stampede the pool); latch sets wake **all** sleepers
//! (a `notify_one` could land on an idle worker that sees no *work*
//! and re-parks, stranding the join waiter whose latch flipped). The
//! park timeout remains as a pure backstop and is not load-bearing;
//! `ThreadPool::park_count` / `notify_count` expose the traffic so
//! regressions are observable.
//!
//! # Safety model
//!
//! Jobs waiting in a deque are type-erased pointers to [`StackJob`]s
//! living on the stack of the thread that called `join` (or
//! [`in_worker`]). That frame never unwinds — by return *or* by
//! panic — until the job's latch is set or the job has been reclaimed
//! unexecuted, which keeps every published pointer valid for exactly
//! as long as another thread can observe it. The latch store is the
//! final access a thief performs on the job. Deque slots hold a
//! single pointer word (the job's [`JobHeader`] address, placed first
//! in the `repr(C)` job layout), so slot reads and writes are single
//! atomic accesses and can never tear.

use std::any::Any;
use std::cell::{RefCell, UnsafeCell};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{
    fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// How long a parked worker sleeps before rechecking for work on its
/// own. A pure backstop: the fenced publish/park protocol (see the
/// module docs) means no wakeup is ever lost, so this never gates
/// latency — it only bounds the damage if the analysis were wrong.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

// ---------------------------------------------------------------- jobs

/// First field of every published job (`repr(C)`), so a single
/// pointer to it both identifies the job and carries its vtable.
/// Deque slots store exactly this pointer — one word, never torn.
pub(crate) struct JobHeader {
    execute_fn: unsafe fn(*const JobHeader),
}

/// A type-erased pointer to a job published in a deque.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobRef(*const JobHeader);

// SAFETY: a `JobRef` is only ever dereferenced via `execute`, and the
// owning stack frame keeps the pointee alive until the job's latch is
// set (see the module-level safety model).
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    /// The job must stay valid until its latch is set or the ref is
    /// reclaimed from the deque without executing; called at most
    /// once per published ref.
    unsafe fn execute(self) {
        unsafe { ((*self.0).execute_fn)(self.0) }
    }

    fn as_raw(self) -> *mut JobHeader {
        self.0.cast_mut()
    }

    fn from_raw(raw: *mut JobHeader) -> Self {
        JobRef(raw)
    }
}

// -------------------------------------------------------------- latches

trait Latch {
    /// Marks the job complete. Must be the *last* access to the job's
    /// memory by the executing thread.
    fn set(&self);
}

/// Latch polled by a worker that stays busy while waiting. Once the
/// waiter runs out of work it parks on the registry's condvar, so
/// `set` wakes sleepers through the registry — read *before* the
/// `done` store, because the store releases the job's memory to the
/// owner while the registry outlives every job.
struct SpinLatch<'r> {
    done: AtomicBool,
    registry: &'r Registry,
}

impl<'r> SpinLatch<'r> {
    fn new(registry: &'r Registry) -> Self {
        SpinLatch {
            done: AtomicBool::new(false),
            registry,
        }
    }

    fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

impl Latch for SpinLatch<'_> {
    fn set(&self) {
        let registry: *const Registry = self.registry;
        self.done.store(true, Ordering::Release);
        // SAFETY: `self` may already be gone (the owner observed the
        // store and unwound its frame); the registry is persistent.
        // A latch set must reach the one thread waiting on *this*
        // latch, so it broadcasts (see the module docs).
        unsafe { (*registry).notify_all_sleepers() };
    }
}

/// Latch an external (non-worker) thread blocks on.
struct LockLatch {
    done: Mutex<bool>,
    cond: Condvar,
}

impl LockLatch {
    fn new() -> Self {
        LockLatch {
            done: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self
                .cond
                .wait(done)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

impl Latch for LockLatch {
    fn set(&self) {
        // The guard must be held across the notify: if the mutex were
        // released first, the waiter could wake spuriously, observe
        // `done`, and pop the stack frame holding this latch before
        // `notify_all` touches the freed condvar.
        let mut done = lock(&self.done);
        *done = true;
        self.cond.notify_all();
    }
}

enum JobResult<R> {
    None,
    Ok(R),
    Panicked(Box<dyn Any + Send>),
}

/// A job allocated on the publishing thread's stack. `repr(C)` with
/// the header first, so the job's address *is* its header's address
/// and one pointer word round-trips through the deque.
#[repr(C)]
struct StackJob<L: Latch, F, R> {
    header: JobHeader,
    latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

impl<L: Latch, F, R> StackJob<L, F, R>
where
    F: FnOnce() -> R,
{
    fn new(latch: L, func: F) -> Self {
        StackJob {
            header: JobHeader {
                execute_fn: execute_stack_job::<L, F, R>,
            },
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::None),
        }
    }

    /// # Safety
    /// See [`JobRef::execute`].
    unsafe fn as_job_ref(&self) -> JobRef {
        // Whole-object pointer cast (not `&self.header`) so the ref's
        // provenance covers every field `execute_stack_job` touches.
        JobRef(std::ptr::from_ref(self).cast())
    }

    /// Takes the closure back out, for inline execution after the
    /// job was reclaimed unexecuted.
    fn take_func(&self) -> F {
        unsafe {
            (*self.func.get())
                .take()
                .expect("job function already taken")
        }
    }

    /// Consumes the completed job, yielding its result or resuming
    /// the panic the job captured.
    fn into_result(mut self) -> R {
        match std::mem::replace(self.result.get_mut(), JobResult::None) {
            JobResult::Ok(r) => r,
            JobResult::Panicked(payload) => panic::resume_unwind(payload),
            JobResult::None => unreachable!("latch set without a result"),
        }
    }
}

/// # Safety
/// `header` must be the address of a live `StackJob<L, F, R>` (the
/// header is its first field); called at most once per job.
unsafe fn execute_stack_job<L: Latch, F, R>(header: *const JobHeader)
where
    F: FnOnce() -> R,
{
    let this = unsafe { &*header.cast::<StackJob<L, F, R>>() };
    let func = this.take_func();
    let result = match panic::catch_unwind(AssertUnwindSafe(func)) {
        Ok(r) => JobResult::Ok(r),
        Err(payload) => JobResult::Panicked(payload),
    };
    unsafe { *this.result.get() = result };
    // The latch store is the final touch: the instant it lands,
    // the owning stack frame is free to go away.
    this.latch.set();
}

// ---------------------------------------------------------------- deque

/// Pending jobs per worker before `join` falls back to running the
/// second closure inline (no heap growth: a full deque just means a
/// join spine deeper than anyone can steal through, so sequential
/// execution is the right degradation).
const DEQUE_CAP: usize = 1 << 10;

/// Pads the hot atomics to their own cache lines so owner-side
/// `bottom` traffic does not false-share with thief-side `top` CAS.
#[repr(align(64))]
struct CachePadded<T>(T);

enum Steal {
    /// The victim's deque had nothing to take.
    Empty,
    /// Lost a race with the owner or another thief; worth re-trying.
    Retry,
    Job(JobRef),
}

/// Fixed-capacity Chase–Lev work-stealing deque (Le et al.'s C11
/// formulation, minus the growth path — see [`DEQUE_CAP`]). The owner
/// pushes/takes at `bottom`; thieves CAS `top`. Slots are single
/// `AtomicPtr` words, so no access can tear.
struct Deque {
    bottom: CachePadded<AtomicIsize>,
    top: CachePadded<AtomicIsize>,
    slots: Box<[AtomicPtr<JobHeader>]>,
}

impl Deque {
    fn new() -> Self {
        Deque {
            bottom: CachePadded(AtomicIsize::new(0)),
            top: CachePadded(AtomicIsize::new(0)),
            slots: (0..DEQUE_CAP)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }

    fn slot(&self, index: isize) -> &AtomicPtr<JobHeader> {
        &self.slots[(index as usize) & (DEQUE_CAP - 1)]
    }

    /// Owner-side push at the bottom. Returns `false` when full (the
    /// caller runs the job inline instead). The capacity check
    /// guarantees the slot being written cannot be concurrently read
    /// by a thief: a thief commits to slot `t` only by a successful
    /// CAS on `top`, and while `top == t` the owner never reaches
    /// index `t + DEQUE_CAP`.
    fn push(&self, job: JobRef) -> bool {
        let b = self.bottom.0.load(Ordering::Relaxed);
        let t = self.top.0.load(Ordering::Acquire);
        if b.wrapping_sub(t) >= DEQUE_CAP as isize {
            return false;
        }
        self.slot(b).store(job.as_raw(), Ordering::Relaxed);
        // Publish the slot before the new bottom becomes visible to
        // thieves (pairs with the SeqCst fence in `steal`).
        fence(Ordering::Release);
        self.bottom.0.store(b.wrapping_add(1), Ordering::Relaxed);
        true
    }

    /// Owner-side take from the bottom (newest job first). Only the
    /// last remaining job is raced with thieves, resolved by a CAS on
    /// `top`.
    fn take(&self) -> Option<JobRef> {
        let b = self.bottom.0.load(Ordering::Relaxed).wrapping_sub(1);
        self.bottom.0.store(b, Ordering::Relaxed);
        // Order the bottom store before the top load (store-buffer
        // pattern against concurrent `steal`).
        fence(Ordering::SeqCst);
        let t = self.top.0.load(Ordering::Relaxed);
        if t <= b {
            let raw = self.slot(b).load(Ordering::Relaxed);
            if t == b {
                // Last element: win it from any concurrent thief.
                let won = self
                    .top
                    .0
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.0.store(b.wrapping_add(1), Ordering::Relaxed);
                won.then(|| JobRef::from_raw(raw))
            } else {
                Some(JobRef::from_raw(raw))
            }
        } else {
            // Already empty; restore bottom.
            self.bottom.0.store(b.wrapping_add(1), Ordering::Relaxed);
            None
        }
    }

    /// Thief-side steal from the top (oldest job first).
    fn steal(&self) -> Steal {
        let t = self.top.0.load(Ordering::Acquire);
        // Order the top load before the bottom load (pairs with the
        // fence in `take`).
        fence(Ordering::SeqCst);
        let b = self.bottom.0.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let raw = self.slot(t).load(Ordering::Relaxed);
        // Commit: while `top == t`, the owner cannot have overwritten
        // slot `t` (capacity check in `push`), so `raw` is intact.
        if self
            .top
            .0
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Job(JobRef::from_raw(raw))
        } else {
            Steal::Retry
        }
    }

    /// Racy emptiness probe for the park re-check; precise enough
    /// because the parker fences before calling it (module docs). The
    /// owner's hunger probe reads it too, where a stale `top` only
    /// delays a split by one poll.
    fn is_visibly_nonempty(&self) -> bool {
        let t = self.top.0.load(Ordering::Acquire);
        let b = self.bottom.0.load(Ordering::Acquire);
        b > t
    }
}

// ------------------------------------------------------------- registry

/// The shared state of one pool width: per-worker deques, the
/// injection queue for external submitters, and the sleep machinery.
pub(crate) struct Registry {
    width: usize,
    deques: Vec<Deque>,
    injected: Mutex<VecDeque<JobRef>>,
    /// Mirror of `injected.len()`, maintained under the queue lock,
    /// so the hot paths (`find_work` misses, park re-checks) never
    /// touch the injection mutex.
    injected_count: AtomicUsize,
    steals: AtomicU64,
    parks: AtomicU64,
    notifies: AtomicU64,
    /// Number of parked (or about-to-park) workers. Publications
    /// fence, then read this, and skip the sleep lock entirely when
    /// nobody is parked — see the module-level sleep protocol.
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Jobs catch panics before they can poison scheduler state.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Registry {
    fn new(width: usize) -> Arc<Registry> {
        let registry = Arc::new(Registry {
            width,
            deques: (0..width).map(|_| Deque::new()).collect(),
            injected: Mutex::new(VecDeque::new()),
            injected_count: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            notifies: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        });
        if width >= 2 {
            for index in 0..width {
                let registry = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("gms-rayon-{width}-{index}"))
                    .stack_size(8 * 1024 * 1024)
                    .spawn(move || worker_main(registry, index))
                    .expect("spawn worker thread");
            }
        }
        registry
    }

    /// Cumulative cross-worker steals since the registry was created.
    pub(crate) fn steal_count(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Cumulative condvar parks (timed waits actually entered).
    pub(crate) fn park_count(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Cumulative condvar notifications issued (one per publish or
    /// latch set that found a sleeper; publishes that found every
    /// worker awake are not counted — they skip the condvar).
    pub(crate) fn notify_count(&self) -> u64 {
        self.notifies.load(Ordering::Relaxed)
    }

    /// Publisher half of the sleep protocol: call *after* the job is
    /// visible. Wakes at most one sleeper — enough, because an awake
    /// worker never parks while work is visible.
    fn notify_one_sleeper(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = lock(&self.sleep);
            self.notifies.fetch_add(1, Ordering::Relaxed);
            self.wake.notify_one();
        }
    }

    /// Publisher half for latch sets: must reach the specific thread
    /// waiting on the latch, so it broadcasts.
    fn notify_all_sleepers(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = lock(&self.sleep);
            self.notifies.fetch_add(1, Ordering::Relaxed);
            self.wake.notify_all();
        }
    }

    /// Publishes a job on worker `index`'s own deque. Returns `false`
    /// (without publishing) when the deque is full.
    #[must_use]
    fn push_local(&self, index: usize, job: JobRef) -> bool {
        if !self.deques[index].push(job) {
            return false;
        }
        self.notify_one_sleeper();
        true
    }

    fn inject(&self, job: JobRef) {
        {
            let mut queue = lock(&self.injected);
            queue.push_back(job);
            self.injected_count.store(queue.len(), Ordering::Release);
        }
        self.notify_one_sleeper();
    }

    fn pop_injected(&self) -> Option<JobRef> {
        if self.injected_count.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut queue = lock(&self.injected);
        let job = queue.pop_front();
        self.injected_count.store(queue.len(), Ordering::Release);
        job
    }

    /// Pops the newest job from the caller's own deque.
    fn take_local(&self, index: usize) -> Option<JobRef> {
        self.deques[index].take()
    }

    /// Steals from siblings (round-robin, oldest-first per victim),
    /// then drains the injection queue. Re-runs the sweep while any
    /// victim reported a CAS race, so transient contention is not
    /// mistaken for exhaustion.
    fn steal_work(&self, index: usize) -> Option<JobRef> {
        loop {
            let mut contended = false;
            for offset in 1..self.width {
                let victim = (index + offset) % self.width;
                match self.deques[victim].steal() {
                    Steal::Job(job) => {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(job);
                    }
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if let Some(job) = self.pop_injected() {
                return Some(job);
            }
            if !contended {
                return None;
            }
        }
    }

    /// One scheduling round for worker `index`: own deque LIFO, then
    /// steal FIFO from siblings, then the injection queue.
    fn find_work(&self, index: usize) -> Option<JobRef> {
        self.take_local(index).or_else(|| self.steal_work(index))
    }

    /// Lock-free probe used by park re-checks.
    fn has_visible_work(&self) -> bool {
        self.injected_count.load(Ordering::Acquire) > 0
            || self.deques.iter().any(Deque::is_visibly_nonempty)
    }

    /// Parks the calling thread until work may be available.
    /// `still_idle` is re-checked after the sleeper count is raised
    /// (with a full fence between — the parker half of the sleep
    /// protocol) and once more under the sleep lock, so no publish
    /// can fall between the check and the wait.
    fn park_while(&self, still_idle: impl Fn() -> bool) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if still_idle() {
            let guard = lock(&self.sleep);
            if still_idle() {
                self.parks.fetch_add(1, Ordering::Relaxed);
                let _ = self
                    .wake
                    .wait_timeout(guard, PARK_TIMEOUT)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn park(&self) {
        self.park_while(|| !self.has_visible_work());
    }

    fn park_waiter(&self, latch: &SpinLatch<'_>) {
        self.park_while(|| !latch.probe() && !self.has_visible_work());
    }
}

fn worker_main(registry: Arc<Registry>, index: usize) {
    WORKER.with(|cell| {
        *cell.borrow_mut() = Some(WorkerCtx {
            registry: Arc::clone(&registry),
            index,
        })
    });
    crate::set_inherited_width(registry.width);
    loop {
        match registry.find_work(index) {
            // SAFETY: a published ref stays valid until executed.
            Some(job) => unsafe { job.execute() },
            None => registry.park(),
        }
    }
}

// --------------------------------------------------- thread-local state

#[derive(Clone)]
struct WorkerCtx {
    registry: Arc<Registry>,
    index: usize,
}

thread_local! {
    static WORKER: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

fn current_worker() -> Option<WorkerCtx> {
    WORKER.with(|cell| cell.borrow().clone())
}

/// Whether the calling worker's deque holds jobs no one has taken
/// yet; `None` off-pool. Reads the deque in place (no `Arc` clone),
/// so a kernel can poll it once per search node.
pub fn current_thread_has_pending_tasks() -> Option<bool> {
    WORKER.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|ctx| ctx.registry.deques[ctx.index].is_visibly_nonempty())
    })
}

// ------------------------------------------------- registry acquisition

static REGISTRIES: OnceLock<Mutex<HashMap<usize, Arc<Registry>>>> = OnceLock::new();

/// The persistent registry for `width`, created (and its workers
/// spawned) on first request.
pub(crate) fn registry_for(width: usize) -> Arc<Registry> {
    let registries = REGISTRIES.get_or_init(Default::default);
    Arc::clone(
        lock(registries)
            .entry(width)
            .or_insert_with(|| Registry::new(width)),
    )
}

/// Pool width used outside any installed pool: `RAYON_NUM_THREADS`
/// when set to a positive integer, the hardware width otherwise.
pub(crate) fn default_width() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|value| value.parse::<usize>().ok())
            .filter(|&width| width > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
    })
}

/// Runs `op` inside a worker of `registry`, blocking the calling
/// thread until it completes. Entry point for parallel work submitted
/// from outside the pool.
pub(crate) fn in_worker<OP, R>(registry: &Arc<Registry>, op: OP) -> R
where
    OP: FnOnce() -> R + Send,
    R: Send,
{
    if registry.width <= 1 {
        return op();
    }
    let job = StackJob::new(LockLatch::new(), op);
    // SAFETY: `job` lives on this stack frame and we block on its
    // latch below before the frame can unwind.
    registry.inject(unsafe { job.as_job_ref() });
    job.latch.wait();
    job.into_result()
}

// ----------------------------------------------------------------- join

/// Runs `oper_a` and `oper_b`, potentially in parallel, returning both
/// results. The second closure is published for stealing while the
/// first runs on the calling thread; if nobody stole it, it runs
/// inline (so a 1-thread pool degrades to exactly `(a(), b())`, in
/// that order). Panics from either closure propagate after both
/// operations have been fully resolved.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match current_worker() {
        Some(ctx) => join_on_worker(&ctx, oper_a, oper_b),
        None => {
            let width = crate::current_num_threads();
            if width <= 1 {
                let ra = oper_a();
                let rb = oper_b();
                return (ra, rb);
            }
            let registry = registry_for(width);
            in_worker(&registry, move || join(oper_a, oper_b))
        }
    }
}

fn join_on_worker<A, B, RA, RB>(ctx: &WorkerCtx, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let registry = &ctx.registry;
    let job_b = StackJob::new(SpinLatch::new(registry), oper_b);
    // SAFETY: `job_b` lives on this frame; every path below either
    // reclaims it from the deque unexecuted or waits for its latch
    // before the frame can unwind (including the panic path).
    let job_b_ref = unsafe { job_b.as_job_ref() };
    if !registry.push_local(ctx.index, job_b_ref) {
        // Deque full: a join spine this deep has ample parallelism
        // published already, so degrade to sequential execution.
        let ra = oper_a();
        let rb = job_b.take_func()();
        return (ra, rb);
    }

    let result_a = panic::catch_unwind(AssertUnwindSafe(oper_a));

    // Resolve `job_b`: pop our own deque — newest-first, so the first
    // pop is `job_b` unless a thief got it. A different job here can
    // only belong to an outer `join` frame on this same stack (its
    // publication is below ours), which is always safe to run inline;
    // the outer frame will then find its latch set. When our own
    // deque is dry, help with stolen/injected work (child stealing —
    // the waiting worker keeps mining); after a few fruitless rounds
    // park on the registry condvar, woken by the thief's latch set.
    let mut reclaimed = false;
    let mut misses = 0u32;
    while !job_b.latch.probe() {
        match registry.take_local(ctx.index) {
            Some(job) if job == job_b_ref => {
                reclaimed = true;
                break;
            }
            // SAFETY: published refs stay valid until executed.
            Some(job) => unsafe { job.execute() },
            None => match registry.steal_work(ctx.index) {
                Some(job) => {
                    misses = 0;
                    // SAFETY: as above.
                    unsafe { job.execute() }
                }
                None => {
                    misses += 1;
                    if misses < 8 {
                        std::thread::yield_now();
                    } else {
                        registry.park_waiter(&job_b.latch);
                    }
                }
            },
        }
    }
    let ra = match result_a {
        Ok(ra) => ra,
        // `job_b` is resolved (reclaimed or completed): safe to unwind.
        Err(payload) => panic::resume_unwind(payload),
    };
    let rb = if reclaimed {
        job_b.take_func()()
    } else {
        job_b.into_result()
    };
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    // Widths 5 and 6 are reserved for the tests in this module so
    // concurrent tests at other widths cannot perturb the timing.

    #[test]
    fn park_publish_race_has_no_lost_wakeups() {
        // Every round injects one tiny job into a pool whose workers
        // are all parked: the round first waits until every worker
        // has raised the sleeper count (a worker can be slow to go
        // idle on a loaded machine, and a pool that never parked
        // would exercise nothing). Under the fenced publish/park
        // protocol each round completes in microseconds; a lost
        // wakeup strands the round until the 100ms park-timeout
        // backstop. The budget below tolerates a heavily loaded
        // machine but fails if even a small fraction of rounds fall
        // back to the timeout, which is exactly what happens if the
        // publisher's fence or the parker's re-check ordering is
        // removed.
        let registry = registry_for(5);
        const ROUNDS: u64 = 200;
        let mut elapsed = Duration::ZERO;
        for i in 0..ROUNDS {
            let idle_by = Instant::now() + Duration::from_secs(10);
            while registry.sleepers.load(Ordering::SeqCst) < registry.width {
                assert!(
                    Instant::now() < idle_by,
                    "round {i}: workers never went idle"
                );
                std::thread::yield_now();
            }
            let start = Instant::now();
            let got = in_worker(&registry, || std::hint::black_box(i) + 1);
            elapsed += start.elapsed();
            assert_eq!(got, i + 1);
        }
        assert!(
            elapsed < Duration::from_millis(ROUNDS * 50),
            "{ROUNDS} inject/park round-trips took {elapsed:?}: \
             wakeups are being lost to the park timeout"
        );
        assert!(
            registry.park_count() > 0,
            "workers never parked: the stress test exercised nothing"
        );
    }

    #[test]
    fn stolen_join_latch_wakes_parked_waiter_promptly() {
        // Both join arms sleep, so the published arm is stolen by a
        // woken worker while the owner sleeps in arm `a`; the owner
        // then runs out of work and parks, and the thief's latch set
        // must wake it immediately. Rounds cost ~2× the sleep when
        // wakeups work and ~100ms (the park timeout) when the latch
        // broadcast is lost.
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(6)
            .build()
            .unwrap();
        const ROUNDS: u64 = 50;
        let start = Instant::now();
        for _ in 0..ROUNDS {
            pool.install(|| {
                join(
                    || std::thread::sleep(Duration::from_millis(2)),
                    || std::thread::sleep(Duration::from_millis(2)),
                )
            });
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(ROUNDS * 50),
            "{ROUNDS} stolen-join rounds took {elapsed:?}: \
             latch sets are not waking parked waiters"
        );
    }

    #[test]
    fn pending_tasks_probe_tracks_push_take_and_steal() {
        // `current_thread_has_pending_tasks` is this probe on the
        // caller's own deque. Job pointers are synthesized, never
        // executed.
        let deque = Deque::new();
        let fake = JobRef::from_raw(std::ptr::dangling_mut());
        assert!(!deque.is_visibly_nonempty());
        assert!(deque.push(fake));
        assert!(deque.push(fake));
        assert!(deque.is_visibly_nonempty());
        assert!(deque.take().is_some());
        assert!(deque.is_visibly_nonempty(), "one job still pending");
        assert!(deque.take().is_some());
        assert!(!deque.is_visibly_nonempty());
        assert!(deque.push(fake));
        assert!(matches!(deque.steal(), Steal::Job(_)));
        assert!(!deque.is_visibly_nonempty(), "a stolen job is taken");
        assert!(deque.take().is_none());
        assert!(
            !deque.is_visibly_nonempty(),
            "a failed take restores bottom"
        );
    }

    #[test]
    fn deque_take_and_steal_agree_on_exactly_once() {
        // Direct deque-level check: one owner pushing/taking against
        // one thief stealing must hand out each job exactly once.
        // Job pointers are synthesized (never executed), so plain
        // integers cast to pointers are fine here.
        let deque = Arc::new(Deque::new());
        let total = 20_000usize;
        let seen = Arc::new(AtomicUsize::new(0));
        let thief = {
            let deque = Arc::clone(&deque);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut got = 0u64;
                loop {
                    match deque.steal() {
                        Steal::Job(_) => {
                            got += 1;
                            seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if seen.load(Ordering::Relaxed) >= total {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                got
            })
        };
        let mut owner_got = 0u64;
        for i in 0..total {
            let fake = JobRef::from_raw((8 * (i + 1)) as *mut JobHeader);
            while !deque.push(fake) {
                if deque.take().is_some() {
                    owner_got += 1;
                    seen.fetch_add(1, Ordering::Relaxed);
                }
            }
            if i % 3 == 0 && deque.take().is_some() {
                owner_got += 1;
                seen.fetch_add(1, Ordering::Relaxed);
            }
        }
        while deque.take().is_some() {
            owner_got += 1;
            seen.fetch_add(1, Ordering::Relaxed);
        }
        let thief_got = thief.join().expect("thief thread panicked");
        assert_eq!(
            owner_got + thief_got,
            total as u64,
            "every pushed job must be handed out exactly once"
        );
    }
}
