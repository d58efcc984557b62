//! Work that moves to another worker only on demand: the one splitting
//! rule of the parallel mining kernels.
//!
//! A worker walks its share of a range in order and hands the back half
//! of what remains to `join` only when it is [`hungry`]: everything it
//! published before has been taken (its deque is empty) and a heartbeat
//! has passed since its last [`hand_off`]. This is lazy binary splitting
//! (Tzannes et al., PPoPP 2010) gated by a heartbeat (Acar et al.,
//! "Heartbeat Scheduling", PLDI 2018). Off-pool and on a 1-wide pool
//! nothing splits, so a 1-wide run is the sequential kernel.
//!
//! [`walk`] is the range walker; a kernel that splits deeper than its
//! item range (Bron–Kerbosch's pivot branches) calls [`hungry`] and
//! [`hand_off`] itself. The heartbeat is a parameter so that a crate's
//! unit tests can pass zero and split at every chance.

use std::cell::Cell;
use std::ops::{AddAssign, Range};
use std::time::{Duration, Instant};

/// How long a worker keeps its work to itself after it last handed
/// some off. On 2 vCPUs at width 2 (release, medians of 5, two rounds)
/// `bk` took 1.44–1.45 / 1.48–1.54 / 1.66–1.80 ms on `er-6k` at 10 /
/// 50 / 200 µs and 64–65 / 69–70 / 130–136 ms on `gnp(600, 0.25, 7)`;
/// on `mid-kron` 50 µs read 1.00 s in both rounds, 10 µs 1.01 and
/// 1.12 s.
pub const HEARTBEAT: Duration = Duration::from_micros(50);

thread_local! {
    /// When this worker last handed work off.
    static LAST_HAND_OFF: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Whether the calling worker should hand work to an idle one: all it
/// published before has been taken and `heartbeat` has passed since its
/// last [`hand_off`]. Never off-pool.
pub fn hungry(heartbeat: Duration) -> bool {
    rayon::current_thread_has_pending_tasks() == Some(false)
        && LAST_HAND_OFF.with(|last| last.get().is_none_or(|at| at.elapsed() >= heartbeat))
}

/// `rayon::join`, stamped as this worker's latest hand-off.
pub fn hand_off<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    LAST_HAND_OFF.with(|last| last.set(Some(Instant::now())));
    rayon::join(a, b)
}

/// Walks `items` in order inside the current pool and adds up what
/// `step(state, item, last)` returns for each, `last` telling whether
/// the item ends its segment.
///
/// A segment runs inside `scoped`, which lends it its state (a worker's
/// scratch buffers, a matcher) for as long as it walks. Whenever the
/// worker is [`hungry`] before an item that is not its segment's last,
/// what remains becomes two segments: the front half walks here, the
/// back half is handed to `join`.
pub fn walk<W, T: Default + AddAssign + Send>(
    items: Range<usize>,
    heartbeat: Duration,
    scoped: &(impl Fn(&mut dyn FnMut(&mut W)) + Sync),
    step: &(impl Fn(&mut W, usize, bool) -> T + Sync),
) -> T {
    let run = || segment(items, heartbeat, scoped, step);
    match rayon::current_thread_has_pending_tasks() {
        Some(_) => run(),
        // Off-pool, one `join` enters it.
        None => rayon::join(|| (), run).1,
    }
}

fn segment<W, T: Default + AddAssign + Send>(
    items: Range<usize>,
    heartbeat: Duration,
    scoped: &(impl Fn(&mut dyn FnMut(&mut W)) + Sync),
    step: &(impl Fn(&mut W, usize, bool) -> T + Sync),
) -> T {
    let mut out = T::default();
    scoped(&mut |state| {
        for i in items.clone() {
            if items.end - i > 1 && hungry(heartbeat) {
                let mid = i + (items.end - i) / 2;
                let (front, back) = hand_off(
                    || segment(i..mid, heartbeat, scoped, step),
                    || segment(mid..items.end, heartbeat, scoped, step),
                );
                out += front;
                out += back;
                break;
            }
            out += step(state, i, i + 1 == items.end);
        }
    });
    out
}
