//! Cooperative cancellation for long-running kernels.
//!
//! A [`CancelToken`] is a cheap, clonable handle the serving layer
//! threads into kernel hot loops so an expired request stops burning
//! CPU mid-search instead of computing an answer nobody is waiting
//! for. Cancellation is *cooperative*: kernels poll the token at
//! recursion entries and task boundaries and unwind with a partial
//! (discarded) result when it fires.
//!
//! Two sources can fire a token: an explicit [`CancelToken::cancel`]
//! call, or a wall-clock deadline the token was created with. The
//! deadline check costs an `Instant::now()` call, so the hot-path
//! probe [`CancelToken::is_cancelled`] strides it — the flag is read
//! on every call, the clock only every [`POLL_STRIDE`]th call — and
//! latches expiry into the flag so later probes are a single relaxed
//! atomic load.
//!
//! [`CancelToken::none`] (also `Default`) is a no-op token that
//! shares no state and never fires; passing it costs one branch per
//! probe, so uncancellable call sites need no separate code path.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many [`CancelToken::is_cancelled`] probes share one clock
/// read. Kernels probe once per recursion entry, so expiry is
/// noticed within a few hundred set operations — microseconds on the
/// workloads that need cancelling at all.
pub const POLL_STRIDE: u32 = 64;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    polls: AtomicU32,
}

/// A shared cancellation flag with an optional deadline. Clones
/// observe the same state; see the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Option<Arc<Inner>>);

impl CancelToken {
    /// A token that never fires — the zero-cost default for call
    /// sites without a deadline.
    pub const fn none() -> Self {
        Self(None)
    }

    /// A token that fires by [`CancelToken::cancel`] only.
    pub fn manual() -> Self {
        Self(Some(Arc::new(Inner {
            cancelled: AtomicBool::new(false),
            deadline: None,
            polls: AtomicU32::new(0),
        })))
    }

    /// A token that fires once `deadline` passes (or on an explicit
    /// [`CancelToken::cancel`]).
    pub fn with_deadline(deadline: Instant) -> Self {
        Self(Some(Arc::new(Inner {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
            polls: AtomicU32::new(0),
        })))
    }

    /// A token that fires `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// The deadline this token fires at, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.0.as_ref().and_then(|inner| inner.deadline)
    }

    /// Fires the token. No-op on [`CancelToken::none`]; irrevocable
    /// otherwise.
    pub fn cancel(&self) {
        if let Some(inner) = &self.0 {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// The hot-path probe: `true` once the token has fired. Reads
    /// the flag every call but the clock only every
    /// [`POLL_STRIDE`]th, so a deadline is observed slightly late in
    /// exchange for staying cheap inside recursion.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        let Some(inner) = &self.0 else { return false };
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = inner.deadline {
            let polls = inner.polls.fetch_add(1, Ordering::Relaxed);
            if polls % POLL_STRIDE == 0 && Instant::now() >= deadline {
                inner.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// The exact probe: `true` if the token has fired *or* its
    /// deadline has passed, checked against the clock right now.
    /// Used at decision points (before starting work, after a kernel
    /// returns) where one clock read is fine and staleness is not.
    pub fn expired(&self) -> bool {
        let Some(inner) = &self.0 else { return false };
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires() {
        let token = CancelToken::none();
        token.cancel();
        assert!(!token.is_cancelled());
        assert!(!token.expired());
        assert!(token.deadline().is_none());
    }

    #[test]
    fn manual_cancel_is_shared_across_clones() {
        let token = CancelToken::manual();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.expired());
    }

    #[test]
    fn deadline_fires_and_latches() {
        let token = CancelToken::after(Duration::from_millis(0));
        // `expired` checks the clock directly and latches the flag...
        assert!(token.expired());
        // ...so the strided probe sees it immediately afterwards.
        assert!(token.is_cancelled());
    }

    #[test]
    fn strided_probe_notices_a_passed_deadline() {
        let token = CancelToken::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        // Within one stride of probes the clock is consulted.
        assert!((0..=POLL_STRIDE).any(|_| token.is_cancelled()));
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let token = CancelToken::after(Duration::from_secs(3600));
        assert!(!token.expired());
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_some());
    }
}
