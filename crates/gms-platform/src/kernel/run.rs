//! The one way a kernel is run: a [`RunCx`] carrying everything a
//! run needs, and [`execute`], the only function that calls
//! [`Kernel::run`].

use super::{CancelToken, Kernel, KernelError, Outcome, Params};
use gms_core::CsrGraph;
use gms_graph::GraphView;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The token behind every context built without
/// [`RunCx::with_cancel`]: shares no state and never fires.
static NEVER: CancelToken = CancelToken::none();

/// Everything one kernel run is given: the graph as it is resident,
/// the validated parameters, and the request's cancellation token.
///
/// Kernels that mine CSR arrays call [`RunCx::csr`]; on a compressed
/// resident the first call decodes the whole graph, later calls
/// return the same arrays, and [`execute`] books the decode under
/// `timings.convert` — once per run however often the kernel asks.
/// A decode-native kernel takes [`RunCx::view`] instead and never pays
/// that decode.
pub struct RunCx<'a> {
    view: GraphView<'a>,
    params: &'a Params,
    cancel: &'a CancelToken,
    decoded: OnceLock<(CsrGraph, Duration)>,
}

impl<'a> RunCx<'a> {
    /// A context over `view` with `params` (assumed validated against
    /// the kernel's schema) and a token that never fires.
    pub fn new(view: GraphView<'a>, params: &'a Params) -> Self {
        Self {
            view,
            params,
            cancel: &NEVER,
            decoded: OnceLock::new(),
        }
    }

    /// The same context under a cooperative [`CancelToken`] — how a
    /// request deadline reaches the kernel's cancellation points.
    pub fn with_cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The graph as CSR arrays: the resident arrays themselves, or
    /// the one decode of a compressed resident this run shares.
    pub fn csr(&self) -> &CsrGraph {
        match self.view {
            GraphView::Raw(graph) => graph,
            GraphView::Compressed(graph) => {
                &self
                    .decoded
                    .get_or_init(|| {
                        let start = Instant::now();
                        let csr = graph.to_csr();
                        (csr, start.elapsed())
                    })
                    .0
            }
        }
    }

    /// The graph as it is resident — the entry for kernels that run
    /// on either representation, decoding straight into what they use.
    pub fn view(&self) -> GraphView<'a> {
        self.view
    }

    /// The request's parameters; read them through the typed
    /// accessors with the defaults the kernel's schema declares.
    pub fn params(&self) -> &'a Params {
        self.params
    }

    /// The token to probe in cancellable hot loops. A kernel that
    /// sees it fire just returns early with whatever it has:
    /// [`execute`] turns that into an error.
    pub fn cancel(&self) -> &'a CancelToken {
        self.cancel
    }
}

/// Runs `kernel` under `cx`. This is the only place a kernel is
/// invoked: sessions, the batch runner, the registry's uncached entry
/// point and the serve worker all come through here (the cached ones
/// from inside [`ResultCache::run_or_wait`](super::ResultCache::run_or_wait)).
///
/// A token that has fired by the time the kernel returns — or before
/// it starts — always surfaces as [`KernelError::DeadlineExceeded`],
/// never as a partial [`Outcome`] the result cache would memoize.
/// The decode [`RunCx::csr`] paid for, if any, is added to
/// `timings.convert`.
pub fn execute(kernel: &dyn Kernel, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
    if cx.cancel.expired() {
        return Err(KernelError::DeadlineExceeded);
    }
    let mut outcome = kernel.run(cx)?;
    if cx.cancel.expired() {
        return Err(KernelError::DeadlineExceeded);
    }
    if let Some((_, decode)) = cx.decoded.get() {
        outcome.timings.convert += *decode;
    }
    Ok(outcome)
}
