//! The one way a kernel is run: a [`RunCx`] carrying everything a
//! run needs, and [`execute`], the only function that calls
//! [`Kernel::run`].

use super::{CancelToken, Kernel, KernelError, Outcome, ParamSpec, Params, Value};
use gms_core::CsrGraph;
use gms_graph::GraphView;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The token behind every context built without
/// [`RunCx::with_cancel`]: shares no state and never fires.
static NEVER: CancelToken = CancelToken::none();

/// Everything one kernel run is given: the graph as it is resident,
/// the validated parameters with the schema that completes them, and
/// the request's cancellation token.
///
/// A kernel reads a parameter through the typed accessors
/// ([`RunCx::int`], [`RunCx::float`], [`RunCx::str`], [`RunCx::bool`]),
/// which return the request's override or the schema's default. The
/// parameters passed [`Params::validate`] against that schema, so the
/// value is of the declared kind and within its bounds.
///
/// Kernels that mine CSR arrays call [`RunCx::csr`]; on a compressed
/// resident the first call decodes the whole graph, later calls
/// return the same arrays, and [`execute`] books the decode under
/// `timings.convert` — once per run however often the kernel asks.
/// A decode-native kernel takes [`RunCx::view`] instead and never pays
/// that decode: `triangle-count` decodes every neighborhood once into
/// its oriented DAG, and `k-core` sweeps the index once and decodes
/// only the vertices it peels.
pub struct RunCx<'a> {
    view: GraphView<'a>,
    params: &'a Params,
    schema: &'a [ParamSpec],
    cancel: &'a CancelToken,
    decoded: OnceLock<(CsrGraph, Duration)>,
}

impl<'a> RunCx<'a> {
    /// A context over `view` with `params`, validated against
    /// `schema` (the kernel's [`Kernel::params`]), and a token that
    /// never fires.
    pub fn new(view: GraphView<'a>, params: &'a Params, schema: &'a [ParamSpec]) -> Self {
        Self {
            view,
            params,
            schema,
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
    /// the one decode of a compressed resident this run shares —
    /// every arc, whatever the kernel then reads.
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
    /// on either representation, decoding straight into what they use
    /// (e.g. a match on the view that enters one routine generic over
    /// [`Sweep`](gms_graph::Sweep)).
    pub fn view(&self) -> GraphView<'a> {
        self.view
    }

    /// The request's overrides alone; [`RunCx::int`] and its
    /// siblings complete them with the schema's defaults.
    pub fn params(&self) -> &'a Params {
        self.params
    }

    /// The resolved value of parameter `name`: the override, or the
    /// schema's default.
    ///
    /// # Panics
    /// If the schema does not declare `name` — a defect of the kernel,
    /// not of the request.
    fn value(&self, name: &str) -> &'a Value {
        self.params.get(name).unwrap_or_else(|| {
            let spec = self.schema.iter().find(|spec| spec.name == name);
            &spec
                .unwrap_or_else(|| panic!("{name:?} is not in the schema"))
                .default
        })
    }

    /// The resolved integer parameter `name`.
    pub fn int(&self, name: &str) -> i64 {
        match self.value(name) {
            Value::Int(i) => *i,
            other => panic!("{name:?} is not an int: {other:?}"),
        }
    }

    /// The resolved float parameter `name`; an integer override
    /// coerces.
    pub fn float(&self, name: &str) -> f64 {
        match self.value(name) {
            Value::Float(x) => *x,
            Value::Int(i) => *i as f64,
            other => panic!("{name:?} is not a float: {other:?}"),
        }
    }

    /// The resolved boolean parameter `name`.
    pub fn bool(&self, name: &str) -> bool {
        match self.value(name) {
            Value::Bool(b) => *b,
            other => panic!("{name:?} is not a bool: {other:?}"),
        }
    }

    /// The resolved string parameter `name`.
    pub fn str(&self, name: &str) -> &'a str {
        match self.value(name) {
            Value::Str(s) => s,
            other => panic!("{name:?} is not a str: {other:?}"),
        }
    }

    /// The token to probe in cancellable hot loops. A kernel that
    /// sees it fire just returns early with whatever it has:
    /// [`execute`] turns that into an error.
    pub fn cancel(&self) -> &'a CancelToken {
        self.cancel
    }
}

/// Runs `kernel` under `cx`. This is the only place a kernel is
/// invoked: sessions, the registry's uncached entry point and the
/// serve worker all come through here (the cached ones from inside
/// [`ResultCache::run_or_wait`](super::ResultCache::run_or_wait)).
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
