//! The kernel registry: every mining kernel, enumerable by name and
//! category. The benchmark binaries iterate the registry instead of
//! hard-wiring calls, so a newly registered kernel shows up in the
//! benchmarks (and the integration suite) for free.

use super::{builtin, execute, Category, GraphView, Kernel, KernelError, Outcome, Params, RunCx};
use gms_core::CsrGraph;

/// An ordered collection of [`Kernel`]s with unique names.
pub struct Registry {
    kernels: Vec<Box<dyn Kernel>>,
}

impl Registry {
    /// An empty registry (for tests and custom deployments).
    pub fn empty() -> Self {
        Self {
            kernels: Vec::new(),
        }
    }

    /// The full built-in suite: every public mining kernel of
    /// gms-pattern, gms-match, gms-learn and gms-opt, plus the
    /// gms-order reorderings as preprocessing kernels.
    pub fn with_builtins() -> Self {
        let mut registry = Self::empty();
        builtin::register_all(&mut registry);
        registry
    }

    /// Adds a kernel.
    ///
    /// # Panics
    /// Panics if a kernel with the same name is already registered —
    /// duplicate names would make name-based requests ambiguous.
    pub fn register(&mut self, kernel: Box<dyn Kernel>) {
        assert!(
            self.get(kernel.name()).is_none(),
            "kernel {:?} registered twice",
            kernel.name()
        );
        self.kernels.push(kernel);
    }

    /// Looks a kernel up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Kernel> {
        self.kernels
            .iter()
            .map(|k| k.as_ref())
            .find(|k| k.name() == name)
    }

    /// All kernels in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Kernel> {
        self.kernels.iter().map(|k| k.as_ref())
    }

    /// All kernel names in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.iter().map(|k| k.name()).collect()
    }

    /// The kernels of one category, in registration order.
    pub fn by_category(&self, category: Category) -> Vec<&dyn Kernel> {
        self.iter().filter(|k| k.category() == category).collect()
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Validates `params` against the named kernel's schema and runs
    /// it — the uncached entry point the benchmark harness uses
    /// (sessions add fingerprint-keyed memoization on top).
    pub fn run(
        &self,
        name: &str,
        graph: &CsrGraph,
        params: &Params,
    ) -> Result<Outcome, KernelError> {
        let kernel = self
            .get(name)
            .ok_or_else(|| KernelError::UnknownKernel(name.to_string()))?;
        params.validate(name, &kernel.params())?;
        execute(kernel, &RunCx::new(GraphView::Raw(graph), params))
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_every_category_with_unique_names() {
        let registry = Registry::with_builtins();
        assert!(registry.len() >= 15, "expected a full suite");
        for category in Category::ALL {
            assert!(
                !registry.by_category(category).is_empty(),
                "no kernels in category {category:?}"
            );
        }
        let names = registry.names();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn unknown_kernel_and_bad_params_are_errors() {
        let registry = Registry::with_builtins();
        let g = gms_gen::gnp(30, 0.2, 1);
        assert!(matches!(
            registry.run("no-such-kernel", &g, &Params::new()),
            Err(KernelError::UnknownKernel(_))
        ));
        assert!(matches!(
            registry.run("k-clique", &g, &Params::new().with("bogus", 1)),
            Err(KernelError::UnknownParam { .. })
        ));
        assert!(matches!(
            registry.run("k-clique", &g, &Params::new().with("k", "three")),
            Err(KernelError::BadParam { .. })
        ));
    }

    #[test]
    fn duplicate_registration_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut registry = Registry::with_builtins();
            builtin::register_all(&mut registry);
        });
        assert!(result.is_err());
    }
}
