//! Typed kernel parameters: a small serde-style key/value bag
//! ([`Params`]) plus the per-kernel parameter schema ([`ParamSpec`])
//! that the [`Registry`](super::Registry) validates requests against.
//!
//! Every fact about a parameter lives in its kernel's constant
//! [`Kernel::params`](super::Kernel::params) schema: name, type,
//! default, the closed set of choices of a string parameter and the
//! inclusive [`Bounds`] of a numeric one. [`Params::validate`] is the
//! one place a request is checked against it — the kind, the choice,
//! the range, and that a float is finite — so a kernel reads resolved
//! values through [`RunCx`](super::RunCx)'s accessors and repairs
//! nothing. Callers pass only the keys they want to override; the
//! schema supplies the rest. Because the schema is data, the
//! benchmark harness can *enumerate* it: the ablation binaries sweep a
//! parameter's `choices` instead of hard-coding the variants.

use super::KernelError;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::RangeInclusive;

/// A parameter value: the four primitive shapes kernels configure
/// themselves with.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Integer knob (`k`, `par-depth`, `seed`, ...).
    Int(i64),
    /// Floating-point knob (`eps`, `fraction`, ...).
    Float(f64),
    /// Boolean switch (`collect`, ...).
    Bool(bool),
    /// Enumerated choice (`ordering`, `layout`, ...): borrowed in a
    /// schema's constant default, owned in a request.
    Str(Cow<'static, str>),
}

impl Value {
    /// The kind of this value, for schema checks and error messages.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Bool(_) => ValueKind::Bool,
            Value::Str(_) => ValueKind::Str,
        }
    }

    /// Canonical text form, used in cache keys and reports.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Cow::Owned(v.to_string()))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

/// The type of a parameter, as declared by a [`ParamSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueKind {
    /// [`Value::Int`].
    Int,
    /// [`Value::Float`].
    Float,
    /// [`Value::Bool`].
    Bool,
    /// [`Value::Str`].
    Str,
}

impl std::fmt::Display for ValueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ValueKind::Int => "int",
            ValueKind::Float => "float",
            ValueKind::Bool => "bool",
            ValueKind::Str => "str",
        };
        f.write_str(name)
    }
}

/// The inclusive admissible range of a numeric parameter; the type's
/// maximum stands for "no upper bound".
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bounds {
    /// `[min, max]` of a [`ValueKind::Int`] parameter.
    Int(i64, i64),
    /// `[min, max]` of a [`ValueKind::Float`] parameter.
    Float(f64, f64),
}

/// Declaration of one kernel parameter: its name, type, default and
/// admissible values. The constructors are `const`, so a kernel's
/// schema is a `&'static [ParamSpec]` that costs nothing to look up.
#[derive(Clone, Debug)]
pub struct ParamSpec {
    /// Parameter name (kebab-case).
    pub name: &'static str,
    /// Expected value type.
    pub kind: ValueKind,
    /// Value used when the caller does not set the parameter.
    pub default: Value,
    /// One-line description for `--help`-style listings.
    pub help: &'static str,
    /// Closed set of admissible values for [`ValueKind::Str`]
    /// parameters; empty means free-form. Sweepable by harnesses.
    pub choices: &'static [&'static str],
    /// Inclusive range of a numeric parameter; `None` admits every
    /// value of the kind (every finite one, for a float).
    pub bounds: Option<Bounds>,
}

impl ParamSpec {
    const fn new(name: &'static str, kind: ValueKind, default: Value, help: &'static str) -> Self {
        Self {
            name,
            kind,
            default,
            help,
            choices: &[],
            bounds: None,
        }
    }

    /// An integer parameter taking any value.
    pub const fn int(name: &'static str, default: i64, help: &'static str) -> Self {
        Self::new(name, ValueKind::Int, Value::Int(default), help)
    }

    /// An integer parameter admissible in `range`.
    pub const fn int_in(
        name: &'static str,
        default: i64,
        range: RangeInclusive<i64>,
        help: &'static str,
    ) -> Self {
        let mut spec = Self::int(name, default, help);
        spec.bounds = Some(Bounds::Int(*range.start(), *range.end()));
        spec
    }

    /// A float parameter taking any finite value.
    pub const fn float(name: &'static str, default: f64, help: &'static str) -> Self {
        Self::new(name, ValueKind::Float, Value::Float(default), help)
    }

    /// A float parameter admissible in `range`.
    pub const fn float_in(
        name: &'static str,
        default: f64,
        range: RangeInclusive<f64>,
        help: &'static str,
    ) -> Self {
        let mut spec = Self::float(name, default, help);
        spec.bounds = Some(Bounds::Float(*range.start(), *range.end()));
        spec
    }

    /// A boolean parameter.
    pub const fn bool(name: &'static str, default: bool, help: &'static str) -> Self {
        Self::new(name, ValueKind::Bool, Value::Bool(default), help)
    }

    /// An enumerated string parameter; `default` must be one of
    /// `choices`, which [`ParamSpec::check`] of the default confirms.
    pub const fn choice(
        name: &'static str,
        default: &'static str,
        choices: &'static [&'static str],
        help: &'static str,
    ) -> Self {
        let mut spec = Self::new(
            name,
            ValueKind::Str,
            Value::Str(Cow::Borrowed(default)),
            help,
        );
        spec.choices = choices;
        spec
    }

    /// Whether `value` is admissible: of the declared kind (an
    /// integer also passes as a float), finite if a float, within
    /// [`ParamSpec::bounds`] and among [`ParamSpec::choices`]. The
    /// error says what was wrong.
    pub fn check(&self, value: &Value) -> Result<(), String> {
        match (self.kind, value) {
            (ValueKind::Int, &Value::Int(i)) => match self.bounds {
                Some(Bounds::Int(min, max)) if !(min..=max).contains(&i) => {
                    Err(format!("{i} is outside [{min}, {max}]"))
                }
                _ => Ok(()),
            },
            (ValueKind::Float, &Value::Int(i)) => self.check_float(i as f64),
            (ValueKind::Float, &Value::Float(x)) => self.check_float(x),
            (ValueKind::Bool, Value::Bool(_)) => Ok(()),
            (ValueKind::Str, Value::Str(s)) => {
                if self.choices.is_empty() || self.choices.contains(&s.as_ref()) {
                    Ok(())
                } else {
                    Err(format!("{s:?} is not one of {:?}", self.choices))
                }
            }
            _ => Err(format!("expected {}, got {}", self.kind, value.kind())),
        }
    }

    fn check_float(&self, x: f64) -> Result<(), String> {
        match self.bounds {
            _ if !x.is_finite() => Err(format!("{x} is not finite")),
            Some(Bounds::Float(min, max)) if !(min..=max).contains(&x) => {
                Err(format!("{x:?} is outside [{min:?}, {max:?}]"))
            }
            _ => Ok(()),
        }
    }
}

/// A set of parameter overrides for one kernel request. Keys not set
/// here take the defaults from the kernel's [`ParamSpec`] schema.
///
/// Built fluently:
///
/// ```
/// use gms_platform::kernel::Params;
/// let p = Params::new().with("k", 5).with("ordering", "degeneracy");
/// assert_eq!(p.get_int("k", 4), 5);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Params {
    values: BTreeMap<String, Value>,
}

impl Params {
    /// No overrides: every parameter at its declared default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a parameter (builder style).
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.values.insert(name.to_string(), value.into());
        self
    }

    /// Sets a parameter in place.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) {
        self.values.insert(name.to_string(), value.into());
    }

    /// The raw override, if set.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Iterates the overrides in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Integer accessor with a default. Integers are the only
    /// accepted shape; schema validation rejects others up front.
    pub fn get_int(&self, name: &str, default: i64) -> i64 {
        match self.values.get(name) {
            Some(Value::Int(i)) => *i,
            _ => default,
        }
    }

    /// Float accessor with a default; integer overrides coerce.
    pub fn get_float(&self, name: &str, default: f64) -> f64 {
        match self.values.get(name) {
            Some(Value::Float(x)) => *x,
            Some(Value::Int(i)) => *i as f64,
            _ => default,
        }
    }

    /// Boolean accessor with a default.
    pub fn get_bool(&self, name: &str, default: bool) -> bool {
        match self.values.get(name) {
            Some(Value::Bool(b)) => *b,
            _ => default,
        }
    }

    /// String accessor with a default.
    pub fn get_str<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        match self.values.get(name) {
            Some(Value::Str(s)) => s,
            _ => default,
        }
    }

    /// Parses a [`Params::canonical`] rendering back into a `Params`
    /// — the inverse the cache's delta migration needs to re-run a
    /// kernel's incremental path from a stored [`CacheKey`] params
    /// string.
    ///
    /// Value types are inferred: `true`/`false` → bool, integer
    /// literal → int, float literal → float, anything else → string.
    /// This round-trips every canonical rendering whose string values
    /// contain no `,`/`=` and do not themselves parse as numbers —
    /// true for the whole built-in kernel suite, whose string
    /// parameters are closed keyword choices.
    ///
    /// [`CacheKey`]: super::CacheKey
    pub fn from_canonical(canonical: &str) -> Self {
        let mut params = Params::new();
        for part in canonical.split(',').filter(|p| !p.is_empty()) {
            let Some((name, value)) = part.split_once('=') else {
                continue;
            };
            let value = match value {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                other => {
                    if let Ok(i) = other.parse::<i64>() {
                        Value::Int(i)
                    } else if let Ok(x) = other.parse::<f64>() {
                        Value::Float(x)
                    } else {
                        Value::from(other)
                    }
                }
            };
            params.set(name, value);
        }
        params
    }

    /// Checks the overrides against a kernel's schema — the one
    /// place a request parameter is checked: an unknown name is
    /// [`KernelError::UnknownParam`], and a value [`ParamSpec::check`]
    /// refuses is [`KernelError::BadParam`] naming the parameter.
    pub fn validate(&self, kernel: &str, specs: &[ParamSpec]) -> Result<(), KernelError> {
        for (name, value) in self.iter() {
            let spec =
                specs
                    .iter()
                    .find(|s| s.name == name)
                    .ok_or_else(|| KernelError::UnknownParam {
                        kernel: kernel.to_string(),
                        param: name.to_string(),
                    })?;
            spec.check(value).map_err(|message| KernelError::BadParam {
                kernel: kernel.to_string(),
                param: name.to_string(),
                message,
            })?;
        }
        Ok(())
    }

    /// Canonical `name=value` rendering with defaults filled in —
    /// the params half of the result-cache key, and the label the
    /// harness prints. Two `Params` that resolve to the same
    /// effective configuration render identically.
    pub fn canonical(&self, specs: &[ParamSpec]) -> String {
        let mut out = String::new();
        for spec in specs {
            let value = self.values.get(spec.name).unwrap_or(&spec.default);
            // An integer override of a float parameter is the same
            // effective configuration as its float spelling
            // (`eps=1` ≡ `eps=1.0`): render through the declared kind
            // so both share one cache line.
            let _ = match value {
                Value::Int(i) if spec.kind == ValueKind::Float => {
                    write!(out, "{}={:?},", spec.name, *i as f64)
                }
                other => write!(out, "{}={other},", spec.name),
            };
        }
        // Free-form overrides outside the schema (only possible when
        // validation is skipped) still need to key the cache.
        for (name, value) in self.iter() {
            if !specs.iter().any(|s| s.name == name) {
                let _ = write!(out, "{name}={value},");
            }
        }
        out.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<ParamSpec> {
        vec![
            ParamSpec::int("k", 4, "clique size"),
            ParamSpec::float("eps", 0.25, "ADG epsilon"),
            ParamSpec::choice("ordering", "adg", &["adg", "degree"], "order"),
            ParamSpec::bool("collect", false, "materialize"),
        ]
    }

    #[test]
    fn typed_accessors_and_defaults() {
        let p = Params::new().with("k", 7).with("ordering", "degree");
        assert_eq!(p.get_int("k", 4), 7);
        assert_eq!(p.get_float("eps", 0.25), 0.25);
        assert_eq!(p.get_str("ordering", "adg"), "degree");
        assert!(!p.get_bool("collect", false));
    }

    #[test]
    fn bounds_and_finiteness_are_checked_in_validate() {
        const SPECS: &[ParamSpec] = &[
            ParamSpec::int_in("threads", 0, 0..=64, "width"),
            ParamSpec::float_in("fraction", 0.1, 0.0..=0.99, "held out"),
            ParamSpec::float("x", 0.0, "any finite"),
        ];
        let bad =
            |name: &str, value: Value| match Params::new().with(name, value).validate("t", SPECS) {
                Err(KernelError::BadParam { param, .. }) => param == name,
                _ => false,
            };
        for threads in [-1, 65, 1 << 40, i64::MIN, i64::MAX] {
            assert!(bad("threads", Value::Int(threads)), "threads = {threads}");
        }
        for fraction in [-0.01, 1.0, f64::NAN, f64::INFINITY] {
            assert!(bad("fraction", Value::Float(fraction)), "{fraction}");
        }
        assert!(
            bad("fraction", Value::Int(1)),
            "an int override is range-checked too"
        );
        assert!(bad("x", Value::Float(f64::NEG_INFINITY)));
        let edges = Params::new()
            .with("threads", 64)
            .with("fraction", 0.99)
            .with("x", 1e300);
        assert!(edges.validate("t", SPECS).is_ok());
        for spec in SPECS {
            assert_eq!(spec.check(&spec.default), Ok(()), "{}", spec.name);
        }
    }

    #[test]
    fn float_accepts_int_override() {
        let p = Params::new().with("eps", 1);
        assert!(p.validate("t", &specs()).is_ok());
        assert_eq!(p.get_float("eps", 0.25), 1.0);
    }

    #[test]
    fn validation_rejects_unknown_and_mistyped() {
        let specs = specs();
        assert!(Params::new().with("zz", 1).validate("t", &specs).is_err());
        assert!(Params::new().with("k", "x").validate("t", &specs).is_err());
        assert!(Params::new()
            .with("ordering", "zzz")
            .validate("t", &specs)
            .is_err());
        assert!(Params::new().with("k", 9).validate("t", &specs).is_ok());
    }

    #[test]
    fn canonical_fills_defaults_and_is_order_free() {
        let specs = specs();
        let a = Params::new().with("ordering", "degree").with("k", 5);
        let b = Params::new().with("k", 5).with("ordering", "degree");
        assert_eq!(a.canonical(&specs), b.canonical(&specs));
        assert_eq!(
            a.canonical(&specs),
            "k=5,eps=0.25,ordering=degree,collect=false"
        );
        // Equal effective configs render the same even when one side
        // spells the default explicitly.
        let c = Params::new().with("k", 5).with("ordering", "degree");
        let d = c.clone().with("eps", 0.25);
        assert_eq!(c.canonical(&specs), d.canonical(&specs));
    }

    #[test]
    fn from_canonical_round_trips_the_canonical_rendering() {
        let specs = specs();
        let p = Params::new()
            .with("k", 7)
            .with("eps", 0.5)
            .with("ordering", "degree")
            .with("collect", true);
        let rendered = p.canonical(&specs);
        let back = Params::from_canonical(&rendered);
        assert_eq!(back.canonical(&specs), rendered);
        assert_eq!(back.get_int("k", 0), 7);
        assert_eq!(back.get_float("eps", 0.0), 0.5);
        assert_eq!(back.get_str("ordering", ""), "degree");
        assert!(back.get_bool("collect", false));
        // Empty canonical (kernel without parameters) parses to the
        // empty override set.
        assert_eq!(Params::from_canonical(""), Params::new());
    }

    #[test]
    fn canonical_coerces_int_overrides_of_float_params() {
        // `eps=1` and `eps=1.0` are the same effective config and
        // must share one cache line.
        let specs = specs();
        let int_spelling = Params::new().with("eps", 1);
        let float_spelling = Params::new().with("eps", 1.0);
        assert_eq!(
            int_spelling.canonical(&specs),
            float_spelling.canonical(&specs)
        );
    }
}
