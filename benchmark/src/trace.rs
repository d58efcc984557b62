//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The benchmark measures every layer from outside, so a span's
//! boundaries are the benchmark's call sites, and child spans are
//! either nested calls or intervals the program itself reports
//! (`Outcome.timings`, a reply's `total_ms`). Spans stay in memory
//! while a section runs and are written out when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Most spans one tracer keeps; later ones are only counted. A
/// closed-loop section answers ~10^6 requests, and a span per request
/// would cost more memory and disk than the numbers are worth.
const SPAN_CAP: usize = 50_000;

pub struct Span {
    /// The boundary: `job`, `convert`, `request`, `server.total`, ...
    pub name: &'static str,
    /// What crossed it: a job label or a request kind.
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same file.
    pub parent: Option<u32>,
    /// The operation (job index or request id) the span belongs to.
    pub op: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A tracer for another thread of the same section; fold it back
    /// with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Self::new(self.origin)
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records one span from nanosecond offsets; returns its index for
    /// children to name as parent, or `None` once the cap is reached.
    pub fn record(
        &mut self,
        name: &'static str,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u64,
    ) -> Option<u32> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns,
            parent,
            op,
        });
        Some((self.spans.len() - 1) as u32)
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.dropped += other.dropped + other.spans.len().saturating_sub(room) as u64;
        // A child follows its parent, so a prefix never orphans one.
        self.spans
            .extend(other.spans.into_iter().take(room).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
    }

    /// Each span's self time: its duration minus what its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, children)| (s.end_ns - s.start_ns).saturating_sub(children))
            .collect()
    }

    /// Per `(name, label)`: span count, total time and self time, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<(&'static str, &'static str), SpanTotals> {
        let mut totals: BTreeMap<_, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let entry = totals.entry((span.name, span.label)).or_default();
            entry.count += 1;
            entry.total_ns += span.end_ns - span.start_ns;
            entry.self_ns += self_ns;
        }
        totals
    }

    /// Count, total and self time of the spans called `name`, whatever their label.
    pub fn totals(&self, name: &str) -> SpanTotals {
        let mut sum = SpanTotals::default();
        for ((n, _), t) in self.self_times() {
            if n == name {
                sum.count += t.count;
                sum.total_ns += t.total_ns;
                sum.self_ns += t.self_ns;
            }
        }
        sum
    }

    /// Durations, in ms, of the spans called `name` with `label`.
    pub fn durations_ms(&self, name: &str, label: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.label == label)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self times, in ms, of the spans called `name` whose label `keep` accepts.
    pub fn self_ms(&self, name: &str, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name && keep(s.label))
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// The span file: one JSON object with the spans as an array.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.label, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"op\":{}}}", s.op);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now());
        let job = t.record("job", "bk", 0, 100, None, 0);
        t.record("preprocess", "bk", 0, 10, job, 0);
        t.record("kernel", "bk", 10, 95, job, 0);
        let totals = t.self_times();
        assert_eq!(
            totals[&("job", "bk")],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 5
            }
        );
        assert_eq!(totals[&("kernel", "bk")].self_ns, 85);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(Instant::now());
        a.record("request", "run", 0, 10, None, 1);
        let mut b = a.fork();
        let parent = b.record("request", "run", 0, 20, None, 2);
        b.record("server.total", "run", 5, 20, parent, 2);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_times()[&("request", "run")].self_ns, 10 + 5);
        assert!(a.to_json("w").contains("\"parent\":1,\"op\":2"));
    }
}
