//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans carry a name, start, end, parent and op id. They stay in memory
//! during the run and are written out as JSON lines when it ends. Spans
//! inside the program itself are out of scope: every span here wraps a
//! public call made from the benchmark's own code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new op; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Duration of a closed span, ns.
    pub fn span_ns(&self, span: usize) -> u64 {
        self.spans[span].end_ns - self.spans[span].start_ns
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, Some(parent));
        let out = f();
        self.close(s);
        out
    }

    /// Per op, the summed duration (ms) of spans named `name`; one value
    /// for every op that has at least one.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.ms();
        }
        by_op.into_values().collect()
    }

    /// The duration (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of every span named `name`: its duration minus the
    /// part its direct children cover (children never overlap here).
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ms() - child_ms[i])
            .collect()
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.next_op();
        let root = t.open("op", None);
        t.span("a", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("a", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let a = t.per_op_ms("a");
        assert_eq!(a.len(), 1, "both `a` spans belong to op 1");
        let each = t.durations_ms("a");
        assert_eq!(each.len(), 2, "one duration per span");
        assert!((each[0] + each[1] - a[0]).abs() < 1e-9);
        let total = t.per_op_ms("op")[0];
        let residue = t.self_ms("op")[0];
        assert!(a[0] >= 4.0 && residue >= 0.0);
        assert!((total - residue - a[0]).abs() < 1e-9);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
