//! In-memory span recording for the traced run.
//!
//! A span is a named interval of host time with the span that caused it
//! as parent. The benchmark opens spans around its own calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. Spans stay in memory and are written out once, when
//! the run ends. A disabled recorder does nothing and reads no clock,
//! so untraced iterations run the very same code path.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `runner.collect`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder: a stack of open spans over a flat list of all spans.
#[derive(Debug)]
pub struct Spans {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Self {
            epoch: Some(Instant::now()),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing and reads no clock.
    pub fn disabled() -> Self {
        Self {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Is this tracer recording?
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let id = self.spans.len();
        let start_ns = ns_since(epoch);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in stack order");
        self.spans[id].end_ns = ns_since(epoch);
        out
    }

    /// All spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of that
    /// interval its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (span.end_ns - span.start_ns).saturating_sub(covered)
    }

    /// Total self time per span name, seconds.
    pub fn self_secs_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            *out.entry(span.name).or_insert(0.0) += self.self_ns(id) as f64 * 1e-9;
        }
        out
    }

    /// Summed self time, seconds, of the spans named `name` recorded at
    /// index `from` or later.
    pub fn self_secs(&self, from: usize, name: &str) -> f64 {
        (from..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.self_ns(id) as f64 * 1e-9)
            .sum()
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent,
    /// self_ns}` objects.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    self.self_ns(id)
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    fn with_spans(spans: Vec<Span>) -> Spans {
        Spans {
            epoch: Some(Instant::now()),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = with_spans(vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: union 10..60
            span("grandchild", 12, 20, Some(1)),
        ]);
        assert_eq!(t.self_ns(0), 50);
        assert_eq!(t.self_ns(1), 22);
        assert_eq!(t.self_ns(2), 30);
        assert_eq!(t.self_ns(3), 8);
        let by_name = t.self_secs_by_name();
        assert!((by_name["root"] - 50e-9).abs() < 1e-15);
        assert!((t.self_secs(1, "a") - 22e-9).abs() < 1e-15);
        assert_eq!(t.self_secs(2, "a"), 0.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let t = with_spans(vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))]);
        assert_eq!(t.self_ns(0), 5);
    }

    #[test]
    fn nesting_records_parents_and_disabled_records_nothing() {
        let mut t = Spans::enabled();
        let v = t.time("outer", |t| t.time("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.self_ns(0) <= t.spans()[0].end_ns - t.spans()[0].start_ns);

        let mut off = Spans::disabled();
        assert_eq!(off.time("outer", |t| t.time("inner", |_| 3)), 3);
        assert!(off.spans().is_empty());
        assert!(!off.is_enabled());
    }

    #[test]
    fn json_lists_every_span() {
        let t = with_spans(vec![span("root", 0, 10, None), span("leaf", 2, 4, Some(0))]);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"root\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"self_ns\":8"));
    }
}
