//! In-memory spans around the benchmark's calls into the workspace
//! crates, timed on the process CPU clock (see [`crate::clock`]).
//!
//! A disabled tracer never reads the clock, so the untraced run pays one
//! branch per call. Spans are written out once, after measuring.

use std::collections::BTreeMap;

use crate::clock::CpuInstant;

/// One timed call: its name, CPU-time interval in nanoseconds since the
/// tracer started, the span that enclosed it and the op it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span count, total and self time of every span sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: CpuInstant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: CpuInstant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between spans, so that traced and
    /// untraced ops can alternate in one run.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        (self.origin.elapsed_s() * 1e9) as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations_ns(name).iter().sum()
    }

    /// Mean duration of the spans called `name`, in milliseconds (0 when
    /// there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        d.iter().sum::<u64>() as f64 / 1e6 / d.len().max(1) as f64
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of each span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
        out
    }

    /// Every span as one JSON object per line, with its self time.
    pub fn to_json_lines(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}\n",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", 0);
        t.span("inner", 0, || {
            let spin = CpuInstant::now();
            while spin.elapsed_s() < 0.002 {}
        });
        t.exit();
        let own = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0] + own[1], t.spans()[0].duration_ns());
        assert!(own[1] >= 1_900_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
