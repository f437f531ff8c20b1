//! Lightweight event tracing.
//!
//! Simulators push [`TraceEntry`] records into a [`Trace`] so tests and the
//! figure-regeneration binaries can inspect *what happened when* (e.g. the
//! DRAM controller's read/write mode switches for Fig. 5 of the paper).
//!
//! # Cost model
//!
//! `source`/`tag` are `Cow<'static, str>`: the overwhelmingly common case
//! — a string literal at the call site — is `Cow::Borrowed` and performs
//! **zero allocations**, so hot simulation loops (the DRAM controller's
//! serve loop, the NoC's per-cycle step) can stay instrumented. Dynamic
//! names still work (`String` converts to `Cow::Owned`). When tracing is
//! disabled, [`Trace::record`] is a single branch.

use std::borrow::Cow;
use std::fmt;

use crate::time::SimTime;

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TraceEntry {
    /// When the event occurred.
    pub at: SimTime,
    /// Component that emitted the record (e.g. `"dram"`, `"noc.router.3"`).
    pub source: Cow<'static, str>,
    /// Human-readable event tag (e.g. `"switch-to-write"`).
    pub tag: Cow<'static, str>,
    /// Optional integer payload (queue depth, flit id, ...).
    pub value: Option<i64>,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Some(v) => write!(f, "[{}] {} {} = {}", self.at, self.source, self.tag, v),
            None => write!(f, "[{}] {} {}", self.at, self.source, self.tag),
        }
    }
}

/// An append-only collection of trace records.
///
/// Tracing can be disabled (the default) so hot simulation loops pay only a
/// branch; tests enable it where they assert on behaviour.
///
/// # Examples
///
/// ```
/// use autoplat_sim::{Trace, SimTime};
///
/// let mut trace = Trace::enabled();
/// trace.record(SimTime::from_ns(1.0), "dram", "switch-to-write", Some(55));
/// assert_eq!(trace.entries().len(), 1);
/// assert_eq!(trace.count_tag("switch-to-write"), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates a disabled (no-op) trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an enabled trace that records entries.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            entries: Vec::new(),
        }
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (existing entries are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Appends a record if tracing is enabled.
    ///
    /// With `&'static str` arguments (the interned fast path used by
    /// every simulator) this allocates nothing beyond the entry slot.
    pub fn record(
        &mut self,
        at: SimTime,
        source: impl Into<Cow<'static, str>>,
        tag: impl Into<Cow<'static, str>>,
        value: Option<i64>,
    ) {
        if self.enabled {
            self.entries.push(TraceEntry {
                at,
                source: source.into(),
                tag: tag.into(),
                value,
            });
        }
    }

    /// All recorded entries, in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries whose tag equals `tag`.
    pub fn count_tag(&self, tag: &str) -> usize {
        self.entries.iter().filter(|e| e.tag == tag).count()
    }

    /// Iterates over entries with the given tag.
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries.iter().filter(move |e| e.tag == tag)
    }

    /// Discards all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, "x", "tag", None);
        assert!(t.entries().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.record(SimTime::from_ns(1.0), "a", "first", None);
        t.record(SimTime::from_ns(2.0), "b", "second", Some(7));
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.entries()[0].tag, "first");
        assert_eq!(t.entries()[1].value, Some(7));
    }

    #[test]
    fn static_tags_do_not_allocate_strings() {
        let mut t = Trace::enabled();
        t.record(SimTime::ZERO, "dram", "refresh", None);
        assert!(
            matches!(t.entries()[0].tag, Cow::Borrowed(_)),
            "literal tags must stay borrowed"
        );
        assert!(matches!(t.entries()[0].source, Cow::Borrowed(_)));
        // Dynamic names still work, as owned.
        let dynamic = format!("router.{}", 3);
        t.record(SimTime::ZERO, dynamic, "hop", None);
        assert!(matches!(t.entries()[1].source, Cow::Owned(_)));
    }

    #[test]
    fn tag_filtering() {
        let mut t = Trace::enabled();
        for i in 0..5 {
            let tag = if i % 2 == 0 { "even" } else { "odd" };
            t.record(SimTime::ZERO, "s", tag, Some(i));
        }
        assert_eq!(t.count_tag("even"), 3);
        assert_eq!(t.with_tag("odd").count(), 2);
    }

    #[test]
    fn toggle_and_clear() {
        let mut t = Trace::enabled();
        t.record(SimTime::ZERO, "s", "a", None);
        t.set_enabled(false);
        t.record(SimTime::ZERO, "s", "b", None);
        assert_eq!(t.entries().len(), 1);
        t.clear();
        assert!(t.entries().is_empty());
    }

    #[test]
    fn display_formats() {
        let e = TraceEntry {
            at: SimTime::from_ns(3.0),
            source: "dram".into(),
            tag: "refresh".into(),
            value: None,
        };
        assert_eq!(e.to_string(), "[3.000 ns] dram refresh");
        let e2 = TraceEntry {
            value: Some(4),
            ..e
        };
        assert_eq!(e2.to_string(), "[3.000 ns] dram refresh = 4");
    }
}
