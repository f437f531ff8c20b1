//! Simulator-wide observability: the [`MetricsRegistry`].
//!
//! Every simulator in the workspace (DRAM controller, NoC, MemGuard
//! regulation, schedulers, admission co-simulation) publishes into one
//! registry holding three metric kinds:
//!
//! * **counters** — monotonically increasing `u64` event counts
//!   (row hits, dropped control messages, preemptions);
//! * **gauges** — last-written `f64` values (hit rate, link utilization);
//! * **histograms** — [`HistogramSketch`] streaming sketches of sample
//!   distributions (latencies, queue depths) answering p50/p95/p99/max.
//!
//! A simulator publishes after its run, from the outcome it returned or
//! the state it left; none holds a registry while it runs. Registries
//! [`merge`](MetricsRegistry::merge) so parallel shards combine into one
//! report, and export as JSON and CSV under a single schema ([`SCHEMA`])
//! that all bench binaries share; [`validate_json_export`] is the drift
//! gate CI runs against exported files.
//!
//! # Examples
//!
//! ```
//! use autoplat_sim::metrics::MetricsRegistry;
//! use autoplat_sim::SimDuration;
//!
//! let mut m = MetricsRegistry::new();
//! m.incr("dram.row_hits");
//! m.gauge_set("dram.hit_rate", 0.93);
//! m.observe("dram.refresh_stall_ns", SimDuration::from_ns(160.0).as_ns());
//! assert_eq!(m.counter("dram.row_hits"), 1);
//! assert_eq!(m.histogram("dram.refresh_stall_ns").unwrap().count(), 1);
//! autoplat_sim::metrics::validate_json_export(&m.to_json()).unwrap();
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::json::JsonValue;

/// Schema identifier stamped into every export.
pub const SCHEMA: &str = "autoplat.metrics.v1";

/// CSV header shared by every exporter.
pub const CSV_HEADER: &str = "kind,name,value,count,sum,min,max,p50,p95,p99";

/// Sub-buckets per power of two in [`HistogramSketch`]. With 8, bucket
/// boundaries grow by `2^(1/8)`, so any reported quantile overestimates
/// the true sample by at most `2^(1/8) - 1 ≈ 9.05%` (relative).
const SUBS_PER_OCTAVE: i32 = 8;
/// Smallest distinguishable sample; values at or below land in the
/// underflow bucket (covers zero and negatives too).
const MIN_TRACKED: f64 = 1e-3;
/// Exponent range: `[2^-10, 2^40)` ≈ `[9.8e-4, 1.1e12)`. In nanoseconds
/// that spans sub-picosecond to ~18 simulated minutes.
const MIN_EXP: i32 = -10;
const MAX_EXP: i32 = 40;
const BUCKETS: usize = ((MAX_EXP - MIN_EXP) * SUBS_PER_OCTAVE) as usize;

/// A fixed-bucket streaming histogram sketch with logarithmic buckets.
///
/// Buckets are spaced `2^(1/8)` apart, bounding the relative quantile
/// error at ~9%. Memory is constant (`~3 KiB`) regardless of sample
/// count, sketches with identical layout [`merge`](HistogramSketch::merge)
/// exactly (bucket counts add), and all operations are deterministic —
/// the same samples in any interleaving produce the same quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSketch {
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for HistogramSketch {
    fn default() -> Self {
        HistogramSketch::new()
    }
}

impl HistogramSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        HistogramSketch {
            counts: vec![0; BUCKETS],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(x: f64) -> Option<usize> {
        if x <= MIN_TRACKED {
            return None; // underflow (incl. zero / negative)
        }
        let idx = ((x.log2() - MIN_EXP as f64) * SUBS_PER_OCTAVE as f64).floor();
        if idx < 0.0 {
            None
        } else if idx as usize >= BUCKETS {
            Some(BUCKETS) // overflow sentinel
        } else {
            Some(idx as usize)
        }
    }

    /// Upper edge of bucket `i`.
    fn bucket_upper(i: usize) -> f64 {
        2f64.powf(MIN_EXP as f64 + (i as f64 + 1.0) / SUBS_PER_OCTAVE as f64)
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN — a NaN would silently poison every quantile.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "HistogramSketch::record: NaN sample");
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        match Self::bucket_index(x) {
            None => self.underflow += 1,
            Some(i) if i >= BUCKETS => self.overflow += 1,
            Some(i) => self.counts[i] += 1,
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, if any (exact, not bucketed).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any (exact, not bucketed).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The value below which a fraction `q` of samples fall, estimated
    /// from bucket upper edges (≤ ~9% relative overestimate). `q = 1`
    /// returns the exact maximum. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(MIN_TRACKED.min(self.max));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp to the observed extremes: the true sample cannot
                // lie outside them.
                return Some(Self::bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Folds `other` into this sketch (exact: bucket counts add).
    pub fn merge(&mut self, other: &HistogramSketch) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn to_json_value(&self) -> JsonValue {
        fn opt(v: Option<f64>) -> JsonValue {
            v.map(JsonValue::Float).unwrap_or(JsonValue::Null)
        }
        JsonValue::Object(vec![
            ("count".into(), JsonValue::UInt(self.count)),
            ("sum".into(), JsonValue::Float(self.sum)),
            ("min".into(), opt(self.min())),
            ("max".into(), opt(self.max())),
            ("p50".into(), opt(self.p50())),
            ("p95".into(), opt(self.p95())),
            ("p99".into(), opt(self.p99())),
        ])
    }
}

/// The shared observability registry.
///
/// Names are `Cow<'static, str>`: hot paths pass `&'static str` literals
/// and never allocate; dynamically keyed metrics (per-link, per-core)
/// pay one allocation at publish time. All maps are `BTreeMap` so every
/// export is deterministic — a property the determinism tests pin down.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<Cow<'static, str>, u64>,
    gauges: BTreeMap<Cow<'static, str>, f64>,
    histograms: BTreeMap<Cow<'static, str>, HistogramSketch>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter `name`.
    pub fn counter_add(&mut self, name: impl Into<Cow<'static, str>>, n: u64) {
        *self.counters.entry(name.into()).or_insert(0) += n;
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: impl Into<Cow<'static, str>>) {
        self.counter_add(name, 1);
    }

    /// Current value of counter `name` (`0` if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn gauge_set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        assert!(!value.is_nan(), "MetricsRegistry::gauge_set: NaN value");
        self.gauges.insert(name.into(), value);
    }

    /// Current value of gauge `name`, if ever written.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one sample into the histogram `name` (created on first
    /// use).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn observe(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        self.histograms
            .entry(name.into())
            .or_default()
            .record(value);
    }

    /// Folds a pre-built sketch into the histogram `name` — the path
    /// components use to publish sketches they accumulated internally.
    pub fn merge_histogram(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        sketch: &HistogramSketch,
    ) {
        self.histograms
            .entry(name.into())
            .or_default()
            .merge(sketch);
    }

    /// The histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSketch> {
        self.histograms.get(name)
    }

    /// Names of all registered metrics of every kind, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(Cow::as_ref)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Whether nothing was ever published.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into this registry: counters add, gauges take the
    /// other's value (last write wins), histograms merge exactly. This is
    /// the parallel-run combine: shard registries merge into one report.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
        for (name, &v) in &other.gauges {
            self.gauges.insert(name.clone(), v);
        }
        for (name, sketch) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(sketch);
        }
    }

    /// The registry as a JSON value under the [`SCHEMA`] layout.
    pub fn to_json_value(&self) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.to_string(), JsonValue::UInt(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.to_string(), JsonValue::Float(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.to_string(), h.to_json_value()))
            .collect();
        JsonValue::Object(vec![
            ("schema".into(), JsonValue::Str(SCHEMA.into())),
            ("counters".into(), JsonValue::Object(counters)),
            ("gauges".into(), JsonValue::Object(gauges)),
            ("histograms".into(), JsonValue::Object(histograms)),
        ])
    }

    /// Compact JSON export (deterministic: sorted names, stable float
    /// formatting).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// CSV export under [`CSV_HEADER`]: one row per metric, empty cells
    /// for fields the metric kind does not carry.
    pub fn to_csv(&self) -> String {
        fn esc(name: &str) -> String {
            if name.contains([',', '"', '\n']) {
                format!("\"{}\"", name.replace('"', "\"\""))
            } else {
                name.to_string()
            }
        }
        fn num(v: Option<f64>) -> String {
            v.map(|x| format!("{x}")).unwrap_or_default()
        }
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for (name, &v) in &self.counters {
            out.push_str(&format!("counter,{},{v},,,,,,,\n", esc(name)));
        }
        for (name, &v) in &self.gauges {
            out.push_str(&format!("gauge,{},{v},,,,,,,\n", esc(name)));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram,{},,{},{},{},{},{},{},{}\n",
                esc(name),
                h.count(),
                h.sum(),
                num(h.min()),
                num(h.max()),
                num(h.p50()),
                num(h.p95()),
                num(h.p99()),
            ));
        }
        out
    }

    /// Rebuilds counters and gauges from a JSON export.
    ///
    /// Histogram bucket counts are not exported (only their summary), so
    /// imported histograms are empty; use [`merge`](Self::merge) on live
    /// registries to combine distributions.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn counters_and_gauges_from_json(json: &str) -> Result<MetricsRegistry, String> {
        validate_json_export(json)?;
        let doc = JsonValue::parse(json)?;
        let mut registry = MetricsRegistry::new();
        if let Some(fields) = doc.get("counters").and_then(JsonValue::as_object) {
            for (k, v) in fields {
                registry.counter_add(k.clone(), v.as_u64().expect("validated"));
            }
        }
        if let Some(fields) = doc.get("gauges").and_then(JsonValue::as_object) {
            for (k, v) in fields {
                registry.gauge_set(k.clone(), v.as_f64().expect("validated"));
            }
        }
        Ok(registry)
    }
}

/// Validates a JSON document against the [`SCHEMA`] export layout — the
/// exporter-drift gate CI runs over bench output.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_json_export(json: &str) -> Result<(), String> {
    let doc = JsonValue::parse(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing \"schema\" tag")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    let counters = doc
        .get("counters")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"counters\" object")?;
    for (name, v) in counters {
        if v.as_u64().is_none() {
            return Err(format!("counter {name:?} is not an unsigned integer"));
        }
    }
    let gauges = doc
        .get("gauges")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"gauges\" object")?;
    for (name, v) in gauges {
        if !v.is_number() {
            return Err(format!("gauge {name:?} is not numeric"));
        }
    }
    let histograms = doc
        .get("histograms")
        .and_then(JsonValue::as_object)
        .ok_or("missing \"histograms\" object")?;
    for (name, h) in histograms {
        if h.get("count").and_then(JsonValue::as_u64).is_none() {
            return Err(format!("histogram {name:?} lacks a \"count\""));
        }
        if !h.get("sum").map(JsonValue::is_number).unwrap_or(false) {
            return Err(format!("histogram {name:?} lacks a numeric \"sum\""));
        }
        for field in ["min", "max", "p50", "p95", "p99"] {
            match h.get(field) {
                Some(v) if v.is_number() || v.is_null() => {}
                _ => {
                    return Err(format!(
                        "histogram {name:?} field {field:?} must be number or null"
                    ))
                }
            }
        }
    }
    Ok(())
}

/// Validates a CSV document against the [`CSV_HEADER`] export layout.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_csv_export(csv: &str) -> Result<(), String> {
    let mut lines = csv.lines();
    let header = lines.next().ok_or("empty CSV")?;
    if header != CSV_HEADER {
        return Err(format!("bad header {header:?}, expected {CSV_HEADER:?}"));
    }
    let columns = CSV_HEADER.split(',').count();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        // Quoted names never contain commas in our own exports, but count
        // conservatively: a quoted field is opaque.
        let cells = line.split(',').count();
        if !line.contains('"') && cells != columns {
            return Err(format!(
                "row {} has {cells} cells, expected {columns}",
                i + 2
            ));
        }
        let kind = line.split(',').next().unwrap_or("");
        if !matches!(kind, "counter" | "gauge" | "histogram") {
            return Err(format!("row {} has unknown kind {kind:?}", i + 2));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.incr("a");
        m.counter_add("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("g", 1.0);
        m.gauge_set("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let mut h = HistogramSketch::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.p50().expect("samples");
        let p99 = h.p99().expect("samples");
        // ≤ 9.05% relative overestimate, never an underestimate beyond
        // one bucket.
        assert!((500.0..=500.0 * 1.0905).contains(&p50), "p50 {p50}");
        assert!((990.0..=990.0 * 1.0905).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(1000.0), "q=1 is the exact max");
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(1000.0));
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 500_500.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = HistogramSketch::new();
        h.record(0.0); // underflow
        h.record(-5.0); // underflow
        h.record(1e15); // overflow
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(1e15));
        assert_eq!(h.quantile(1.0), Some(1e15));
        // Median falls in the underflow bucket; clamped to observed range.
        assert!(h.p50().expect("samples") <= 1e15);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn histogram_rejects_nan() {
        HistogramSketch::new().record(f64::NAN);
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let xs: Vec<f64> = (1..500).map(|i| (i as f64) * 1.7).collect();
        let mut whole = HistogramSketch::new();
        let mut left = HistogramSketch::new();
        let mut right = HistogramSketch::new();
        for &x in &xs {
            whole.record(x);
        }
        for &x in &xs[..200] {
            left.record(x);
        }
        for &x in &xs[200..] {
            right.record(x);
        }
        left.merge(&right);
        // Bucket counts and extremes merge exactly; the sum differs only
        // by float addition order.
        assert_eq!(left.counts, whole.counts);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        assert_eq!(left.p50(), whole.p50());
        assert_eq!(left.p99(), whole.p99());
        assert!((left.sum() - whole.sum()).abs() < 1e-6);
    }

    #[test]
    fn registry_merge_combines_all_kinds() {
        let mut a = MetricsRegistry::new();
        a.incr("c");
        a.gauge_set("g", 1.0);
        a.observe("h", 10.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 9.0);
        b.observe("h", 20.0);
        b.observe("h2", 5.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.histogram("h").expect("merged").count(), 2);
        assert_eq!(a.histogram("h2").expect("merged").count(), 1);
        assert_eq!(a.names(), vec!["c", "g", "h", "h2"]);
    }

    #[test]
    fn json_export_validates_and_round_trips() {
        let mut m = MetricsRegistry::new();
        m.counter_add("dram.row_hits", 42);
        m.gauge_set("dram.hit_rate", 0.875);
        m.observe("dram.read_latency_ns", 55.0);
        let json = m.to_json();
        validate_json_export(&json).expect("own export must validate");
        let back = MetricsRegistry::counters_and_gauges_from_json(&json).expect("import");
        assert_eq!(back.counter("dram.row_hits"), 42);
        assert_eq!(back.gauge("dram.hit_rate"), Some(0.875));
    }

    #[test]
    fn json_export_is_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            // Insertion order differs between the two closures' call
            // sites below; output must not.
            m.incr("b");
            m.incr("a");
            m.observe("h", 3.25);
            m.to_json()
        };
        let build_rev = || {
            let mut m = MetricsRegistry::new();
            m.observe("h", 3.25);
            m.incr("a");
            m.incr("b");
            m.to_json()
        };
        assert_eq!(build(), build_rev());
    }

    #[test]
    fn empty_registry_exports_validate() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        validate_json_export(&m.to_json()).expect("empty JSON validates");
        validate_csv_export(&m.to_csv()).expect("empty CSV validates");
    }

    #[test]
    fn csv_export_validates_and_has_all_rows() {
        let mut m = MetricsRegistry::new();
        m.incr("c1");
        m.gauge_set("g1", 2.0);
        m.observe("h1", 7.0);
        let csv = m.to_csv();
        validate_csv_export(&csv).expect("own CSV validates");
        assert_eq!(csv.lines().count(), 4, "header + one row per metric");
        assert!(csv.contains("counter,c1,1"));
        assert!(csv.contains("gauge,g1,2"));
        assert!(csv.starts_with(CSV_HEADER));
    }

    #[test]
    fn validators_reject_drift() {
        assert!(validate_json_export("{}").is_err());
        assert!(validate_json_export(
            r#"{"schema":"other.v9","counters":{},"gauges":{},"histograms":{}}"#
        )
        .is_err());
        assert!(validate_json_export(
            r#"{"schema":"autoplat.metrics.v1","counters":{"x":-1},"gauges":{},"histograms":{}}"#
        )
        .is_err());
        assert!(validate_json_export(
            r#"{"schema":"autoplat.metrics.v1","counters":{},"gauges":{},"histograms":{"h":{"count":1}}}"#
        )
        .is_err());
        assert!(validate_csv_export("wrong,header\n").is_err());
        assert!(validate_csv_export(&format!("{CSV_HEADER}\nbogus,x,,,,,,,,\n")).is_err());
    }
}
