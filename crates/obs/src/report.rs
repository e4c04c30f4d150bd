//! The serializable [`MetricsReport`] — what `hmmm query --metrics-json`
//! writes and what `bench_report` builds `BENCH_retrieval.json` from.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Snapshot of one histogram (see [`crate::Histogram::summary`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Saturating sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation (0 when empty).
    pub min_ns: u64,
    /// Largest observation (0 when empty).
    pub max_ns: u64,
    /// Estimated median, nanoseconds.
    pub p50_ns: u64,
    /// Estimated 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// Estimated 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Raw power-of-two bucket counts (bucket `i` ≈ `[2^i, 2^{i+1})` ns).
    pub buckets: Vec<u64>,
}

/// Per-path span aggregate: every span with the same path folded into one
/// row. This is the "where did this query spend its time?" table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSummary {
    /// The span path, e.g. `retrieve/traverse`.
    pub path: String,
    /// Spans recorded under this path.
    pub count: u64,
    /// Total wall time, nanoseconds (spans on different threads overlap,
    /// so per-video totals can exceed the parent stage's wall time).
    pub total_ns: u64,
    /// Shortest single span.
    pub min_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// One raw span: an instrumented region's timing, with enough context to
/// reconstruct the trace (`hmmm query --trace` renders these as a tree).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEntry {
    /// `/`-separated hierarchical path.
    pub path: String,
    /// Instance label (e.g. video index for `retrieve/video` spans).
    pub label: Option<u64>,
    /// Start offset from the recorder's epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub wall_ns: u64,
    /// Opaque per-thread tag (stable within a report, not across runs).
    pub thread: u64,
}

/// The full structured report.
///
/// Everything is plain serde data: the report round-trips through JSON,
/// so offline tooling (and the CI bench snapshot) consumes the same shape
/// a live `--metrics-json` run emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetricsReport {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Per-path span aggregates, total-time-descending.
    pub stages: Vec<StageSummary>,
    /// Raw spans, start-ordered.
    pub spans: Vec<SpanEntry>,
    /// Derived quantities (ratios etc.) added by the producer — see
    /// [`MetricsReport::derive_ratio`].
    pub derived: BTreeMap<String, f64>,
}

impl MetricsReport {
    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The aggregate row for a span path, if any span was recorded there.
    pub fn stage(&self, path: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.path == path)
    }

    /// Total wall time recorded under a span path, nanoseconds (0 when the
    /// path never ran) — the number bench tooling compares across configs.
    pub fn stage_total_ns(&self, path: &str) -> u64 {
        self.stage(path).map_or(0, |s| s.total_ns)
    }

    /// A gauge's last-written value, if the gauge was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Computes `Σ numerators / (Σ numerators + Σ complements)` over
    /// counter names and stores it under `key` in [`MetricsReport::derived`].
    /// No-op (and no entry) when the denominator is zero — absent metrics
    /// stay absent instead of reporting a misleading `0.0`.
    pub fn derive_ratio(&mut self, key: &str, numerators: &[&str], complements: &[&str]) {
        let num: u64 = numerators.iter().map(|n| self.counter(n)).sum();
        let comp: u64 = complements.iter().map(|n| self.counter(n)).sum();
        let den = num + comp;
        if den > 0 {
            self.derived
                .insert(key.to_string(), num as f64 / den as f64);
        }
    }

    /// Pretty JSON encoding (the `--metrics-json` file format).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` encoding failures (practically unreachable
    /// for this plain-data shape).
    pub fn to_json_pretty(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Renders the raw spans as an indented text trace, start-ordered,
    /// with depth taken from the span path (one level per `/`):
    ///
    /// ```text
    /// retrieve                                   12.34ms
    ///   retrieve/coarse                           0.02ms
    ///   retrieve/video #3                         0.48ms
    /// ```
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let depth = span.path.matches('/').count();
            let label = match span.label {
                Some(l) => format!(" #{l}"),
                None => String::new(),
            };
            let name = format!("{:indent$}{}{label}", "", span.path, indent = depth * 2);
            out.push_str(&format!(
                "{name:<48} {:>12} @ {:>12}\n",
                format_ns(span.wall_ns),
                format_ns(span.start_ns),
            ));
        }
        out
    }
}

/// Human-scale duration formatting for the trace view.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        let mut r = MetricsReport::default();
        r.counters.insert("hits".into(), 9);
        r.counters.insert("misses".into(), 1);
        r.spans.push(SpanEntry {
            path: "a".into(),
            label: None,
            start_ns: 0,
            wall_ns: 1_500,
            thread: 0,
        });
        r.spans.push(SpanEntry {
            path: "a/b".into(),
            label: Some(2),
            start_ns: 100,
            wall_ns: 900,
            thread: 0,
        });
        r
    }

    #[test]
    fn ratio_derivation() {
        let mut r = sample();
        r.derive_ratio("hit_ratio", &["hits"], &["misses"]);
        assert!((r.derived["hit_ratio"] - 0.9).abs() < 1e-12);
        r.derive_ratio("absent", &["nope"], &["nada"]);
        assert!(!r.derived.contains_key("absent"));
    }

    #[test]
    fn stage_total_and_gauge_accessors() {
        let mut r = sample();
        r.stages.push(StageSummary {
            path: "a/b".into(),
            count: 3,
            total_ns: 4_500,
            min_ns: 1_000,
            max_ns: 2_000,
        });
        r.gauges.insert("depth".into(), 2.5);
        assert_eq!(r.stage_total_ns("a/b"), 4_500);
        assert_eq!(r.stage_total_ns("never/ran"), 0);
        assert_eq!(r.gauge("depth"), Some(2.5));
        assert_eq!(r.gauge("absent"), None);
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let json = r.to_json_pretty().unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn trace_renders_depth_and_labels() {
        let r = sample();
        let t = r.render_trace();
        assert!(t.contains("a/b #2"));
        assert!(t.contains("1.50µs"));
        assert!(t.lines().count() == 2);
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(999), "999ns");
        assert_eq!(format_ns(1_500), "1.50µs");
        assert_eq!(format_ns(2_500_000), "2.500ms");
        assert_eq!(format_ns(3_000_000_000), "3.000s");
    }
}
