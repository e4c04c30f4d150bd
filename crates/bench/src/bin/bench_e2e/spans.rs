//! Per-request engine times recovered from the spans the server already
//! emits (`serve/request/execute` around `Retriever::new` + `retrieve`, and
//! the `retrieve/*` stages inside it). Spans of one request share a worker
//! thread and nest in time, so containment pairs them.

use crate::report::Outcome;
use crate::stats;
use hmmm_core::metrics as m;
use hmmm_core::MetricsReport;
use std::collections::BTreeMap;

/// The `retrieve` child stages and the metric of each one's p50.
const STAGES: [(&str, &str); 5] = [
    (m::SPAN_COARSE, "engine.coarse_ms_p50"),
    (m::SPAN_SIM_CACHE_BUILD, "engine.sim_cache_build_ms_p50"),
    (m::SPAN_VIDEO_ORDER, "engine.video_order_ms_p50"),
    (m::SPAN_TRAVERSE, "engine.traverse_ms_p50"),
    (m::SPAN_RANK, "engine.rank_ms_p50"),
];

/// One `retrieve` span with its stage children summed, nanoseconds.
#[derive(Debug, Default, Clone)]
struct RetrieveSpan {
    wall: u64,
    stages: [u64; STAGES.len()],
}

/// Per-request engine times of a traced window.
#[derive(Debug, Default)]
pub struct EngineSpans {
    /// `serve/request/execute` minus its `retrieve`: the time
    /// `Retriever::new` (model validation) takes inside the server, ms.
    pub validate_ms: Vec<f64>,
    /// `retrieve` spans, ms.
    pub retrieve_ms: Vec<f64>,
    retrieves: Vec<RetrieveSpan>,
}

/// Pairs the spans of each worker thread by time containment.
pub fn engine_spans(report: &MetricsReport) -> EngineSpans {
    let mut by_thread: BTreeMap<u64, Vec<_>> = BTreeMap::new();
    for span in &report.spans {
        by_thread.entry(span.thread).or_default().push(span);
    }
    let mut out = EngineSpans::default();
    for spans in by_thread.values() {
        // The report lists spans by start time, parents before children.
        let mut execute: Option<(u64, u64)> = None; // (end, wall)
        let mut retrieve: Option<u64> = None; // end
        for span in spans {
            let end = span.start_ns + span.wall_ns;
            if span.path == m::SPAN_SERVE_EXECUTE {
                execute = Some((end, span.wall_ns));
            } else if span.path == m::SPAN_RETRIEVE {
                retrieve = Some(end);
                out.retrieves.push(RetrieveSpan {
                    wall: span.wall_ns,
                    ..RetrieveSpan::default()
                });
                out.retrieve_ms.push(stats::ms(span.wall_ns));
                if let Some((exec_end, exec_wall)) = execute.take() {
                    if span.start_ns <= exec_end {
                        out.validate_ms
                            .push(stats::ms(exec_wall.saturating_sub(span.wall_ns)));
                    }
                }
            } else if let Some(k) = STAGES.iter().position(|(p, _)| span.path == *p) {
                if retrieve.is_some_and(|r_end| span.start_ns <= r_end) {
                    let current = out.retrieves.last_mut().expect("a retrieve is open");
                    current.stages[k] += span.wall_ns;
                }
            }
        }
    }
    out
}

impl EngineSpans {
    /// Median `Retriever::new` time inside the server, ms.
    pub fn validate_p50(&self) -> Option<f64> {
        (!self.validate_ms.is_empty()).then(|| stats::median(self.validate_ms.clone()))
    }

    /// Median `retrieve` time inside the server, ms.
    pub fn retrieve_p50(&self) -> Option<f64> {
        (!self.retrieve_ms.is_empty()).then(|| stats::median(self.retrieve_ms.clone()))
    }

    /// Sets the engine's span-derived per-layer metrics.
    pub fn record(&self, outcome: &mut Outcome) {
        outcome
            .samples
            .insert("engine.retrieve_spans", self.retrieves.len());
        if self.retrieves.is_empty() {
            return;
        }
        let m = &mut outcome.metrics;
        if let Some(v) = self.validate_p50() {
            m.set("engine.validate_ms_p50", v);
        }
        let retrieve = stats::sorted(self.retrieve_ms.clone());
        m.set("engine.retrieve_ms_p50", stats::median(retrieve.clone()));
        if let Ok(v) = stats::p99(&retrieve) {
            m.set("engine.retrieve_ms_p99", v);
        }
        for (k, (_, name)) in STAGES.iter().enumerate() {
            let stage = self
                .retrieves
                .iter()
                .map(|r| stats::ms(r.stages[k]))
                .collect();
            m.set(name, stats::median(stage));
        }
        let unattributed = self
            .retrieves
            .iter()
            .filter(|r| r.wall > 0)
            .map(|r| {
                let covered: u64 = r.stages.iter().sum();
                r.wall.saturating_sub(covered) as f64 / r.wall as f64
            })
            .collect();
        m.set("engine.unattributed_frac", stats::median(unattributed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmmm_core::obs::SpanEntry;

    fn span(path: &str, thread: u64, start_ns: u64, wall_ns: u64) -> SpanEntry {
        SpanEntry {
            path: path.to_string(),
            label: None,
            start_ns,
            wall_ns,
            thread,
        }
    }

    #[test]
    fn containment_pairs_each_request_on_its_thread() {
        let mut spans = vec![
            // thread 1: execute 0..10 ms holds retrieve 7..10 ms
            span(m::SPAN_SERVE_EXECUTE, 1, 0, 10_000_000),
            span(m::SPAN_RETRIEVE, 1, 7_000_000, 3_000_000),
            span(m::SPAN_SIM_CACHE_BUILD, 1, 7_000_000, 1_000_000),
            span(m::SPAN_TRAVERSE, 1, 8_000_000, 1_500_000),
            // thread 2 interleaves in time but pairs only with itself
            span(m::SPAN_SERVE_EXECUTE, 2, 1_000_000, 6_000_000),
            span(m::SPAN_RETRIEVE, 2, 5_000_000, 2_000_000),
            span(m::SPAN_RANK, 2, 6_500_000, 500_000),
        ];
        spans.sort_by_key(|s| s.start_ns);
        let report = MetricsReport {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            stages: Vec::new(),
            spans,
            derived: BTreeMap::new(),
        };
        let e = engine_spans(&report);
        let mut validate = e.validate_ms.clone();
        validate.sort_by(|a, b| hmmm_matrix::order::cmp_f64(*a, *b));
        assert_eq!(validate, vec![4.0, 7.0]);
        assert_eq!(e.retrieves.len(), 2);
        let t1 = e.retrieves.iter().find(|r| r.wall == 3_000_000).unwrap();
        assert_eq!(t1.stages, [0, 1_000_000, 0, 1_500_000, 0]);
        let t2 = e.retrieves.iter().find(|r| r.wall == 2_000_000).unwrap();
        assert_eq!(t2.stages, [0, 0, 0, 0, 500_000]);

        let mut outcome = Outcome::default();
        e.record(&mut outcome);
        // thread 1 leaves 0.5 of 3 ms unattributed, thread 2 1.5 of 2 ms
        let frac = outcome.metrics.get("engine.unattributed_frac").unwrap();
        assert!((frac - (0.5 / 3.0 + 0.75) / 2.0).abs() < 1e-12);
    }
}
