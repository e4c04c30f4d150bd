//! The metric catalog and one run's outcome, rendered as the human
//! `name value unit` lines and the final one-line JSON result.
//!
//! The catalog mirrors `BENCHMARK.json` at the repository root (a unit test
//! keeps the two in step). End-to-end metrics are reported on every
//! workload with tracing off; per-layer metrics on every workload with
//! tracing on, where `0` means the workload does not exercise that layer.

use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics as `(name, unit)`, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // hmmm-query
    ("query.compile_us_p50", "us"),
    // hmmm-serve::server and the load generator
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.queue_full_rejections", "count"),
    ("serve.unattributed_frac", "ratio"),
    ("serve.max_qps_at_slo", "1/s"),
    ("gen.lag_p99_ms", "ms"),
    // hmmm-core::model (Retriever::new) and retrieve/simcache/coarse
    ("engine.validate_ms_p50", "ms"),
    ("engine.retrieve_ms_p50", "ms"),
    ("engine.retrieve_ms_p99", "ms"),
    ("engine.sim_cache_build_ms_p50", "ms"),
    ("engine.coarse_ms_p50", "ms"),
    ("engine.video_order_ms_p50", "ms"),
    ("engine.traverse_ms_p50", "ms"),
    ("engine.rank_ms_p50", "ms"),
    ("engine.unattributed_frac", "ratio"),
    ("engine.videos_visited", "count"),
    ("engine.cache_build_evals", "count"),
    ("engine.cache_lookups", "count"),
    ("engine.transitions_examined", "count"),
    ("engine.entries_pruned", "count"),
    ("engine.videos_skipped_by_bound", "count"),
    ("engine.bound_evaluations", "count"),
    ("engine.coarse_candidates", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.useful_visit_ratio", "ratio"),
    // hmmm-serve::net and client
    ("net.encode_us_p50", "us"),
    ("net.decode_us_p50", "us"),
    ("net.response_bytes_p50", "bytes"),
    ("net.overhead_ms_p50", "ms"),
    ("net.retries", "count"),
    ("net.give_ups", "count"),
    // hmmm-core::feedback + audit, hmmm-serve::snapshot
    ("feedback.write_ms_p50", "ms"),
    ("feedback.clone_ms_p50", "ms"),
    ("feedback.relearn_ms_p50", "ms"),
    ("feedback.audit_ms_p50", "ms"),
    ("feedback.read_tail_ms_during_install", "ms"),
    ("feedback.installs", "count"),
    // hmmm-media, shot, features, annotate; core::construct
    ("ingest.train_s", "s"),
    ("ingest.render_ms_per_shot", "ms"),
    ("ingest.shot_detect_ms_per_shot", "ms"),
    ("ingest.features_ms_per_shot", "ms"),
    ("ingest.annotate_ms_per_shot", "ms"),
    ("ingest.construct_s", "s"),
    ("ingest.audit_s", "s"),
    ("ingest.cut_f1", "ratio"),
    ("ingest.mining_micro_f1", "ratio"),
    ("ingest.cold_start_s", "s"),
    // hmmm-storage::persist, core::io
    ("persist.model_save_s", "s"),
    ("persist.model_load_s", "s"),
    ("persist.catalog_save_s", "s"),
    ("persist.catalog_load_s", "s"),
    ("persist.model_bytes_per_shot", "bytes"),
    ("persist.atomic_write_retries", "count"),
    ("persist.bak_fallbacks", "count"),
    // the traced run itself
    ("trace.e2e_p50_ms", "ms"),
];

/// Reported metrics as `(name, value, unit)`, in catalog order.
pub type Reported = Vec<(&'static str, f64, &'static str)>;

/// Metric values by catalog name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric; the name must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            unit_of(name).is_some(),
            "{name} is not in the metric catalog"
        );
        self.0.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The unit of a catalog metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed: rejected, given up, degraded, a failed
    /// install, or a ranking that did not match its serial re-derivation.
    pub failed: u64,
    /// Correctness violations found by the checks (empty when correct).
    pub problems: Vec<String>,
    /// Measured values (end-to-end always; per-layer when traced).
    pub metrics: Metrics,
    /// Sample count behind each distribution, for `--out`.
    pub samples: BTreeMap<&'static str, usize>,
    /// Further detail for `--out` (ledger terms, ladder steps).
    pub notes: BTreeMap<String, f64>,
}

impl Outcome {
    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Records a correctness violation, which also counts as a failure.
    pub fn problem(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// The catalog metrics this run reports, as `(name, value, unit)`:
    /// every end-to-end metric untraced, every per-layer metric traced.
    ///
    /// # Errors
    ///
    /// An end-to-end metric that was not measured, or a non-finite value.
    pub fn reported(&self, trace: bool) -> Result<Reported, String> {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        catalog
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => return Err(format!("end-to-end metric {name} was not measured")),
                };
                if value.is_finite() {
                    Ok((name, value, unit))
                } else {
                    Err(format!("metric {name} is not finite: {value}"))
                }
            })
            .collect()
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    reported: &[(&'static str, f64, &'static str)],
) -> String {
    let metrics = reported
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn valid_name(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(unit_of("setup_s"), Some("s"));
    }

    /// `BENCHMARK.json` sits at the repository root, above whichever
    /// manifest compiled this test.
    fn benchmark_json() -> Option<Value> {
        let mut dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                let text = std::fs::read_to_string(candidate).ok()?;
                return serde_json::from_str(&text).ok();
            }
            dir = dir.parent()?;
        }
    }

    fn listed(json: &Value, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let json = benchmark_json().expect("BENCHMARK.json at the repository root");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("p50_ms", 1.25, "ms")]);
        let back: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = back.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    fn untraced_report_requires_every_end_to_end_metric() {
        let mut outcome = Outcome::default();
        assert!(outcome.reported(false).is_err());
        for (name, _) in END_TO_END {
            outcome.metrics.set(name, 1.0);
        }
        assert_eq!(outcome.reported(false).unwrap().len(), END_TO_END.len());
        // Traced: unexercised layers read 0.
        let traced = outcome.reported(true).unwrap();
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().all(|&(_, v, _)| v == 0.0));
        outcome.metrics.set("p50_ms", f64::NAN);
        assert!(outcome.reported(false).is_err());
    }
}
