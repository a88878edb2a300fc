//! The metric catalogue and the one-line JSON result every run prints.

use std::collections::BTreeMap;

use vulnds::json::Json;

/// End-to-end metrics `(name, unit)`: every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_rate", "ratio"),
    ("sn_s", "s"),
    ("sr_s", "s"),
    ("bsr_s", "s"),
    ("bsrbk_s", "s"),
    ("qps", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A layer
/// the workload never runs reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_ms", "ms"),
    ("ugraph.load_ms", "ms"),
    ("bounds.compute_ms", "ms"),
    ("bounds.repair_ms", "ms"),
    ("candidates.reduce_ms", "ms"),
    ("candidates.size", "count"),
    ("candidates.verified", "count"),
    ("candidates.pruned_ratio", "ratio"),
    ("sampling.coin_table_ms", "ms"),
    ("sampling.forward_ms", "ms"),
    ("sampling.reverse_ms", "ms"),
    ("sampling.coin_words_per_sample", "words"),
    ("sampling.lazy_skip_ratio", "ratio"),
    ("sketch.hash_order_ms", "ms"),
    ("bsrbk.coin_words_per_sample", "words"),
    ("bsrbk.samples_used_ratio", "ratio"),
    ("bsrbk.early_stop_rate", "ratio"),
    ("topk.select_ms", "ms"),
    ("engine.detect_ms.sn", "ms"),
    ("engine.detect_ms.sr", "ms"),
    ("engine.detect_ms.bsr", "ms"),
    ("engine.detect_ms.bsrbk", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.samples_reuse_ratio", "ratio"),
    ("engine.revalidated_ratio", "ratio"),
    ("engine.apply_delta_ms", "ms"),
    ("json.parse_us", "us"),
    ("json.encode_us", "us"),
    ("json.response_bytes", "bytes"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_p90", "ms"),
    ("serve.update_ms_p50", "ms"),
    ("serve.update_ms_p90", "ms"),
    ("wal.append_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run measured and how many of its operations
/// failed a check.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Measured values by metric name; end-to-end and per-layer
    /// metrics share the map.
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones. Fails if an end-to-end metric is missing or any
    /// reported value is not a finite number.
    pub fn to_json(&self, traced: bool) -> Result<Json, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match (self.values.get(name), traced) {
                (Some(&v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut outcome = Outcome::default();
        for &(name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        outcome.check(true);
        let line = outcome.to_json(false).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        outcome.check(false);
        let line = outcome.to_json(false).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn missing_end_to_end_metrics_are_an_error_but_idle_layers_read_zero() {
        let outcome = Outcome::default();
        assert!(outcome.to_json(false).is_err());
        let traced = outcome.to_json(true).unwrap();
        let metrics = traced.get("metrics").unwrap();
        let wal = metrics.get("wal.append_us").unwrap();
        assert_eq!(wal.get("value"), Some(&Json::Num(0.0)));
        assert_eq!(wal.get("unit").and_then(Json::as_str), Some("us"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
