//! The metric inventory and the result line.
//!
//! `END_TO_END` and `PER_LAYER` list every metric `BENCHMARK.json` names, with
//! its unit; a test keeps the two in step. A workload fills the values it
//! measures; a per-layer metric whose layer the workload never calls reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
fn is_metric_name(name: &str) -> bool {
    let valid_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(valid_char)
}

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// End-to-end metrics: reported with tracing off, on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("throughput_ops", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: reported by the traced run.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("graph.parse_ms", "ms"),
    ("graph.coloring_ms", "ms"),
    ("graph.rfcg_open_ms", "ms"),
    ("graph.disk_read_mb", "MB"),
    ("reduction.en_colorful_core_ms", "ms"),
    ("reduction.colorful_sup_ms", "ms"),
    ("reduction.en_colorful_sup_ms", "ms"),
    ("reduction.edge_yield.en_colorful_core", "ratio"),
    ("reduction.edge_yield.colorful_sup", "ratio"),
    ("reduction.edge_yield.en_colorful_sup", "ratio"),
    ("reduction.share", "ratio"),
    ("heuristic.ms", "ms"),
    ("heuristic.hit_ratio", "ratio"),
    ("search.ms", "ms"),
    ("search.branches", "count"),
    ("search.bound_prunes", "count"),
    ("search.feasibility_prunes", "count"),
    ("search.us_per_branch", "us"),
    ("solver.cache_hit_ratio", "ratio"),
    ("solver.overhead_ms", "ms"),
    ("dynamic.commit_ms", "ms"),
    ("dynamic.solve_ms", "ms"),
    ("dynamic.cache_hit_ratio", "ratio"),
    ("dynamic.reductions_invalidated", "count"),
    ("dynamic.research_frac", "ratio"),
    ("enumerate.ms", "ms"),
    ("enumerate.emitted", "count"),
    ("serve.parse_us", "us"),
    ("serve.handle_ms.read", "ms"),
    ("serve.handle_ms.write", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.overloaded", "count"),
    ("serve.read_ms.p50", "ms"),
    ("serve.read_ms.p90", "ms"),
    ("serve.write_ms.p50", "ms"),
    ("serve.write_ms.p90", "ms"),
    ("scale.peel_ms", "ms"),
    ("scale.extract_ms", "ms"),
    ("scale.residual_solve_ms", "ms"),
    ("scale.peel_survivor_frac", "ratio"),
    ("scale.residual_kb", "KiB"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Selects the metrics a run reports: every end-to-end metric (which must all
/// have been measured) or every per-layer metric (0 where not measured).
pub fn select(values: &Values, traced: bool) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    if traced {
        for (name, unit) in PER_LAYER {
            let value = values.get(name).copied().unwrap_or(0.0);
            out.push(Metric { name, value, unit });
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = *values
                .get(name)
                .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
            out.push(Metric { name, value, unit });
        }
    }
    match out
        .iter()
        .find(|m| !m.value.is_finite() || !is_metric_name(m.name))
    {
        Some(m) => Err(format!("metric {} = {} is malformed", m.name, m.value)),
        None => Ok(out),
    }
}

/// A fixed-width table of the metrics, one per line, for people and `diff`.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed` and
/// `metrics`. Values are printed with every digit Rust's shortest round-trip
/// formatting gives.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfc_graph::json::JsonValue;

    fn names(list: &[JsonValue]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn inventory_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| names(json.get(key).and_then(JsonValue::as_array).unwrap());
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(&END_TO_END));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn every_name_and_unit_is_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(is_metric_name(name), "{name}");
            assert!(unit.len() <= 16, "{unit}");
        }
        let mut sorted: Vec<_> = all.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names are unique");
    }

    #[test]
    fn result_line_is_json_with_exact_values() {
        let mut values = Values::new();
        for (name, _) in END_TO_END {
            values.insert(name, 1.0 / 3.0);
        }
        let metrics = select(&values, false).unwrap();
        let line = result_line(true, 120, 0, &metrics);
        let json = JsonValue::parse(&line).unwrap();
        assert_eq!(json.get("attempted").and_then(JsonValue::as_u64), Some(120));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value").and_then(JsonValue::as_f64),
            Some(1.0 / 3.0)
        );
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));

        values.remove("setup_s");
        assert!(select(&values, false).is_err(), "missing end-to-end metric");
        let layers = select(&Values::new(), true).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.iter().all(|m| m.value == 0.0));
        values.insert("setup_s", f64::NAN);
        assert!(select(&values, false).is_err(), "non-finite value");
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for good in [
            "latency_ms.p50",
            "reduction.edge_yield.colorful_sup",
            "a-1",
            "9x",
        ] {
            assert!(is_metric_name(good), "{good}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "slash/no",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!is_metric_name(bad), "{bad}");
        }
        assert!(is_metric_name(&"x".repeat(64)));
    }
}
