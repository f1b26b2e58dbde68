//! Metric names and units, summary statistics, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics of an untraced run, as `(name, unit)`. Each is also
/// listed under `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Kernel labels: one per weight format the workloads serve.
pub const KERNEL_FORMATS: [&str; 8] = [
    "pd_p8",
    "pd_p4",
    "csc_p4",
    "dense",
    "dense_head",
    "q16_pd_p8",
    "circulant_k8",
    "shared_pd_p4",
];

/// The formats of the paged tenants, whose blocks have a decode metric.
pub const PAGED_FORMATS: [&str; 4] = ["pd_p4", "q16_pd_p8", "circulant_k8", "shared_pd_p4"];

/// Per-layer metrics of a traced run, as `(name, unit)`, in output order.
/// Each is also listed under `per_layer` in `BENCHMARK.json`.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        names.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut out = fixed(&[
        ("registry.call_us", "us"),
        ("registry.self_us", "us"),
        ("registry.self_share", "fraction"),
        ("registry.mean_batch", "count"),
        ("registry.modeled_over_measured", "ratio"),
        ("model.forward_us", "us"),
        ("model.glue_share", "fraction"),
        ("executor.fc_us", "us"),
        ("executor.speedup", "ratio"),
    ]);
    for f in KERNEL_FORMATS {
        out.push((format!("kernel.{f}.us"), "us"));
        out.push((format!("kernel.{f}.gmacs"), "GMAC/s"));
    }
    out.extend(fixed(&[
        ("paging.faults_per_batch", "count"),
        ("paging.hit_ratio", "fraction"),
        ("paging.evictions_per_batch", "count"),
        ("paging.bytes_faulted_per_call", "B"),
        ("paging.peak_resident_kb", "KiB"),
    ]));
    for f in PAGED_FORMATS {
        out.push((format!("paging.{f}.decode_us"), "us"));
    }
    out.extend(fixed(&[
        ("paging.fault_share", "fraction"),
        ("trace.overhead_share", "fraction"),
    ]));
    out
}

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// # Panics
    ///
    /// Panics on a name outside `[A-Za-z0-9_.-]+` or a non-finite value:
    /// either would make the result line unreadable.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // An empty f64 sum is -0.0; print it as 0.
        let value = if value == 0.0 { 0.0 } else { value };
        Metric { name, value, unit }
    }
}

/// Nearest-rank percentile of ascending `sorted` values, by the serving
/// runtime's rule (`percentile_of_sorted` in `permdnn_runtime::serve`):
/// the element at index `round((n - 1) * q)`, `q` clamped to `[0, 1]`.
/// 0 for an empty list.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// `values` in ascending order.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use permdnn_runtime::{CompletedRequest, MultiServeReport, TaggedCompletion};

    /// A report whose completions have exactly `latencies` ticks, so its
    /// public percentile method exposes the runtime's rule.
    fn report_with(latencies: &[u64]) -> MultiServeReport {
        MultiServeReport {
            completed: latencies
                .iter()
                .enumerate()
                .map(|(i, &l)| TaggedCompletion {
                    model_id: "m".to_string(),
                    completed: CompletedRequest {
                        id: i as u64,
                        arrival_tick: 0,
                        completion_tick: l,
                        batch_size: 1,
                        output: Vec::new(),
                    },
                })
                .collect(),
            per_model: Default::default(),
            final_tick: 0,
            first_arrival_tick: 0,
            workers: 1,
            stats: Default::default(),
        }
    }

    #[test]
    fn percentile_matches_the_runtime_rule() {
        for n in [1usize, 2, 3, 10, 11, 100, 101] {
            // Distinct values in scrambled order, so a wrong index shows.
            let latencies: Vec<u64> = (0..n as u64).map(|i| (i * 37) % n as u64 + 5).collect();
            let report = report_with(&latencies);
            let ours = sorted(latencies.iter().map(|&l| l as f64));
            for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0, -1.0, 2.0] {
                assert_eq!(
                    percentile(&ours, q),
                    report.latency_percentile_ticks(q) as f64,
                    "n = {n}, q = {q}"
                );
            }
        }
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(report_with(&[]).latency_percentile_ticks(0.5), 0);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["throughput_rps", "kernel.pd_p8.gmacs", "a-b", "9"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "a b", "a/b", "\"x\"", "µs", "a,b"] {
            assert!(!valid_name(bad), "{bad}");
        }
        for (name, _) in END_TO_END {
            assert!(valid_name(name));
        }
        for (name, _) in per_layer_names() {
            assert!(valid_name(&name), "{name}");
        }
        assert!(std::panic::catch_unwind(|| Metric::new("bad name", 1.0, "s")).is_err());
        assert!(std::panic::catch_unwind(|| Metric::new("x", f64::NAN, "s")).is_err());
        assert!(Metric::new("x", -0.0, "s").value.is_sign_positive());
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("a", 1.5, "ms"), Metric::new("b", 2.0, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }

    /// The metrics this binary emits are exactly the ones `BENCHMARK.json`
    /// declares, with the same units, in each section.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let quoted = |s: &str, key: &str| -> String {
            let from = &s[s.find(key).expect("key present") + key.len()..];
            from[..from.find('"').expect("closing quote")].to_string()
        };
        // (name, unit) pairs from the section starting at `key`.
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split("{\"name\"")
                .skip(1)
                .map(|entry| (quoted(entry, ": \""), quoted(entry, "\"unit\": \"")))
                .collect()
        };
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(section("end_to_end"), owned(e2e));
        assert_eq!(section("per_layer"), owned(per_layer_names()));
    }
}
