//! Metric catalogue, summary statistics and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("map50", "ratio"),
    ("uplink_kbps", "kbps"),
    ("downlink_kbps", "kbps"),
];

/// Per-layer ledger metrics (`--trace 1`): name and unit. Every workload
/// reports every name; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.student_pretrain_s", "s"),
    ("setup.teacher_pretrain_s", "s"),
    ("video.synth_us_per_frame", "us"),
    ("video.proposals_per_frame", "count"),
    ("models.student_detect_us_per_frame", "us"),
    ("models.teacher_us_per_frame", "us"),
    ("models.detections_per_frame", "count"),
    ("trainer.session_ms", "ms"),
    ("trainer.sessions", "count"),
    ("trainer.mini_batches", "count"),
    ("replay.integrate_us", "us"),
    ("replay.sample_us", "us"),
    ("tensor.dense.fwd_ns.student", "ns"),
    ("tensor.dense.bwd_ns.student", "ns"),
    ("tensor.brn.fwd_ns.student", "ns"),
    ("tensor.brn.bwd_ns.student", "ns"),
    ("tensor.relu.fwd_ns.student", "ns"),
    ("tensor.relu.bwd_ns.student", "ns"),
    ("tensor.dense.fwd_ns.teacher", "ns"),
    ("tensor.dense.bwd_ns.teacher", "ns"),
    ("tensor.relu.fwd_ns.teacher", "ns"),
    ("tensor.relu.bwd_ns.teacher", "ns"),
    ("tensor.macs_per_train_step", "count"),
    ("tensor.macs_per_detect_frame", "count"),
    ("tensor.workspace_allocs", "count"),
    ("net.codec_us_per_upload", "us"),
    ("net.uplink_messages", "count"),
    ("net.messages_lost", "count"),
    ("net.uplink_bytes", "B"),
    ("resilience.upload_timeouts", "count"),
    ("resilience.retransmits", "count"),
    ("resilience.breaker_opens", "count"),
    ("resilience.suppressed_bytes", "B"),
    ("resilience.ack_ratio", "ratio"),
    ("metrics.frame_map_us_per_frame", "us"),
    ("metrics.pooled_map_ms", "ms"),
    ("metrics.evals_retained", "count"),
    ("fleet.device_s", "s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("sim.frame_us.p50", "us"),
    ("sim.frame_us.p99", "us"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.events_per_frame", "count"),
    ("ledger.frames", "count"),
    ("ledger.teacher_frames", "count"),
    ("ledger.training_sessions", "count"),
    ("ledger.coverage", "ratio"),
    ("ledger.synth_s", "s"),
    ("ledger.student_s", "s"),
    ("ledger.teacher_s", "s"),
    ("ledger.codec_s", "s"),
    ("ledger.link_s", "s"),
    ("ledger.sample_s", "s"),
    ("ledger.controller_s", "s"),
    ("ledger.adapt_s", "s"),
    ("ledger.eval_s", "s"),
];

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that returned an error or failed an output check.
    pub failed: u64,
    /// One line per failure, printed to standard error.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one run; `problems` lists its failed checks (empty = pass).
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }
}

/// Median of a sample (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field (the benchmark needs Linux procfs).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable line {line:?}"))?;
    Ok(kb / 1024.0)
}

/// Renders the result line. Every name in `catalogue` must be present in
/// `values`; a missing or extra metric is a bug in the benchmark.
///
/// # Panics
///
/// Panics if `values` and `catalogue` disagree on the metric names.
pub fn result_json(
    tally: &Tally,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    assert_eq!(
        values.len(),
        catalogue.len(),
        "metric set does not match the catalogue"
    );
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (which the output checks reject) render as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics the benchmark does not print"
        );
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut tally = Tally::default();
        tally.record(Vec::new());
        let values: BTreeMap<&'static str, f64> =
            END_TO_END.iter().map(|(n, _)| (*n, 1.25)).collect();
        let line = result_json(&tally, END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }
}
