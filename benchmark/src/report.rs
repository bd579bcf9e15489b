//! Metric names, units and the output format every run prints.
//!
//! Every run prints every metric of its mode, whatever the workload: the
//! end-to-end set without tracing, the per-layer set with it. A layer a
//! workload does not exercise reads 0 in the per-layer set; no per-layer
//! metric is a time, so a layer that never runs cannot look like a
//! frozen timer. Names and units here must match `BENCHMARK.json` (the
//! smoke test checks it).

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the store or the model file sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_mb_s", "MB/s"),
    ("op_p50_ms", "ms"),
    ("capacity_ratio", "x"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // bench: the client's foreground operation (see END_TO_END's op_p50_ms).
    ("bench.op_p99_over_p50", "ratio"),
    // serve: PagedKvStore calls, split by what the counters saw them do.
    ("serve.append.calls", "count"),
    ("serve.append.busy_pct", "%"),
    ("serve.append.calls_per_s", "1/s"),
    ("serve.append_evicting.calls", "count"),
    ("serve.append_evicting.busy_pct", "%"),
    ("serve.prefill.calls", "count"),
    ("serve.prefill.calls_per_s", "1/s"),
    ("serve.read_session.calls", "count"),
    ("serve.read_session.busy_pct", "%"),
    ("serve.read_session.calls_per_s", "1/s"),
    ("serve.read_session_cold.calls", "count"),
    ("serve.read_session_cold.busy_pct", "%"),
    ("serve.close.calls", "count"),
    ("serve.close.busy_pct", "%"),
    ("serve.self_pct", "%"),
    ("serve.hot_hits", "count"),
    ("serve.cold_reads", "count"),
    ("serve.evictions", "count"),
    ("serve.recompressions", "count"),
    ("serve.clean_drops", "count"),
    ("serve.corrupt_reads", "count"),
    ("serve.hot_hit_ratio", "ratio"),
    ("serve.clean_drop_ratio", "ratio"),
    ("serve.refault_ratio", "ratio"),
    // core: the codec, timed in shadow calls beside the store's.
    ("core.kv_decode.calls", "count"),
    ("core.kv_decode.values", "count"),
    ("core.kv_decode.compressed_bytes", "B"),
    ("core.kv_decode.busy_pct", "%"),
    ("core.kv_decode.mvalues_per_s", "M/s"),
    ("core.kv_encode.calls", "count"),
    ("core.kv_encode.values", "count"),
    ("core.kv_encode.busy_pct", "%"),
    ("core.kv_encode.mvalues_per_s", "M/s"),
    ("core.calibrate.busy_s", "s"),
    ("core.weight_encode.mvalues_per_s", "M/s"),
    ("core.weight_decode.mvalues_per_s", "M/s"),
    ("quality.kv_nmse", "ratio"),
    ("quality.weight_nmse", "ratio"),
    // container and hw: the stages of a cold-start load.
    ("container.open.load_pct", "%"),
    ("container.read_frames.load_pct", "%"),
    ("container.read_frames.mb_per_s", "MB/s"),
    ("container.meta_views.load_pct", "%"),
    ("hw.decode_cold.load_pct", "%"),
    ("hw.decode_cold.mvalues_per_s", "M/s"),
    ("hw.decode_warm.load_pct", "%"),
    ("hw.decode_warm.mvalues_per_s", "M/s"),
    ("container.load.self_pct", "%"),
    ("container.load.stage_sum_ratio", "ratio"),
    ("container.partial_load.ratio", "ratio"),
    ("container.bits_per_value", "bits"),
    // pool and the tracer itself.
    ("pool.executors", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The values one run measured, by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be a known metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// Outcome counts and the correctness verdict of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued to the system under test.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// What the checks found, one line each; empty when all passed.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Counts one failed check, keeping its description.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.violations.len() < 16 {
            self.violations.push(why);
        }
    }
}

/// Prints one `name value unit` line per metric of the mode, then the
/// result object as the last line of standard output. Returns false if
/// a metric the mode needs is missing or not finite.
pub fn print(traced: bool, metrics: &Metrics, outcome: &Outcome) -> bool {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let mut complete = true;
    let mut json = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        // A layer the workload never reaches reads 0; an end-to-end
        // metric must always be measured.
        let value = match metrics.0.get(name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => {
                eprintln!("metric {name} was not measured");
                complete = false;
                continue;
            }
        };
        if !value.is_finite() {
            eprintln!("metric {name} is not finite: {value}");
            complete = false;
            continue;
        }
        println!("{name} {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for v in &outcome.violations {
        println!("# violation: {v}");
    }
    let correct = complete && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    correct
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of samples.
pub use ecco_serve::percentile;

/// Nearest-rank median of samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Share of `part` in `whole`, in percent (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
