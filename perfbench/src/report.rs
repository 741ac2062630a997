//! Sample statistics and the metric sets the benchmark reports.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one, measured with
/// tracing off. `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pr_iter_ms", "ms"),
    ("io_bytes_per_op", "B"),
    ("ok_share", "share"),
    ("query_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0. `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mem.peak_rss_mib", "MiB"),
    ("prep.total_s", "s"),
    ("prep.self_s", "s"),
    ("prep.write_s", "s"),
    ("prep.write_bytes", "B"),
    ("storage.read_calls", "count/op"),
    ("storage.read_bytes", "B/op"),
    ("storage.opens", "count/op"),
    ("storage.read_blocking_s", "s/op"),
    ("storage.read_overlapped_s", "s/op"),
    ("storage.write_calls", "count/op"),
    ("storage.write_bytes", "B/op"),
    ("storage.write_s", "s/op"),
    ("storage.hub_write_s", "s/op"),
    ("storage.interval_write_s", "s/op"),
    ("storage.retries", "count/op"),
    ("dsss.decode_s", "s"),
    ("dsss.decode_medges_per_s", "Medge/s"),
    ("dsss.blob_ratio", "ratio"),
    ("dsss.chain_parts_mean", "count"),
    ("model.read_ratio", "ratio"),
    ("model.write_ratio", "ratio"),
    ("engine.run_s", "s/iter"),
    ("engine.self_s", "s/iter"),
    ("engine.edges_per_iter", "count"),
    ("engine.strategy", "code"),
    ("dynamic.commit_s", "s"),
    ("dynamic.commit_write_s", "s"),
    ("dynamic.manifest_save_s", "s"),
    ("dynamic.files_per_commit", "count"),
    ("dynamic.write_bytes_per_edge", "B"),
    ("dynamic.deltas_per_commit", "count"),
    ("maintain.cells_folded", "count"),
    ("maintain.fold_races", "count"),
    ("maintain.write_bytes", "B"),
    ("maintain.storage_s", "s"),
    ("serve.query_ms.bfs", "ms"),
    ("serve.query_ms.sssp", "ms"),
    ("serve.query_ms.ppr", "ms"),
    ("serve.query_ms.topk", "ms"),
    ("serve.query_read_s", "s"),
    ("serve.rejected", "count"),
    ("serve.max_snapshot_lag", "count"),
    ("serve.writer_late_ms", "ms"),
    ("serve.queries_per_s", "1/s"),
    ("serve.query_tail_ms", "ms"),
    ("serve.commit_p50_ms", "ms"),
    ("serve.commit_tail_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile on the ladder
/// p99.9, p99, p95, p90, p75, p50 that has at least ten samples beyond it
/// (nearest rank). Returns `(value, percentile)`; a sample of fewer than
/// twenty values falls back to its maximum, reported as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 100.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for q in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (v[rank - 1], q);
        }
    }
    (v[n - 1], 100.0)
}

/// Named metric values collected by a workload.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The JSON `metrics` object over `set`, in its order; names a
    /// workload did not set report 0.
    pub fn json(&self, set: &[(&str, &str)]) -> String {
        let fields: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(self.get(name))
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Print one metric as `name = value unit`, with an optional note.
pub fn show(name: &str, value: f64, unit: &str, note: &str) {
    if note.is_empty() {
        println!("{name} = {} {unit}", json_num(value));
    } else {
        println!("{name} = {} {unit} ({note})", json_num(value));
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}
