//! Every metric the benchmark reports, with its unit and the workload that
//! measures it. `BENCHMARK.json` at the repository root lists the same
//! names and units; a test keeps the two in step.
//!
//! Every workload reports every end-to-end metric from its own operations.
//! A traced run reports every per-layer metric whichever workload it names:
//! it runs the traced section of each workload, and each per-layer metric
//! comes from the section that exercises its layer.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// The workload (or traced section) that measures it; `all` when each
    /// workload measures it on its own operations.
    pub workload: &'static str,
}

const fn m(name: &'static str, unit: &'static str, workload: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        workload,
    }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricSpec] = &[
    m("throughput_img_s", "img/s", "all"),
    m("latency_p50_ms", "ms", "all"),
    m("latency_p90_ms", "ms", "all"),
    m("setup_s", "s", "all"),
];

/// Reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricSpec] = &[
    m("tensor.gemm_peak_gflops", "GFLOP/s", "local_batch"),
    m("tensor.gemm_stem_gflops", "GFLOP/s", "local_batch"),
    m("tensor.gemm_block1_gflops", "GFLOP/s", "local_batch"),
    m("tensor.gemm_block2_gflops", "GFLOP/s", "local_batch"),
    m("tensor.gemm_b8_gflops", "GFLOP/s", "local_batch"),
    m("tensor.qgemm_block1_gops", "GOP/s", "local_batch"),
    m("nn.head_ms", "ms", "local_batch"),
    m("nn.head_gflops", "GFLOP/s", "local_batch"),
    m("nn.body_ms", "ms", "local_batch"),
    m("nn.body_gflops", "GFLOP/s", "local_batch"),
    m("nn.qbody_ms", "ms", "local_batch"),
    m("nn.tail_ms", "ms", "local_batch"),
    m("ensembler.client_features_ms", "ms", "local_batch"),
    m("ensembler.server_outputs_ms", "ms", "local_batch"),
    m("ensembler.classify_ms", "ms", "local_batch"),
    m("ensembler.quantize_ms", "ms", "local_batch"),
    m("ensembler.server_outputs_q_ms", "ms", "local_batch"),
    m("ensembler.dequantize_ms", "ms", "local_batch"),
    m("ensembler.stage_residual_pct", "%", "local_batch"),
    m("ensembler.stage_residual_int8_pct", "%", "local_batch"),
    m("ensembler.fanout_efficiency", "ratio", "local_batch"),
    m("ensembler.overhead_vs_single_pct", "%", "local_batch"),
    m("engine.batches", "count", "remote_single"),
    m("engine.mean_batch", "req/batch", "remote_single"),
    m("engine.max_batch", "count", "remote_single"),
    m("engine.queue_depth_max", "count", "remote_single"),
    m("engine.light_batches", "count", "remote_single"),
    m("engine.light_mean_batch", "req/batch", "remote_single"),
    m("engine.batch8_compute_ms", "ms", "remote_single"),
    m("serve.encode_request_us", "us", "remote_single"),
    m("serve.decode_response_us", "us", "remote_single"),
    m("serve.request_bytes", "bytes", "remote_single"),
    m("serve.response_bytes", "bytes", "remote_single"),
    m("serve.rtt_ms", "ms", "remote_single"),
    m("serve.compute_share", "ratio", "remote_single"),
    m("serve.threads_peak", "count", "remote_single"),
    m("serve.threads_peak_light", "count", "remote_single"),
    m("serve.requests_served", "count", "remote_single"),
    m("serve.requests_rejected", "count", "remote_single"),
    m("serve.errors_sent", "count", "remote_single"),
    m("serve.light_p99_ms", "ms", "remote_single"),
    m("gen.late_p99_ms", "ms", "remote_single"),
    m("serve.f32_leg_request_bytes", "bytes", "sharded_batch"),
    m("serve.f32_leg_response_bytes", "bytes", "sharded_batch"),
    m("serve.int8_leg_request_bytes", "bytes", "sharded_batch"),
    m("serve.int8_leg_response_bytes", "bytes", "sharded_batch"),
    m("shard.scatter_ms", "ms", "sharded_batch"),
    m("shard.leg_f32_ms", "ms", "sharded_batch"),
    m("shard.leg_int8_ms", "ms", "sharded_batch"),
    m("shard.merge_overhead_ms", "ms", "sharded_batch"),
    m("shard.range_requests", "count", "sharded_batch"),
    m("shard.hedges_fired", "count", "sharded_batch"),
    m("shard.health_flaps", "count", "sharded_batch"),
    m("trace.overhead_pct", "%", "all"),
];

/// The spec of `name` in `list`, if it is listed.
pub fn find(list: &[MetricSpec], name: &str) -> Option<MetricSpec> {
    list.iter().copied().find(|s| s.name == name)
}

/// The names of every metric in `list`.
pub fn names(list: &[MetricSpec]) -> Vec<&'static str> {
    list.iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{is_metric_name, is_unit};
    use ensembler_tensor::JsonValue;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_follow_the_grammar_and_are_unique() {
        let mut seen = BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_metric_name(spec.name), "bad name {}", spec.name);
            assert!(is_unit(spec.unit), "bad unit {}", spec.unit);
            assert!(seen.insert(spec.name), "duplicate {}", spec.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    fn listed(json: &JsonValue, key: &str) -> Vec<(String, String)> {
        json.require(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k: &str| match m.require(k).unwrap() {
                    JsonValue::String(s) => s.clone(),
                    other => panic!("{k} is not a string: {other:?}"),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let specs = |list: &[MetricSpec]| -> Vec<(String, String)> {
            list.iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), specs(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), specs(PER_LAYER));
        let workloads: BTreeSet<String> = json
            .require("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| match w.require("name").unwrap() {
                JsonValue::String(s) => s.clone(),
                other => panic!("workload name {other:?}"),
            })
            .collect();
        let used: BTreeSet<String> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|s| s.workload != "all")
            .map(|s| s.workload.to_string())
            .collect();
        assert_eq!(workloads, used);
    }
}
