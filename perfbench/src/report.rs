//! Metric names, the result row and the final JSON line.
//!
//! The two lists below are the benchmark's contract with `BENCHMARK.json`;
//! [`check_manifest`] refuses to run when they disagree.

use qsnc_telemetry::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every run with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms.r500", "ms"),
    ("p50_ms.r2000", "ms"),
    ("max_rps_slo", "rps"),
    ("throughput_img_s", "img/s"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs. A layer the workload never
/// reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("p99_ms.r500", "ms"),
    ("p99_ms.r2000", "ms"),
    ("bench.gen.late_p99_ms", "ms"),
    ("bench.trace.overhead_frac", "ratio"),
    ("serve.stage.queue.p50_us", "us"),
    ("serve.stage.infer.p50_us", "us"),
    ("serve.stage.decode.p50_us", "us"),
    ("serve.stage.encode.p50_us", "us"),
    ("serve.batch.mean", "count"),
    ("serve.loop.dispatch.p50_us", "us"),
    ("serve.loop.wakeups_per_req", "ratio"),
    ("serve.rejected_frac", "ratio"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("memristor.infer_batch.b1_us", "us"),
    ("memristor.infer_batch.b8_us", "us"),
    ("memristor.engine.stage.conv_us", "us"),
    ("memristor.engine.stage.fc_us", "us"),
    ("memristor.engine.stage.pool_us", "us"),
    ("memristor.engine.stage.ifc_us", "us"),
    ("memristor.engine.stage.analog_us", "us"),
    ("memristor.faulted.infer_batch.b8_us", "us"),
    ("memristor.fast_path", "bool"),
    ("memristor.compile_ms", "ms"),
    ("memristor.faulted.compile_ms", "ms"),
    ("memristor.artifact.encode_us", "us"),
    ("memristor.artifact.decode_us", "us"),
    ("memristor.spikes_per_img", "count"),
    ("memristor.ifc.saturated_frac", "ratio"),
    ("tensor.igemm_conv_us", "us"),
    ("tensor.igemm_us", "us"),
    ("tensor.gemm_us", "us"),
    ("tensor.gemm.skip_zeros_frac", "ratio"),
    ("tensor.igemm.skip_zeros_frac", "ratio"),
    ("tensor.scratch.alloc_per_img", "count"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.forward_quantized_us", "us"),
    ("nn.forward.zero_frac", "ratio"),
    ("quant.cluster_ms", "ms"),
    ("quant.signal.saturated_frac", "ratio"),
    ("quant.signal.zero_frac", "ratio"),
    ("data.synth_ms", "ms"),
    ("telemetry.quantile_observe_ns", "ns"),
    ("telemetry.counter_add_ns", "ns"),
    ("telemetry.scrape_ms", "ms"),
    ("telemetry.scrape_bytes", "bytes"),
    ("core.deploy_ms", "ms"),
];

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// How many operations a run attempted, how many failed, and whether every
/// output check passed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Tally {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Prints `list`'s metrics as an aligned table. With `zero_missing`, an
/// unset metric prints (and is emitted) as 0 — a layer the workload
/// bypasses; otherwise an unset metric is a bug in the workload.
pub fn print_table(title: &str, list: &[(&str, &str)], metrics: &Metrics, zero_missing: bool) {
    println!("== {title}");
    for (name, unit) in list {
        let value = value_of(metrics, name, zero_missing);
        let note = if metrics.get(name).is_none() {
            "  (layer not reached)"
        } else {
            ""
        };
        println!("  {name:<40} {value:>16.6} {unit}{note}");
    }
}

fn value_of(metrics: &Metrics, name: &str, zero_missing: bool) -> f64 {
    match metrics.get(name) {
        Some(v) => v,
        None if zero_missing => 0.0,
        None => panic!("workload did not measure end-to-end metric {name}"),
    }
}

/// The last line of stdout: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{value, unit}`.
pub fn final_line(
    list: &[(&str, &str)],
    metrics: &Metrics,
    tally: Tally,
    zero_missing: bool,
) -> String {
    let metrics = list
        .iter()
        .map(|(name, unit)| {
            let value = value_of(metrics, name, zero_missing);
            let entry = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(tally.correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .try_render()
    .expect("every measured metric is finite")
}

/// Compares the compiled metric lists with `BENCHMARK.json` at the root of
/// the checkout, so the manifest and the program cannot drift apart.
pub fn check_manifest(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String)> = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let compiled: Vec<(String, String)> = list
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if declared != compiled {
            return Err(format!(
                "BENCHMARK.json {key} disagrees with the benchmark's metric list"
            ));
        }
    }
    Ok(())
}
