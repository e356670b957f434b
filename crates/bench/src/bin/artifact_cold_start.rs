//! Cold-start benchmark for the versioned `.qsnca` deployment artifact.
//!
//! The artifact exists so a serving process can reach first-inference without
//! touching the training stack: no topology rebuild, no checkpoint parse,
//! no weight re-clustering, no crossbar compile. This bench measures that
//! claim directly on the paper's flagship deployment (4-bit LeNet):
//!
//! 1. **Compile path** — quantize + `SpikingNetwork::compile` from an
//!    in-memory float network, the cost a worker pays without an artifact
//!    (training itself excluded, so this is a *lower bound* on the saving).
//! 2. **Cold start** — `load_artifact` (single `read` + strict decode)
//!    plus the first inference, measured from a cold handle each rep.
//!
//! Both are reported as the minimum over repetitions: scheduler noise on a
//! shared host is one-sided, so the fastest rep is the closest estimate of
//! the code itself. The bench asserts the acceptance gate — cold start
//! under 1 ms — and verifies the loaded engine is bit-identical to the
//! in-process one before timing anything.
//!
//! With `QSNC_BENCH_JSON` set, appends one JSON line with the cold-start
//! latency, its load/infer split, the compile-path time, and the speedup.
//!
//! Usage: `artifact_cold_start [reps]` (default 100).

use std::io::Write as _;
use std::time::Instant;

use qsnc_core::report::{Report, Table};
use qsnc_memristor::{load_artifact, save_artifact, DeployConfig, Provenance, SpikingNetwork};
use qsnc_nn::models;
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_tensor::{init, Tensor, TensorRng};

/// The acceptance gate: open + decode + first inference, in microseconds.
const COLD_START_GATE_US: f64 = 1_000.0;

/// Builds the quantized 4-bit LeNet float network the compile path starts
/// from. Weights are randomly initialized — compile cost does not depend
/// on the weight values, only the topology.
fn quantized_lenet() -> qsnc_nn::Sequential {
    let mut rng = TensorRng::seed(0xC01D);
    let mut net = models::lenet(0.5, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        0.0,
        ActivationQuantizer::new(4),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    net
}

fn compile(net: &qsnc_nn::Sequential) -> SpikingNetwork {
    let deploy = DeployConfig::paper(4, 4);
    let snn = SpikingNetwork::compile(net, &deploy, None).expect("compile");
    assert!(snn.has_fast_path(), "4-bit LeNet must compile the integer engine");
    snn
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);

    let net = quantized_lenet();
    let snn = compile(&net);
    let provenance = Provenance {
        checkpoint_digest: 0,
        weight_bits: 4,
        activation_bits: 4,
        model: "lenet".to_string(),
    };
    let path = std::env::temp_dir().join(format!("qsnc_cold_start_{}.qsnca", std::process::id()));
    save_artifact(&snn, &[1, 28, 28], &provenance, &path).expect("write artifact");
    let artifact_bytes = std::fs::metadata(&path).expect("artifact metadata").len();

    // Correctness before speed: the loaded engine must reproduce the
    // in-process engine bit-for-bit on several inputs.
    let mut rng = TensorRng::seed(7);
    let loaded = load_artifact(&path).expect("load artifact");
    for _ in 0..8 {
        let x = init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert!(snn.infer_batch_into(&x, &mut a), "compiled engine lost its fast path");
        assert!(loaded.network.infer_batch_into(&x, &mut b), "loaded engine has no fast path");
        assert!(
            a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()),
            "loaded artifact is not bit-identical to the in-process engine"
        );
    }
    drop(loaded);

    let probe: Tensor = init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);

    // Compile path: what a worker pays to reach an engine without the
    // artifact (training excluded — this is a lower bound on the saving).
    let compile_us = (0..reps.div_ceil(10).max(3))
        .map(|_| {
            let t0 = Instant::now();
            let snn = compile(&net);
            let mut out = Vec::new();
            snn.infer_batch_into(&probe, &mut out);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min);

    // Cold start: open + decode + first inference, from a cold handle.
    let (mut load_us, mut infer_us, mut cold_us) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        let loaded = load_artifact(&path).expect("load artifact");
        let loaded_at = t0.elapsed().as_secs_f64() * 1e6;
        let mut out = Vec::new();
        assert!(loaded.network.infer_batch_into(&probe, &mut out));
        let total = t0.elapsed().as_secs_f64() * 1e6;
        if total < cold_us {
            cold_us = total;
            load_us = loaded_at;
            infer_us = total - loaded_at;
        }
    }
    let _ = std::fs::remove_file(&path);

    let speedup = compile_us / cold_us;
    let mut table = Table::new(
        "artifact cold start — 4-bit LeNet, best of reps",
        &["Path", "Time (µs)"],
    );
    table.row(&["compile + first inference".to_string(), format!("{compile_us:.0}")]);
    table.row(&["artifact load".to_string(), format!("{load_us:.0}")]);
    table.row(&["first inference".to_string(), format!("{infer_us:.0}")]);
    table.row(&["cold start (load + infer)".to_string(), format!("{cold_us:.0}")]);

    let mut report = Report::new("artifact cold start");
    report
        .table(table)
        .note(format!(
            "artifact: {artifact_bytes} bytes; cold start {cold_us:.0}µs = {speedup:.1}x \
             faster than compiling in-process ({reps} reps, min)"
        ))
        .note("loaded engine verified bit-identical to the in-process engine before timing");
    report.emit();

    assert!(
        cold_us < COLD_START_GATE_US,
        "cold start {cold_us:.0}µs exceeds the {COLD_START_GATE_US:.0}µs gate"
    );
    assert!(
        speedup > 1.0,
        "artifact load ({cold_us:.0}µs) must beat in-process compile ({compile_us:.0}µs)"
    );

    if let Ok(path) = std::env::var("QSNC_BENCH_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(
                f,
                "{{\"name\": \"artifact_cold_start\", \"reps\": {reps}, \
                 \"artifact_bytes\": {artifact_bytes}, \"cold_start_us\": {cold_us:.1}, \
                 \"load_us\": {load_us:.1}, \"first_infer_us\": {infer_us:.1}, \
                 \"compile_us\": {compile_us:.1}, \"speedup\": {speedup:.2}, \
                 \"gate_us\": {COLD_START_GATE_US:.0}}}"
            );
        }
    }
}
