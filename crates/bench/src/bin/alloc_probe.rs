//! Steady-state allocation probe for the integer fast-path pipeline.
//!
//! Compiles the 4-bit LeNet onto the spiking substrate, warms the thread's
//! scratch arena with one inference, then runs many more through
//! [`SpikingNetwork::infer_batch_into`] (one example, then a batch of 8)
//! and reports the scratch-arena traffic: the number of takes and — the
//! property under test — the number of **fresh allocations**, which must
//! be zero in the steady state. Runs
//! pinned to one thread, the same configuration the single-core deployment
//! benchmarks measure.
//!
//! Exit status is non-zero if the steady state allocated, so CI can gate
//! on it directly. With `QSNC_BENCH_JSON` set, appends one JSON line in
//! the same format the criterion stub uses.
//!
//! Usage: `alloc_probe [iterations]` (default 1000).

use std::io::Write as _;

use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_nn::models;
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_tensor::{init, parallel, scratch, TensorRng};

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);

    let mut rng = TensorRng::seed(0);
    let mut net = models::lenet(0.5, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        0.0,
        ActivationQuantizer::new(4),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    let config = DeployConfig::paper(4, 4);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path(), "4-bit LeNet must compile the integer engine");
    let x = init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);

    let (takes, allocs) = parallel::with_num_threads(1, || {
        let mut out = Vec::new();
        // Warm-up: the first call sizes every scratch buffer and `out`.
        snn.infer_batch_into(&x, &mut out);
        let base_takes = scratch::takes();
        let base_allocs = scratch::fresh_allocations();
        for _ in 0..iters {
            snn.infer_batch_into(&x, &mut out);
        }
        (
            scratch::takes() - base_takes,
            scratch::fresh_allocations() - base_allocs,
        )
    });

    // Batched path: what a warm qsnc-serve event loop runs per batch.
    const BATCH: usize = 8;
    let xs = init::uniform([BATCH, 1, 28, 28], 0.0, 1.0, &mut rng);
    let (batch_takes, batch_allocs) = parallel::with_num_threads(1, || {
        let mut out = Vec::new();
        snn.infer_batch_into(&xs, &mut out);
        let base_takes = scratch::takes();
        let base_allocs = scratch::fresh_allocations();
        for _ in 0..iters {
            snn.infer_batch_into(&xs, &mut out);
        }
        (
            scratch::takes() - base_takes,
            scratch::fresh_allocations() - base_allocs,
        )
    });

    println!(
        "steady state: {iters} inferences, {takes} scratch takes, {allocs} fresh allocations"
    );
    println!(
        "steady state (batch {BATCH}): {iters} batches, {batch_takes} scratch takes, \
         {batch_allocs} fresh allocations"
    );
    if let Ok(path) = std::env::var("QSNC_BENCH_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(
                f,
                "{{\"name\": \"inference_lenet_4bit/steady_state_fresh_allocs\", \
                 \"iters\": {iters}, \"scratch_takes\": {takes}, \"fresh_allocations\": {allocs}}}"
            );
            let _ = writeln!(
                f,
                "{{\"name\": \"inference_lenet_4bit/steady_state_fresh_allocs_batch{BATCH}\", \
                 \"iters\": {iters}, \"scratch_takes\": {batch_takes}, \
                 \"fresh_allocations\": {batch_allocs}}}"
            );
        }
    }
    if allocs != 0 {
        eprintln!("FAIL: steady-state inference performed {allocs} fresh scratch allocations");
        std::process::exit(1);
    }
    if batch_allocs != 0 {
        eprintln!(
            "FAIL: steady-state batched inference performed {batch_allocs} fresh scratch allocations"
        );
        std::process::exit(1);
    }
}
