//! Per-layer measurements the traced run makes beside the workload: the
//! benchmark times public calls of each layer itself, and compares the
//! engine's measured stage times with the Table 5 hardware model.

use crate::model::{self, SERVE_BATCH};
use crate::report::Metrics;
use crate::stats::time_median_us;
use qsnc_core::{deploy_to_snc, export_artifact, QuantizedModel};
use qsnc_memristor::{
    decode_artifact, encode_artifact, network_geometry, DeployConfig, FaultRates, HwModel,
    ProgramPolicy, ReliabilityConfig, SpikingNetwork,
};
use qsnc_nn::{LayerDesc, Mode};
use qsnc_telemetry::{Snapshot, TelemetryMode};
use qsnc_tensor::{Conv2dSpec, PackedCodes, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

/// Time spent timing each call; its median over that time is reported.
const CALL_BUDGET: Duration = Duration::from_millis(120);
const MIN_REPS: usize = 5;
/// The training batch size of `TrainSettings::default()`.
const TRAIN_BATCH: usize = 32;
/// Stuck-cell rate of the faulted compile the traced run times.
const STUCK_RATE: f32 = 0.01;

/// The faulted compile's reliability configuration: stuck cells, remapped.
fn faulty(seed: u64) -> ReliabilityConfig {
    ReliabilityConfig::faulty(FaultRates::stuck(STUCK_RATE), seed, ProgramPolicy::Remap)
}

fn time_us(f: impl FnMut()) -> f64 {
    time_median_us(CALL_BUDGET, MIN_REPS, f)
}

/// Runs `f` with telemetry recording and returns what it recorded.
pub fn recorded<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let prev = qsnc_telemetry::mode();
    qsnc_telemetry::set_mode(TelemetryMode::Record);
    let before = qsnc_telemetry::snapshot();
    let out = f();
    let delta = qsnc_telemetry::snapshot().delta_since(&before);
    qsnc_telemetry::set_mode(prev);
    (out, delta)
}

pub fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer counters the program records during inference, per image.
pub fn inference_counters(snap: &Snapshot, images: f64, layers: &mut Metrics) {
    layers.put(
        "memristor.spikes_per_img",
        ratio(counter(snap, "snc.spikes"), images),
    );
    layers.put(
        "memristor.ifc.saturated_frac",
        ratio(
            counter(snap, "snc.ifc.saturated"),
            counter(snap, "snc.ifc.conversions"),
        ),
    );
    layers.put(
        "tensor.igemm.skip_zeros_frac",
        ratio(
            counter(snap, "tensor.igemm.kernel.skip_zeros"),
            counter(snap, "tensor.igemm.calls"),
        ),
    );
    layers.put(
        "tensor.gemm.skip_zeros_frac",
        ratio(
            counter(snap, "tensor.gemm.kernel.skip_zeros"),
            counter(snap, "tensor.gemm.calls"),
        ),
    );
    layers.put(
        "tensor.scratch.alloc_per_img",
        ratio(counter(snap, "tensor.scratch.alloc"), images),
    );
}

/// Engine stage time per batch, summed over the layers of each stage kind.
#[derive(Debug, Clone)]
pub struct EngineTimes {
    pub per_batch_us: Vec<(&'static str, f64)>,
}

pub const STAGE_KINDS: [&str; 5] = ["conv", "fc", "pool", "ifc", "analog"];

impl EngineTimes {
    pub fn from_snapshot(snap: &Snapshot, batches: f64) -> EngineTimes {
        let per_batch_us = STAGE_KINDS
            .iter()
            .map(|&k| {
                let sum = snap
                    .quantile_sketch(&format!("snc.engine.stage.{k}.us"))
                    .map_or(0.0, |s| s.sum);
                (k, ratio(sum, batches))
            })
            .collect();
        EngineTimes { per_batch_us }
    }

    /// Stage p50s (per stage execution) into the per-layer metrics.
    pub fn put_p50s(snap: &Snapshot, layers: &mut Metrics) {
        for k in STAGE_KINDS {
            let p50 = snap
                .quantile_sketch(&format!("snc.engine.stage.{k}.us"))
                .map_or(0.0, |s| s.quantile(0.5));
            layers.put(&format!("memristor.engine.stage.{k}_us"), p50);
        }
    }
}

/// Prints `HwModel::breakdown`'s modelled chip latency per synaptic layer
/// beside the engine's measured host time per batch, summed by stage kind.
pub fn print_model_vs_measured(net: &qsnc_nn::Sequential, measured: Option<&EngineTimes>) {
    let q = model::quant();
    let descs = net.synaptic_descriptors();
    let geometry = network_geometry(&descs, 32);
    let modelled = HwModel::calibrated().breakdown(&geometry, q.activation_bits, q.weight_bits);
    println!("== model vs measured: Table 5 model (chip) beside the integer engine (host)");
    println!(
        "  {:<8} {:<6} {:>6} {:>6} {:>9} {:>14}",
        "layer", "kind", "rows", "cols", "crossbars", "model_chip_us"
    );
    let mut model_by_kind = [0.0f64; 2];
    for (i, (d, m)) in descs.iter().zip(&modelled).enumerate() {
        let kind = if matches!(d, LayerDesc::Conv { .. }) {
            0
        } else {
            1
        };
        model_by_kind[kind] += f64::from(m.latency_us);
        println!(
            "  {:<8} {:<6} {:>6} {:>6} {:>9} {:>14.5}",
            format!("syn{i}"),
            ["conv", "fc"][kind],
            m.rows,
            m.cols,
            m.crossbars,
            m.latency_us
        );
    }
    println!(
        "  {:<8} {:>16} {:>22}",
        "kind", "model_chip_us", "measured_host_us/batch"
    );
    for (k, v) in measured.map(|m| m.per_batch_us.clone()).unwrap_or_default() {
        let chip = match k {
            "conv" => format!("{:.5}", model_by_kind[0]),
            "fc" => format!("{:.5}", model_by_kind[1]),
            _ => "in layer windows".to_string(),
        };
        println!("  {k:<8} {chip:>16} {v:>22.2}");
    }
    if measured.is_none() {
        println!("  (no integer engine on this deploy: nothing measured per stage)");
    }
    println!("  engine stage timing is keyed by kind, not layer index; per-index timing needs program instrumentation");
}

/// Flat LeNet shapes: every conv is followed by a 2×2 pool.
struct Shapes {
    /// `(in_c, out_c, spec, input side)` per conv layer.
    convs: Vec<(usize, usize, Conv2dSpec, usize)>,
    /// `(in, out)` per linear layer.
    fcs: Vec<(usize, usize)>,
}

fn shapes(net: &qsnc_nn::Sequential) -> Shapes {
    let side = model::KIND.input_dims()[1];
    let (mut convs, mut fcs, mut h) = (Vec::new(), Vec::new(), side);
    for d in net.synaptic_descriptors() {
        match d {
            LayerDesc::Conv {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                let spec = Conv2dSpec::new(kernel, stride, padding);
                convs.push((in_channels, out_channels, spec, h));
                h = spec.output_size(h) / 2;
            }
            LayerDesc::Linear {
                in_features,
                out_features,
            } => fcs.push((in_features, out_features)),
            LayerDesc::Other => {}
        }
    }
    Shapes { convs, fcs }
}

/// Spike counts in `[0, max]` with the given share of zeros.
fn counts(len: usize, zero_frac: f64, max: i32, rng: &mut crate::open_loop::Rng) -> Vec<i32> {
    (0..len)
        .map(|_| {
            if rng.unit() < zero_frac {
                0
            } else {
                1 + (rng.next_u64() % max as u64) as i32
            }
        })
        .collect()
}

/// Every "call" per-layer metric: the benchmark times each layer's public
/// entry point itself, on the workload's trained network.
pub fn measure_calls(
    model: &mut QuantizedModel,
    inputs: &[Vec<f32>],
    seed: u64,
    out_dir: &Path,
    layers: &mut Metrics,
) -> Result<(), String> {
    let quant = model::quant();
    let clean_config = DeployConfig::paper(quant.weight_bits, quant.activation_bits);
    let mut faulted_config = clean_config;
    faulted_config.reliability = faulty(seed);
    model.switch.set_enabled(true);
    let net = &model.net;
    let compile = |c: &DeployConfig| {
        SpikingNetwork::compile(net, c, None).map_err(|e| format!("compile: {e:?}"))
    };
    let clean = compile(&clean_config)?;
    let faulted = compile(&faulted_config)?;
    layers.put(
        "memristor.compile_ms",
        time_us(|| drop(black_box(compile(&clean_config)))) / 1e3,
    );
    layers.put(
        "memristor.faulted.compile_ms",
        time_us(|| drop(black_box(compile(&faulted_config)))) / 1e3,
    );

    let b1 = model::batch(inputs, &[0]);
    let ids: Vec<u32> = (0..SERVE_BATCH as u32).collect();
    let b8 = model::batch(inputs, &ids);
    let mut out = Vec::new();
    layers.put(
        "memristor.infer_batch.b1_us",
        time_us(|| {
            black_box(clean.infer_batch_into(&b1, &mut out));
        }),
    );
    layers.put(
        "memristor.infer_batch.b8_us",
        time_us(|| {
            black_box(clean.infer_batch_into(&b8, &mut out));
        }),
    );
    layers.put(
        "memristor.faulted.infer_batch.b8_us",
        time_us(|| {
            black_box(faulted.infer_batch_into(&b8, &mut out));
        }),
    );

    let dims = model::KIND.input_dims();
    let provenance = model::provenance();
    let bytes =
        encode_artifact(&clean, &dims, &provenance).map_err(|e| format!("encode: {e:?}"))?;
    layers.put(
        "memristor.artifact.encode_us",
        time_us(|| drop(black_box(encode_artifact(&clean, &dims, &provenance)))),
    );
    layers.put(
        "memristor.artifact.decode_us",
        time_us(|| drop(black_box(decode_artifact(&bytes)))),
    );
    let path = out_dir.join("calls.qsnca");
    layers.put(
        "core.deploy_ms",
        time_us(|| {
            let snn = deploy_to_snc(net, &quant, None).expect("deploy compiled once already");
            export_artifact(&snn, model::KIND, &quant, 0, &path).expect("artifact write");
        }) / 1e3,
    );

    let mut frame = Vec::new();
    qsnc_serve::protocol::write_request_tagged(&mut frame, 7, &inputs[0])
        .map_err(|e| e.to_string())?;
    let mut decoded = Vec::with_capacity(inputs[0].len());
    layers.put(
        "serve.protocol.decode_us",
        time_us(|| {
            let view = qsnc_serve::protocol::parse_frame(&frame)
                .expect("well-formed")
                .expect("complete");
            let payload = &frame[view.payload_start..view.payload_start + view.payload_len];
            qsnc_serve::protocol::decode_infer_payload(
                view.op,
                payload,
                inputs[0].len(),
                &mut decoded,
            )
            .expect("valid");
            black_box(&decoded);
        }),
    );
    clean.infer_batch_into(&b1, &mut out);
    let mut reply = Vec::new();
    layers.put(
        "serve.protocol.encode_us",
        time_us(|| {
            reply.clear();
            qsnc_serve::protocol::encode_ok_reply(
                &mut reply,
                Some(7),
                model::argmax(&out) as u32,
                &out,
            );
            black_box(&reply);
        }),
    );

    // Signal sparsity of the quantized forward pass: the zero share the
    // integer kernels below are fed.
    let net = &mut model.net;
    let forward_batch = model::batch(inputs, &(0..TRAIN_BATCH as u32).collect::<Vec<_>>());
    let (_, snap) = recorded(|| net.forward(&forward_batch, Mode::Eval));
    let zero_frac = ratio(
        counter(&snap, "quant.signal.zeros"),
        counter(&snap, "quant.signal.elements"),
    );
    layers.put(
        "nn.forward_quantized_us",
        time_us(|| drop(black_box(net.forward(&b1, Mode::Eval)))),
    );

    let s = shapes(net);
    let mut codes = Vec::new();
    for p in net.params().into_iter().filter(|p| p.is_weight) {
        codes.push(qsnc_quant::cluster_weights(p.value, quant.weight_bits).codes);
    }
    let max_level = 1 << (quant.activation_bits - 1);
    let mut rng = crate::open_loop::Rng::new(seed);
    let mut conv_runs = Vec::new();
    for (i, &(in_c, out_c, spec, side)) in s.convs.iter().enumerate() {
        let ckk = in_c * spec.kernel * spec.kernel;
        let packed = PackedCodes::try_pack(&codes[i], out_c, ckk).ok_or("codes exceed i8")?;
        let pix = spec.output_size(side).pow(2);
        conv_runs.push((
            counts(in_c * side * side, zero_frac, max_level, &mut rng),
            in_c,
            side,
            spec,
            packed,
            vec![0i32; out_c * pix],
        ));
    }
    layers.put(
        "tensor.igemm_conv_us",
        time_us(|| {
            for (src, in_c, side, spec, packed, c) in conv_runs.iter_mut() {
                c.fill(0);
                qsnc_tensor::igemm_conv(src, *in_c, (*side, *side), *spec, packed, c);
                black_box(&c);
            }
        }),
    );
    let mut fc_runs = Vec::new();
    for (i, &(k, n)) in s.fcs.iter().enumerate() {
        let packed =
            PackedCodes::try_pack(&codes[s.convs.len() + i], n, k).ok_or("codes exceed i8")?;
        fc_runs.push((
            counts(SERVE_BATCH * k, zero_frac, max_level, &mut rng),
            k,
            n,
            packed,
            vec![0i32; SERVE_BATCH * n],
        ));
    }
    layers.put(
        "tensor.igemm_us",
        time_us(|| {
            for (a, k, n, packed, c) in fc_runs.iter_mut() {
                c.fill(0);
                qsnc_tensor::igemm(SERVE_BATCH, *k, *n, a, packed, c);
                black_box(&c);
            }
        }),
    );
    let dense = |len: usize, rng: &mut crate::open_loop::Rng| -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.unit() < zero_frac {
                    0.0
                } else {
                    rng.unit() as f32
                }
            })
            .collect()
    };
    let mut gemms = Vec::new();
    for &(in_c, out_c, spec, side) in &s.convs {
        let (ckk, pix) = (
            in_c * spec.kernel * spec.kernel,
            spec.output_size(side).pow(2),
        );
        gemms.push((
            TRAIN_BATCH,
            out_c,
            ckk,
            pix,
            dense(out_c * ckk, &mut rng),
            dense(ckk * pix, &mut rng),
        ));
    }
    for &(k, n) in &s.fcs {
        gemms.push((
            1,
            TRAIN_BATCH,
            k,
            n,
            dense(TRAIN_BATCH * k, &mut rng),
            dense(k * n, &mut rng),
        ));
    }
    let mut c = Vec::new();
    layers.put(
        "tensor.gemm_us",
        time_us(|| {
            for (reps, m, k, n, a, b) in &gemms {
                for _ in 0..*reps {
                    c.clear();
                    c.resize(m * n, 0.0);
                    qsnc_tensor::gemm(*m, *k, *n, a, b, &mut c);
                    black_box(&c);
                }
            }
        }),
    );

    let labels: Vec<usize> = (0..TRAIN_BATCH).map(|i| i % 10).collect();
    layers.put(
        "nn.forward_ms",
        time_us(|| drop(black_box(net.forward(&forward_batch, Mode::Train)))) / 1e3,
    );
    let (mut backward_us, started) = (Vec::new(), std::time::Instant::now());
    while backward_us.len() < MIN_REPS || started.elapsed() < CALL_BUDGET {
        let logits = net.forward(&forward_batch, Mode::Train);
        let grad = qsnc_nn::loss::softmax_cross_entropy(&logits, &labels).1;
        let t0 = std::time::Instant::now();
        black_box(net.backward(&grad));
        backward_us.push(t0.elapsed().as_secs_f64() * 1e6);
        net.zero_grad();
    }
    layers.put("nn.backward_ms", crate::stats::median(&backward_us) / 1e3);
    let weights: Vec<Tensor> = net
        .params()
        .into_iter()
        .filter(|p| p.is_weight)
        .map(|p| p.value.clone())
        .collect();
    layers.put(
        "quant.cluster_ms",
        time_us(|| {
            for w in &weights {
                black_box(qsnc_quant::cluster_weights(w, quant.weight_bits));
            }
        }) / 1e3,
    );
    layers.put(
        "data.synth_ms",
        time_us(|| {
            drop(black_box(qsnc_data::synth_digits(
                model::EXAMPLES,
                &mut qsnc_tensor::TensorRng::seed(seed),
            )))
        }) / 1e3,
    );

    const PROBES: usize = 10_000;
    let (observe_ns, _) = recorded(|| {
        time_us(|| {
            (0..PROBES)
                .for_each(|i| qsnc_telemetry::quantile_observe("perfbench.probe.us", i as f64))
        }) * 1e3
            / PROBES as f64
    });
    let (add_ns, _) = recorded(|| {
        time_us(|| (0..PROBES).for_each(|_| qsnc_telemetry::counter_add("perfbench.probe", 1)))
            * 1e3
            / PROBES as f64
    });
    layers.put("telemetry.quantile_observe_ns", observe_ns);
    layers.put("telemetry.counter_add_ns", add_ns);
    Ok(())
}
