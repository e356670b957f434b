//! The network every workload deploys: a 4-bit LeNet (width 0.5) trained
//! quantization-aware on `synth_digits`, all from the workload seed.

use qsnc_core::{train_quant_aware, QuantConfig, QuantizedModel, TrainSettings};
use qsnc_data::Dataset;
use qsnc_nn::ModelKind;
use qsnc_tensor::{Tensor, TensorRng};

pub const KIND: ModelKind = ModelKind::Lenet;
pub const WIDTH: f32 = 0.5;
/// Generated examples; two thirds train, one third is the held-out split
/// every workload's requests and accuracy checks draw from.
pub const EXAMPLES: usize = 1500;
const TRAIN_FRACTION: f32 = 2.0 / 3.0;
/// Float-phase epochs; `QuantConfig::paper` adds its own fine-tune epochs.
/// With this schedule and learning rate every seed probed trains to a
/// usable network (with two epochs at the default rate of 0.05 some seeds
/// collapse to chance, which would make accuracy a measure of the seed).
pub const EPOCHS: usize = 3;
const LEARNING_RATE: f32 = 0.02;
/// The serve micro-batcher's default batch size, used wherever a workload
/// batches in-process.
pub const SERVE_BATCH: usize = 8;

pub fn quant() -> QuantConfig {
    QuantConfig::paper(4, 4)
}

/// The provenance record of an artifact trained in-process (no checkpoint
/// file, so digest 0).
pub fn provenance() -> qsnc_memristor::Provenance {
    let quant = quant();
    qsnc_memristor::Provenance {
        checkpoint_digest: 0,
        weight_bits: quant.weight_bits,
        activation_bits: quant.activation_bits,
        model: KIND.to_string(),
    }
}

pub fn settings() -> TrainSettings {
    TrainSettings {
        epochs: EPOCHS,
        lr: LEARNING_RATE,
        ..TrainSettings::default()
    }
}

/// `(train, held_out)` from the seed.
pub fn dataset(seed: u64) -> (Dataset, Dataset) {
    qsnc_data::synth_digits(EXAMPLES, &mut TensorRng::seed(seed)).split(TRAIN_FRACTION)
}

pub fn train(seed: u64, train: &Dataset, held_out: &Dataset) -> QuantizedModel {
    train_quant_aware(KIND, WIDTH, &settings(), &quant(), train, held_out, seed)
}

/// Examples seen by one `train_quant_aware` call.
pub fn examples_trained(train: &Dataset) -> usize {
    train.len() * (EPOCHS + quant().finetune_epochs)
}

/// The held-out split as flat per-example inputs.
pub fn inputs(held_out: &Dataset) -> Vec<Vec<f32>> {
    let stride: usize = held_out.example_dims().iter().product();
    held_out
        .images()
        .as_slice()
        .chunks_exact(stride)
        .map(<[f32]>::to_vec)
        .collect()
}

/// Stacks the chosen inputs into one `[B, C, H, W]` batch.
pub fn batch(inputs: &[Vec<f32>], chosen: &[u32]) -> Tensor {
    let dims = KIND.input_dims();
    let mut data = Vec::with_capacity(chosen.len() * inputs[0].len());
    for &i in chosen {
        data.extend_from_slice(&inputs[i as usize]);
    }
    Tensor::from_vec(data, [chosen.len(), dims[0], dims[1], dims[2]])
}

/// Index of the largest logit.
pub fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |best, (i, &v)| {
            if v > best.1 {
                (i, v)
            } else {
                best
            }
        })
        .0
}

/// Runs every input through `net` in batches of [`SERVE_BATCH`], returning
/// per-input logits and whether the integer fast path ran.
pub fn logits_of(
    net: &qsnc_memristor::SpikingNetwork,
    inputs: &[Vec<f32>],
) -> (Vec<Vec<f32>>, bool) {
    let mut out = Vec::new();
    let mut all = Vec::with_capacity(inputs.len());
    let mut fast = true;
    let ids: Vec<u32> = (0..inputs.len() as u32).collect();
    for chunk in ids.chunks(SERVE_BATCH) {
        fast &= net.infer_batch_into(&batch(inputs, chunk), &mut out);
        let per = out.len() / chunk.len();
        all.extend(out.chunks_exact(per).map(<[f32]>::to_vec));
    }
    (all, fast)
}

/// Share of inputs whose logits' argmax matches the label.
pub fn accuracy(logits: &[Vec<f32>], labels: &[usize]) -> f64 {
    let correct = logits
        .iter()
        .zip(labels)
        .filter(|(l, &y)| argmax(l) == y)
        .count();
    correct as f64 / labels.len().max(1) as f64
}

/// Bitwise equality of two logit vectors.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
