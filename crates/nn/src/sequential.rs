//! The [`Sequential`] network container.

use crate::layer::{Layer, LayerDesc, Mode, Param};
use qsnc_tensor::Tensor;

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// `Sequential` is the single network type in qsnc — residual topologies are
/// expressed through the [`Residual`](crate::layers::Residual) layer, and
/// quantization-aware training inserts extra layers from `qsnc-quant`
/// between the standard ones.
///
/// # Examples
///
/// ```
/// use qsnc_nn::{Sequential, Mode};
/// use qsnc_nn::layers::{Linear, Relu};
/// use qsnc_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new("fc1", 4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Linear::new("fc2", 8, 2, &mut rng));
///
/// let x = Tensor::zeros([1, 4]);
/// let logits = net.forward(&x, Mode::Eval);
/// assert_eq!(logits.dims(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential").field("layers", &names).finish()
    }
}

impl Clone for Sequential {
    /// Deep copy via [`Layer::clone_layer`]: parameters, configuration, and
    /// running statistics are copied; shared handles (the quantization
    /// switch) stay shared. Batch-parallel evaluation clones one network
    /// per worker thread this way.
    fn clone(&self) -> Self {
        Sequential {
            layers: self.layers.iter().map(|l| l.clone_layer()).collect(),
        }
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layer stack.
    pub fn layers_mut(&mut self) -> &mut Vec<Box<dyn Layer>> {
        &mut self.layers
    }

    /// Runs a forward pass through every layer.
    ///
    /// When telemetry is recording, each layer's wall-clock time is tracked
    /// under the span `nn.forward.{index:02}.{name}` and the network output
    /// contributes to the `nn.forward.elements` / `nn.forward.zeros`
    /// sparsity counters.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        // `None` until the first layer has run on the caller's `x`.
        let mut h: Option<Tensor> = None;
        let instrument = qsnc_telemetry::enabled();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let _span = if instrument {
                Some(qsnc_telemetry::start_span(format!(
                    "nn.forward.{i:02}.{}",
                    layer.name()
                )))
            } else {
                None
            };
            h = Some(layer.forward(h.as_ref().unwrap_or(x), mode));
        }
        let h = h.unwrap_or_else(|| x.clone());
        if instrument {
            let zeros = h.iter().filter(|&&v| v == 0.0).count() as u64;
            qsnc_telemetry::counter_add("nn.forward.elements", h.len() as u64);
            qsnc_telemetry::counter_add("nn.forward.zeros", zeros);
        }
        h
    }

    /// Propagates a loss gradient backwards through every layer,
    /// accumulating parameter gradients. The first layer runs
    /// [`Layer::backward_params`]: nothing consumes the gradient with
    /// respect to the network input, so it is not computed.
    ///
    /// When telemetry is recording, each layer's wall-clock time is tracked
    /// under the span `nn.backward.{index:02}.{name}`.
    pub fn backward(&mut self, grad: &Tensor) {
        // `None` until the last layer has run on the caller's `grad`.
        let mut g: Option<Tensor> = None;
        let instrument = qsnc_telemetry::enabled();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let _span = if instrument {
                Some(qsnc_telemetry::start_span(format!(
                    "nn.backward.{i:02}.{}",
                    layer.name()
                )))
            } else {
                None
            };
            let upstream = g.as_ref().unwrap_or(grad);
            if i == 0 {
                layer.backward_params(upstream);
            } else {
                g = Some(layer.backward(upstream));
            }
        }
    }

    /// Mutable views of every learnable parameter in network order.
    pub fn params(&mut self) -> Vec<Param<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Clears all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total regularization loss across all layers (e.g. the Neuron
    /// Convergence terms added by `qsnc-quant`). Valid after a forward pass.
    pub fn regularization_loss(&self) -> f32 {
        self.layers.iter().map(|l| l.regularization_loss()).sum()
    }

    /// Most recent activation snapshots from layers that expose one (ReLU
    /// taps), in network order. Used by the Fig. 4 histogram experiment.
    pub fn activation_taps(&self) -> Vec<Tensor> {
        self.layers.iter().filter_map(|l| l.output_tap()).collect()
    }

    /// Structural descriptors of all synaptic layers, including those nested
    /// in residual blocks, in network order. This is the input to the Eq. 1
    /// crossbar mapper.
    pub fn synaptic_descriptors(&self) -> Vec<LayerDesc> {
        let mut out = Vec::new();
        for layer in &self.layers {
            let d = layer.descriptor();
            if d.is_synaptic() {
                out.push(d);
            } else if let Some(nested) = layer.nested_descriptors() {
                out.extend(nested);
            }
        }
        out
    }

    /// Total synaptic weight count (Table 1's "Weights" row).
    pub fn weight_count(&self) -> usize {
        self.synaptic_descriptors()
            .iter()
            .map(LayerDesc::weight_count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu};
    use qsnc_tensor::TensorRng;

    fn tiny_net(rng: &mut TensorRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Linear::new("fc1", 4, 8, rng));
        net.push(Relu::new());
        net.push(Linear::new("fc2", 8, 3, rng));
        net
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = TensorRng::seed(0);
        let mut net = tiny_net(&mut rng);
        let x = qsnc_tensor::init::uniform([5, 4], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[5, 3]);
        // Each layer's backward returns a gradient shaped like its input.
        let mut g = Tensor::ones([5, 3]);
        for (layer, dims) in net.layers.iter_mut().rev().zip([[5, 8], [5, 8], [5, 4]]) {
            g = layer.backward(&g);
            assert_eq!(g.dims(), &dims);
        }
    }

    #[test]
    fn backward_params_gradients_match_a_full_backward() {
        let x = qsnc_tensor::init::uniform([5, 4], -1.0, 1.0, &mut TensorRng::seed(9));
        let g = Tensor::ones([5, 3]);
        let mut skipped = tiny_net(&mut TensorRng::seed(4));
        skipped.forward(&x, Mode::Train);
        skipped.backward(&g);
        let mut full = tiny_net(&mut TensorRng::seed(4));
        full.forward(&x, Mode::Train);
        let mut dx = g.clone();
        for layer in full.layers.iter_mut().rev() {
            dx = layer.backward(&dx);
        }
        for (a, b) in skipped.params().iter().zip(full.params().iter()) {
            let bits = |t: &Tensor| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.grad), bits(b.grad), "{}", a.name);
        }
    }

    #[test]
    fn params_enumerates_all() {
        let mut rng = TensorRng::seed(1);
        let mut net = tiny_net(&mut rng);
        let params = net.params();
        assert_eq!(params.len(), 4);
        assert_eq!(params[0].name, "fc1.weight");
        assert!(params[0].is_weight);
        assert!(!params[1].is_weight);
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = TensorRng::seed(2);
        let mut net = tiny_net(&mut rng);
        let x = qsnc_tensor::init::uniform([2, 4], -1.0, 1.0, &mut rng);
        net.forward(&x, Mode::Train);
        net.backward(&Tensor::ones([2, 3]));
        assert!(net.params().iter().any(|p| p.grad.norm_l2() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad.norm_l2() == 0.0));
    }

    #[test]
    fn taps_follow_relu() {
        let mut rng = TensorRng::seed(3);
        let mut net = tiny_net(&mut rng);
        let x = qsnc_tensor::init::uniform([2, 4], -1.0, 1.0, &mut rng);
        net.forward(&x, Mode::Eval);
        let taps = net.activation_taps();
        assert_eq!(taps.len(), 1);
        assert_eq!(taps[0].dims(), &[2, 8]);
    }

    #[test]
    fn descriptors_and_weight_count() {
        let mut rng = TensorRng::seed(4);
        let mut net = Sequential::new();
        net.push(Flatten::new());
        net.push(Linear::new("fc", 10, 5, &mut rng));
        let desc = net.synaptic_descriptors();
        assert_eq!(desc.len(), 1);
        assert_eq!(net.weight_count(), 50);
    }
}
