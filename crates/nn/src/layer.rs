//! The [`Layer`] trait: the unit of composition for every network in qsnc.

use qsnc_tensor::Tensor;

/// Whether a forward pass is part of training or inference.
///
/// Training mode enables behaviour like dropout masking and batch-norm
/// statistics updates; evaluation mode uses running statistics and disables
/// stochastic regularizers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Forward pass during training (caches state for backward).
    Train,
    /// Forward pass during inference.
    Eval,
}

/// A mutable view of one learnable parameter and its gradient accumulator.
///
/// Returned by [`Layer::params`]; optimizers iterate these views to apply
/// updates, and the weight-quantization passes in `qsnc-quant` use them to
/// rewrite weights in place.
#[derive(Debug)]
pub struct Param<'a> {
    /// Human-readable identifier, e.g. `"conv1.weight"`.
    pub name: String,
    /// The parameter tensor.
    pub value: &'a mut Tensor,
    /// Gradient of the loss with respect to `value`, accumulated by
    /// `backward`.
    pub grad: &'a mut Tensor,
    /// `true` for weight matrices/filters that should be quantized and decay;
    /// `false` for biases and batch-norm affine parameters.
    pub is_weight: bool,
}

/// Structural description of a layer, used by the crossbar mapper (Eq. 1 of
/// the paper) and the report generators.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum LayerDesc {
    /// 2-D convolution with `out_channels` filters of size
    /// `kernel × kernel × in_channels`.
    Conv {
        /// Input channel count (the paper's `d_i = J^{i-1}`).
        in_channels: usize,
        /// Filter count (the paper's `J^i`).
        out_channels: usize,
        /// Square kernel size (the paper's `s_i`).
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Fully connected layer `out × in`.
    Linear {
        /// Input feature count.
        in_features: usize,
        /// Output feature count.
        out_features: usize,
    },
    /// A layer with no synaptic weights (activation, pooling, reshape…).
    Other,
}

/// One stage of a feed-forward network.
///
/// A layer owns its parameters and the activations it must remember between
/// `forward` and `backward`. Calling [`backward`](Layer::backward) before a
/// training-mode [`forward`](Layer::forward) is a logic error and may panic.
///
/// The trait is object-safe: networks store `Box<dyn Layer>`, which lets the
/// quantization crate interleave its fake-quantization and regularizer
/// layers with the standard ones defined here.
///
/// `Send + Sync` are supertraits so a network can be shared immutably with
/// worker threads, which then make their own mutable copies via
/// [`clone_layer`](Layer::clone_layer) for batch-parallel evaluation. Layers
/// hold plain data (or thread-safe handles like the quantization switch), so
/// this costs implementations nothing.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Short human-readable layer kind, e.g. `"conv2d"`.
    fn name(&self) -> &'static str;

    /// Upcast for downcasting to the concrete layer type; deployment code
    /// (the memristor mapper) uses this to read layer internals.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable upcast for downcasting, used by calibration passes that
    /// rewrite layer internals in place.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Boxed deep copy of the layer: parameters, configuration, and running
    /// statistics. Cached training activations may or may not be copied —
    /// a clone is only guaranteed ready for `forward`, not `backward`.
    ///
    /// Batch-parallel evaluation relies on this to give every worker thread
    /// its own copy of the network, since `forward` takes `&mut self`.
    /// Stages sharing state through handles (e.g. a quantization switch)
    /// share that state with their clones.
    fn clone_layer(&self) -> Box<dyn Layer>;

    /// Computes the layer output for `x`.
    ///
    /// In [`Mode::Train`], the layer caches whatever it needs for
    /// [`backward`](Layer::backward).
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Propagates `grad` (∂loss/∂output) backwards, accumulating parameter
    /// gradients and returning ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if no training-mode forward preceded this
    /// call or if `grad` has the wrong shape.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// Like [`backward`](Layer::backward), but only accumulates parameter
    /// gradients: ∂loss/∂input is not wanted. A network's first layer is
    /// run this way, since the gradient with respect to the training
    /// images is never used. Layers whose input gradient costs a product
    /// of its own (convolution, fully connected) skip it.
    fn backward_params(&mut self, grad: &Tensor) {
        self.backward(grad);
    }

    /// Mutable views of the layer's learnable parameters, if any.
    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }

    /// Extra loss contributed by the layer (e.g. an activation
    /// regularizer). Evaluated after `forward`.
    fn regularization_loss(&self) -> f32 {
        0.0
    }

    /// A copy of the layer's most recent output, when the layer chooses to
    /// expose one (used for activation histograms, Fig. 4 of the paper).
    ///
    /// Layers record the tap on [`Mode::Eval`] forwards only, so training
    /// pays no copy per step; a [`Mode::Train`] forward clears it, so a tap
    /// read after training is `None` rather than stale. Run an Eval forward
    /// before reading it.
    fn output_tap(&self) -> Option<Tensor> {
        None
    }

    /// Structural description for hardware mapping and reporting.
    fn descriptor(&self) -> LayerDesc {
        LayerDesc::Other
    }

    /// Descriptors of synaptic layers nested inside this layer, for
    /// container layers such as residual blocks. `None` for plain layers.
    fn nested_descriptors(&self) -> Option<Vec<LayerDesc>> {
        None
    }

    /// Mutable access to nested layer stacks, for container layers. Used by
    /// `qsnc-quant` to splice fake-quantization stages inside residual
    /// blocks. Plain layers return an empty vector.
    fn inner_stacks_mut(&mut self) -> Vec<&mut Vec<Box<dyn Layer>>> {
        Vec::new()
    }

    /// Clears all accumulated parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params() {
            p.grad.fill(0.0);
        }
    }
}

impl LayerDesc {
    /// Number of synaptic weights this layer contributes (excluding biases),
    /// matching the "Weights" row of Table 1.
    pub fn weight_count(&self) -> usize {
        match *self {
            LayerDesc::Conv {
                in_channels,
                out_channels,
                kernel,
                ..
            } => in_channels * out_channels * kernel * kernel,
            LayerDesc::Linear {
                in_features,
                out_features,
            } => in_features * out_features,
            LayerDesc::Other => 0,
        }
    }

    /// Returns `true` for layers with synaptic weights (conv / linear).
    pub fn is_synaptic(&self) -> bool {
        !matches!(self, LayerDesc::Other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_count_conv() {
        let d = LayerDesc::Conv {
            in_channels: 3,
            out_channels: 8,
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        assert_eq!(d.weight_count(), 3 * 8 * 25);
        assert!(d.is_synaptic());
    }

    #[test]
    fn weight_count_linear_and_other() {
        let d = LayerDesc::Linear {
            in_features: 10,
            out_features: 4,
        };
        assert_eq!(d.weight_count(), 40);
        assert_eq!(LayerDesc::Other.weight_count(), 0);
        assert!(!LayerDesc::Other.is_synaptic());
    }
}
