//! 2-D convolution layer: [`qsnc_tensor::conv2d`] forward in both modes, and
//! the column-free gradient kernels [`conv2d_weight_grad`] and
//! [`conv2d_input_grad`] backward, bit-identical to the batched
//! im2col/col2im formulation.

use crate::layer::{Layer, LayerDesc, Mode, Param};
use qsnc_tensor::{conv2d_input_grad, conv2d_weight_grad, Conv2dSpec, Tensor, TensorRng};

/// A 2-D convolution over `[n, c, h, w]` inputs with square kernels.
///
/// Weights are stored `[f, c, k, k]`; biases `[f]`. Initialization is
/// Kaiming/He normal, appropriate for the ReLU networks of the paper.
#[derive(Debug, Clone)]
pub struct Conv2d {
    label: String,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
    // The input of the last training-mode forward, for backward.
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        label: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        spec: Conv2dSpec,
        rng: &mut TensorRng,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0, "channel counts must be positive");
        let k = spec.kernel;
        let fan_in = in_channels * k * k;
        let weight =
            qsnc_tensor::init::he_normal([out_channels, in_channels, k, k], fan_in, rng);
        Conv2d {
            label: label.into(),
            grad_weight: Tensor::zeros(weight.dims()),
            weight,
            bias: Tensor::zeros([out_channels]),
            grad_bias: Tensor::zeros([out_channels]),
            spec,
            in_channels,
            out_channels,
            cached_input: None,
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Immutable view of the filter tensor `[f, c, k, k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable view of the per-filter bias `[f]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Replaces the filter tensor (used by quantization passes).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the current weights.
    pub fn set_weight(&mut self, weight: Tensor) {
        assert_eq!(weight.shape(), self.weight.shape(), "weight shape mismatch");
        self.weight = weight;
    }

    /// Adds this step's weight and bias gradients to the accumulators and
    /// returns the input's spatial size `(h, w)`.
    fn accumulate_param_grads(&mut self, grad: &Tensor) -> (usize, usize) {
        let x = self
            .cached_input
            .as_ref()
            .expect("conv2d backward called before training-mode forward");
        let (n, h, w) = (x.dims()[0], x.dims()[2], x.dims()[3]);
        let f = self.out_channels;
        let (oh, ow) = (self.spec.output_size(h), self.spec.output_size(w));
        assert_eq!(grad.dims(), &[n, f, oh, ow], "conv2d grad shape mismatch");
        // dW and db in one pass over the gradient: each filter's bias chain
        // runs image by image, pixel by pixel, beside its weight chains —
        // the row sums of the gradient laid out `[f, n·oh·ow]`.
        let (dw, db) = conv2d_weight_grad(x, grad, self.spec);
        self.grad_weight += &dw;
        self.grad_bias += &db;

        (h, w)
    }
}

impl Layer for Conv2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "conv2d expects [n,c,h,w], got {}", x.shape());
        assert_eq!(
            x.dims()[1],
            self.in_channels,
            "conv2d {} expects {} input channels, got {}",
            self.label,
            self.in_channels,
            x.dims()[1]
        );
        if mode == Mode::Train {
            self.cached_input = Some(x.clone());
        }
        qsnc_tensor::conv2d(x, &self.weight, Some(&self.bias), self.spec)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let hw = self.accumulate_param_grads(grad);
        conv2d_input_grad(grad, &self.weight, hw, self.spec)
    }

    fn backward_params(&mut self, grad: &Tensor) {
        self.accumulate_param_grads(grad);
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                name: format!("{}.weight", self.label),
                value: &mut self.weight,
                grad: &mut self.grad_weight,
                is_weight: true,
            },
            Param {
                name: format!("{}.bias", self.label),
                value: &mut self.bias,
                grad: &mut self.grad_bias,
                is_weight: false,
            },
        ]
    }

    fn descriptor(&self) -> LayerDesc {
        LayerDesc::Conv {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.spec.kernel,
            stride: self.spec.stride,
            padding: self.spec.padding,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape() {
        let mut rng = TensorRng::seed(0);
        let mut layer = Conv2d::new("c", 3, 8, Conv2dSpec::new(3, 1, 1), &mut rng);
        let x = qsnc_tensor::init::uniform([2, 3, 8, 8], -1.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn matches_reference_conv() {
        let mut rng = TensorRng::seed(1);
        let spec = Conv2dSpec::new(3, 1, 1);
        let mut layer = Conv2d::new("c", 2, 4, spec, &mut rng);
        let x = qsnc_tensor::init::uniform([1, 2, 6, 6], -1.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Eval);
        let reference =
            qsnc_tensor::conv2d_direct(&x, layer.weight(), Some(&Tensor::zeros([4])), spec);
        for (a, b) in y.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn backward_shapes_and_accumulation() {
        let mut rng = TensorRng::seed(2);
        let mut layer = Conv2d::new("c", 2, 3, Conv2dSpec::new(3, 1, 0), &mut rng);
        let x = qsnc_tensor::init::uniform([2, 2, 5, 5], -1.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Train);
        let g = Tensor::ones(y.dims());
        let dx = layer.backward(&g);
        assert_eq!(dx.dims(), x.dims());
        let norm1 = layer.grad_weight.norm_l2();
        assert!(norm1 > 0.0);
        // Second backward accumulates.
        layer.forward(&x, Mode::Train);
        layer.backward(&g);
        assert!(layer.grad_weight.norm_l2() > norm1);
        layer.zero_grad();
        assert_eq!(layer.grad_weight.norm_l2(), 0.0);
    }

    #[test]
    #[should_panic(expected = "backward called before")]
    fn backward_without_forward_panics() {
        let mut rng = TensorRng::seed(3);
        let mut layer = Conv2d::new("c", 1, 1, Conv2dSpec::new(3, 1, 0), &mut rng);
        layer.backward(&Tensor::zeros([1, 1, 1, 1]));
    }

    #[test]
    fn descriptor_reports_shape() {
        let mut rng = TensorRng::seed(4);
        let layer = Conv2d::new("c", 3, 16, Conv2dSpec::new(5, 1, 2), &mut rng);
        assert_eq!(
            layer.descriptor(),
            LayerDesc::Conv {
                in_channels: 3,
                out_channels: 16,
                kernel: 5,
                stride: 1,
                padding: 2
            }
        );
        assert_eq!(layer.descriptor().weight_count(), 3 * 16 * 25);
    }
}
