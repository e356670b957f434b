//! Fully connected (dense) layer.

use crate::layer::{Layer, LayerDesc, Mode, Param};
use qsnc_tensor::{matmul, transpose, Tensor, TensorRng};

/// A fully connected layer: `y = x · Wᵀ + b` over `[n, in]` inputs.
///
/// Weights are stored `[out, in]` so each output row maps directly onto one
/// crossbar column in the memristor deployment.
#[derive(Debug, Clone)]
pub struct Linear {
    label: String,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a dense layer with Xavier-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(
        label: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut TensorRng,
    ) -> Self {
        assert!(in_features > 0 && out_features > 0, "feature counts must be positive");
        let weight = qsnc_tensor::init::xavier_uniform(
            [out_features, in_features],
            in_features,
            out_features,
            rng,
        );
        Linear {
            label: label.into(),
            grad_weight: Tensor::zeros(weight.dims()),
            weight,
            bias: Tensor::zeros([out_features]),
            grad_bias: Tensor::zeros([out_features]),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Immutable view of the weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Immutable view of the bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Replaces the weight matrix (used by quantization passes).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the current weights.
    pub fn set_weight(&mut self, weight: Tensor) {
        assert_eq!(weight.shape(), self.weight.shape(), "weight shape mismatch");
        self.weight = weight;
    }

    /// Adds this step's weight and bias gradients to the accumulators.
    fn accumulate_param_grads(&mut self, grad: &Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("linear backward called before training-mode forward");
        let n = x.dims()[0];
        assert_eq!(grad.dims(), &[n, self.out_features], "linear grad shape mismatch");

        // dW = gradᵀ · x
        let dw = matmul(&transpose(grad), x);
        self.grad_weight += &dw;

        // db = column sums of grad.
        {
            let gb = self.grad_bias.as_mut_slice();
            let gs = grad.as_slice();
            for r in 0..n {
                for (o, g) in gb.iter_mut().zip(&gs[r * self.out_features..]) {
                    *o += g;
                }
            }
        }
    }
}

impl Layer for Linear {
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
        "linear"
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "linear expects [n, features], got {}", x.shape());
        assert_eq!(
            x.dims()[1],
            self.in_features,
            "linear {} expects {} features, got {}",
            self.label,
            self.in_features,
            x.dims()[1]
        );
        // W is stored [out, in]; the transposed copy lets the product run on
        // the SIMD GEMM, which beats a dot-product loop over W's rows.
        let mut out = matmul(x, &transpose(&self.weight));
        for row in out.as_mut_slice().chunks_exact_mut(self.out_features) {
            for (o, &b) in row.iter_mut().zip(self.bias.as_slice()) {
                *o += b;
            }
        }
        if mode == Mode::Train {
            self.cached_input = Some(x.clone());
        }
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.accumulate_param_grads(grad);
        // dx = grad · W
        matmul(grad, &self.weight)
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
        LayerDesc::Linear {
            in_features: self.in_features,
            out_features: self.out_features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual() {
        let mut rng = TensorRng::seed(0);
        let mut layer = Linear::new("fc", 3, 2, &mut rng);
        layer.set_weight(Tensor::from_vec(
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            [2, 3],
        ));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let y = layer.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[1.0, 5.0]);
    }

    #[test]
    fn backward_gradients() {
        let mut rng = TensorRng::seed(1);
        let mut layer = Linear::new("fc", 2, 2, &mut rng);
        layer.set_weight(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        layer.forward(&x, Mode::Train);
        let dx = layer.backward(&Tensor::from_vec(vec![1.0, 0.0], [1, 2]));
        // dx = grad · W = [1, 0]·[[1,2],[3,4]] = [1, 2]
        assert_eq!(dx.as_slice(), &[1.0, 2.0]);
        // dW = gradᵀ · x = [[1],[0]]·[1,1] = [[1,1],[0,0]]
        assert_eq!(layer.grad_weight.as_slice(), &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(layer.grad_bias.as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn batch_forward() {
        let mut rng = TensorRng::seed(2);
        let mut layer = Linear::new("fc", 4, 3, &mut rng);
        let x = qsnc_tensor::init::uniform([5, 4], -1.0, 1.0, &mut rng);
        let y = layer.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[5, 3]);
    }

    #[test]
    #[should_panic(expected = "expects 4 features")]
    fn wrong_feature_count_panics() {
        let mut rng = TensorRng::seed(3);
        let mut layer = Linear::new("fc", 4, 3, &mut rng);
        layer.forward(&Tensor::zeros([1, 5]), Mode::Eval);
    }

    #[test]
    fn descriptor() {
        let mut rng = TensorRng::seed(4);
        let layer = Linear::new("fc", 4, 3, &mut rng);
        assert_eq!(
            layer.descriptor(),
            LayerDesc::Linear {
                in_features: 4,
                out_features: 3
            }
        );
    }
}
