//! Activation layers.

use crate::layer::{Layer, Mode};
use qsnc_tensor::Tensor;

/// Rectified linear unit: `max(x, 0)`.
///
/// ReLU outputs are the "inter-layer signals" the paper's Neuron Convergence
/// regularizer acts on; the layer therefore exposes its most recent Eval
/// output through [`Layer::output_tap`] so experiment code can histogram it
/// (Fig. 4).
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
    tap: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
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
        "relu"
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Eval {
            let y = x.relu();
            self.tap = Some(y.clone());
            return y;
        }
        // Output and mask in one pass, reusing the last mask's buffer.
        let mut data = vec![0.0f32; x.len()];
        let mut mask = self.mask.take().unwrap_or_default();
        mask.clear();
        mask.resize(x.len(), false);
        for ((y, m), &v) in data.iter_mut().zip(mask.iter_mut()).zip(x.iter()) {
            // `Tensor::relu`'s expression, so Train and Eval agree bitwise.
            *y = v.max(0.0);
            *m = v > 0.0;
        }
        self.mask = Some(mask);
        self.tap = None;
        Tensor::from_vec(data, x.dims())
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("relu backward called before training-mode forward");
        assert_eq!(grad.len(), mask.len(), "relu grad length mismatch");
        let data = grad
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad.dims())
    }

    fn output_tap(&self) -> Option<Tensor> {
        self.tap.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut layer = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = layer.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut layer = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.5, 2.0]);
        layer.forward(&x, Mode::Train);
        let dx = layer.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_zero_input_has_zero_gradient() {
        // Subgradient convention: derivative at exactly 0 is 0.
        let mut layer = Relu::new();
        layer.forward(&Tensor::from_slice(&[0.0]), Mode::Train);
        let dx = layer.backward(&Tensor::from_slice(&[5.0]));
        assert_eq!(dx.as_slice(), &[0.0]);
    }

    #[test]
    fn relu_tap_exposes_output() {
        let mut layer = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 3.0]);
        layer.forward(&x, Mode::Eval);
        let tap = layer.output_tap().expect("tap");
        assert_eq!(tap.as_slice(), &[0.0, 3.0]);
        // Only Eval records it; a training forward clears it rather than
        // leave a stale snapshot.
        layer.forward(&x, Mode::Train);
        assert_eq!(layer.output_tap(), None);
    }
}
