//! Residual (skip-connection) blocks for the ResNet of Table 1.

use crate::layer::{Layer, LayerDesc, Mode, Param};
use qsnc_tensor::Tensor;

/// A residual block: `y = body(x) + shortcut(x)`.
///
/// The body is an arbitrary layer stack; the shortcut is usually the
/// identity, or a 1×1 strided convolution when the block changes resolution
/// or width. Both paths are trained; the sum's gradient fans out to both.
pub struct Residual {
    body: Vec<Box<dyn Layer>>,
    shortcut: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("body_layers", &self.body.len())
            .field("shortcut_layers", &self.shortcut.len())
            .finish()
    }
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub fn new(body: Vec<Box<dyn Layer>>) -> Self {
        Residual {
            body,
            shortcut: Vec::new(),
        }
    }

    /// Creates a residual block with a projection shortcut (e.g. a strided
    /// 1×1 convolution when the body changes shape).
    pub fn with_shortcut(body: Vec<Box<dyn Layer>>, shortcut: Vec<Box<dyn Layer>>) -> Self {
        Residual { body, shortcut }
    }

    /// The layers of the main path.
    pub fn body(&self) -> &[Box<dyn Layer>] {
        &self.body
    }

    /// The layers of the shortcut path (empty means identity).
    pub fn shortcut_layers(&self) -> &[Box<dyn Layer>] {
        &self.shortcut
    }

    /// All synaptic descriptors within the block (body then shortcut).
    pub fn inner_descriptors(&self) -> Vec<LayerDesc> {
        self.body
            .iter()
            .chain(self.shortcut.iter())
            .map(|l| l.descriptor())
            .filter(|d| d.is_synaptic())
            .collect()
    }
}

impl Layer for Residual {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Residual {
            body: self.body.iter().map(|l| l.clone_layer()).collect(),
            shortcut: self.shortcut.iter().map(|l| l.clone_layer()).collect(),
        })
    }

    fn name(&self) -> &'static str {
        "residual"
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut main = x.clone();
        for layer in &mut self.body {
            main = layer.forward(&main, mode);
        }
        let mut skip = x.clone();
        for layer in &mut self.shortcut {
            skip = layer.forward(&skip, mode);
        }
        assert_eq!(
            main.shape(),
            skip.shape(),
            "residual paths disagree: body {} vs shortcut {}",
            main.shape(),
            skip.shape()
        );
        &main + &skip
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g_main = grad.clone();
        for layer in self.body.iter_mut().rev() {
            g_main = layer.backward(&g_main);
        }
        let mut g_skip = grad.clone();
        for layer in self.shortcut.iter_mut().rev() {
            g_skip = layer.backward(&g_skip);
        }
        &g_main + &g_skip
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        self.body
            .iter_mut()
            .chain(self.shortcut.iter_mut())
            .flat_map(|l| l.params())
            .collect()
    }

    fn regularization_loss(&self) -> f32 {
        self.body
            .iter()
            .chain(self.shortcut.iter())
            .map(|l| l.regularization_loss())
            .sum()
    }

    fn nested_descriptors(&self) -> Option<Vec<LayerDesc>> {
        Some(self.inner_descriptors())
    }

    fn inner_stacks_mut(&mut self) -> Vec<&mut Vec<Box<dyn Layer>>> {
        vec![&mut self.body, &mut self.shortcut]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Relu};
    use qsnc_tensor::{Conv2dSpec, TensorRng};

    #[test]
    fn identity_shortcut_adds_input() {
        // A ReLU body is the identity on these positive inputs, so
        // output = 2x.
        let mut block = Residual::new(vec![Box::new(Relu::new())]);
        let x = Tensor::from_slice(&[1.0, 2.0]).reshape([1, 2]);
        let y = block.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[2.0, 4.0]);
        let dx = block.backward(&Tensor::ones([1, 2]));
        assert_eq!(dx.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn conv_body_shapes() {
        let mut rng = TensorRng::seed(0);
        let spec = Conv2dSpec::new(3, 1, 1);
        let body: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new("a", 4, 4, spec, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new("b", 4, 4, spec, &mut rng)),
        ];
        let mut block = Residual::new(body);
        let x = qsnc_tensor::init::uniform([2, 4, 6, 6], -1.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train);
        assert_eq!(y.dims(), x.dims());
        let dx = block.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.dims(), x.dims());
        assert_eq!(block.params().len(), 4); // 2 convs × (weight, bias)
        assert_eq!(block.inner_descriptors().len(), 2);
    }

    #[test]
    fn projection_shortcut_changes_width() {
        let mut rng = TensorRng::seed(1);
        let body: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new(
            "body",
            2,
            4,
            Conv2dSpec::new(3, 1, 1),
            &mut rng,
        ))];
        let shortcut: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new(
            "proj",
            2,
            4,
            Conv2dSpec::new(1, 1, 0),
            &mut rng,
        ))];
        let mut block = Residual::with_shortcut(body, shortcut);
        let x = qsnc_tensor::init::uniform([1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[1, 4, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "residual paths disagree")]
    fn mismatched_paths_panic() {
        let mut rng = TensorRng::seed(2);
        let body: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new(
            "body",
            2,
            4,
            Conv2dSpec::new(3, 1, 1),
            &mut rng,
        ))];
        let mut block = Residual::new(body);
        let x = Tensor::zeros([1, 2, 5, 5]);
        block.forward(&x, Mode::Eval);
    }
}
