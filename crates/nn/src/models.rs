//! The model zoo of Table 1: LeNet, AlexNet, and ResNet topologies.
//!
//! Topologies follow the paper's Table 1 exactly in layer *structure*
//! (LeNet: 2 conv 5×5 + 2 FC; AlexNet: 1 conv 5×5 + 4 conv 3×3 + 3 FC;
//! ResNet: 17 conv 3×3 + 1 FC). Channel widths are controlled by a `width`
//! multiplier so the accuracy experiments can run at CPU-friendly scale
//! while the hardware experiments (Table 5) evaluate Eq. 1 at paper scale.

use crate::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu, Residual};
use crate::layer::Layer;
use crate::sequential::Sequential;
use qsnc_tensor::{Conv2dSpec, TensorRng};

/// Which of the paper's three networks to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ModelKind {
    /// LeNet on 28×28×1 inputs (MNIST-class task).
    Lenet,
    /// AlexNet-style CIFAR network on 32×32×3 inputs.
    Alexnet,
    /// 18-layer residual network (17 conv + 1 FC) on 32×32×3 inputs.
    Resnet,
}

impl ModelKind {
    /// Input dimensions `[c, h, w]` the network expects.
    pub fn input_dims(self) -> [usize; 3] {
        match self {
            ModelKind::Lenet => [1, 28, 28],
            ModelKind::Alexnet | ModelKind::Resnet => [3, 32, 32],
        }
    }

    /// Display name matching the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            ModelKind::Lenet => "Lenet",
            ModelKind::Alexnet => "Alexnet",
            ModelKind::Resnet => "Resnet",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

fn scaled(base: usize, width: f32) -> usize {
    ((base as f32 * width).round() as usize).max(1)
}

/// Builds LeNet: conv 5×5 → pool → conv 5×5 → pool → FC → FC.
///
/// `width = 1.0` gives the classic 6/16-channel LeNet; smaller values shrink
/// every stage proportionally. `classes` is the output count.
pub fn lenet(width: f32, classes: usize, rng: &mut TensorRng) -> Sequential {
    let c1 = scaled(6, width);
    let c2 = scaled(16, width);
    let hidden = scaled(84, width);
    let mut net = Sequential::new();
    net.push(Conv2d::new("conv1", 1, c1, Conv2dSpec::new(5, 1, 2), rng));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2)); // 28 → 14
    net.push(Conv2d::new("conv2", c1, c2, Conv2dSpec::new(5, 1, 0), rng));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2)); // 10 → 5
    net.push(Flatten::new());
    net.push(Linear::new("fc1", c2 * 5 * 5, hidden, rng));
    net.push(Relu::new());
    net.push(Linear::new("fc2", hidden, classes, rng));
    net
}

/// Builds the AlexNet-style CIFAR network:
/// conv 5×5, then 4× conv 3×3 (pooling after stages), then 3 FC layers.
pub fn alexnet(width: f32, classes: usize, rng: &mut TensorRng) -> Sequential {
    let c1 = scaled(32, width);
    let c2 = scaled(64, width);
    let c3 = scaled(128, width);
    let h1 = scaled(256, width);
    let h2 = scaled(128, width);
    let mut net = Sequential::new();
    net.push(Conv2d::new("conv1", 3, c1, Conv2dSpec::new(5, 1, 2), rng));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2)); // 32 → 16
    net.push(Conv2d::new("conv2", c1, c2, Conv2dSpec::new(3, 1, 1), rng));
    net.push(Relu::new());
    net.push(Conv2d::new("conv3", c2, c2, Conv2dSpec::new(3, 1, 1), rng));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2)); // 16 → 8
    net.push(Conv2d::new("conv4", c2, c3, Conv2dSpec::new(3, 1, 1), rng));
    net.push(Relu::new());
    net.push(Conv2d::new("conv5", c3, c3, Conv2dSpec::new(3, 1, 1), rng));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2)); // 8 → 4
    net.push(Flatten::new());
    net.push(Linear::new("fc1", c3 * 4 * 4, h1, rng));
    net.push(Relu::new());
    net.push(Linear::new("fc2", h1, h2, rng));
    net.push(Relu::new());
    net.push(Linear::new("fc3", h2, classes, rng));
    net
}

fn basic_block(
    label: &str,
    in_c: usize,
    out_c: usize,
    stride: usize,
    rng: &mut TensorRng,
) -> Residual {
    let body: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(
            format!("{label}.conv1"),
            in_c,
            out_c,
            Conv2dSpec::new(3, stride, 1),
            rng,
        )),
        Box::new(BatchNorm2d::new(format!("{label}.bn1"), out_c)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(
            format!("{label}.conv2"),
            out_c,
            out_c,
            Conv2dSpec::new(3, 1, 1),
            rng,
        )),
        Box::new(BatchNorm2d::new(format!("{label}.bn2"), out_c)),
    ];
    if stride != 1 || in_c != out_c {
        let shortcut: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(
                format!("{label}.proj"),
                in_c,
                out_c,
                Conv2dSpec::new(1, stride, 0),
                rng,
            )),
            Box::new(BatchNorm2d::new(format!("{label}.bnp"), out_c)),
        ];
        Residual::with_shortcut(body, shortcut)
    } else {
        Residual::new(body)
    }
}

/// Builds the 18-layer residual network of Table 1:
/// one stem conv plus 8 basic blocks (16 convs) = 17 conv 3×3, then global
/// average pooling and one FC layer. Projection shortcuts (1×1) are used at
/// stage transitions, as in the original ResNet; the paper's conv count
/// refers to the 3×3 convolutions.
pub fn resnet(width: f32, classes: usize, rng: &mut TensorRng) -> Sequential {
    let c1 = scaled(16, width);
    let c2 = scaled(32, width);
    let c3 = scaled(64, width);
    let mut net = Sequential::new();
    net.push(Conv2d::new("stem", 3, c1, Conv2dSpec::new(3, 1, 1), rng));
    net.push(BatchNorm2d::new("stem.bn", c1));
    net.push(Relu::new());
    // Stage 1: 3 blocks at c1, 32×32. As in the original ResNet, ReLU
    // follows each block's residual add — these are the inter-layer
    // signals the paper quantizes.
    for (label, in_c, out_c, stride) in [
        ("s1b1", c1, c1, 1),
        ("s1b2", c1, c1, 1),
        ("s1b3", c1, c1, 1),
        // Stage 2: 3 blocks at c2, 16×16.
        ("s2b1", c1, c2, 2),
        ("s2b2", c2, c2, 1),
        ("s2b3", c2, c2, 1),
        // Stage 3: 2 blocks at c3, 8×8 → 16 block convs + stem = 17 convs.
        ("s3b1", c2, c3, 2),
        ("s3b2", c3, c3, 1),
    ] {
        net.push(basic_block(label, in_c, out_c, stride, rng));
        net.push(Relu::new());
    }
    net.push(AvgPool2d::global(8));
    net.push(Flatten::new());
    net.push(Linear::new("fc", c3, classes, rng));
    net
}

/// Builds a model by kind with the given width multiplier.
pub fn build_model(kind: ModelKind, width: f32, classes: usize, rng: &mut TensorRng) -> Sequential {
    match kind {
        ModelKind::Lenet => lenet(width, classes, rng),
        ModelKind::Alexnet => alexnet(width, classes, rng),
        ModelKind::Resnet => resnet(width, classes, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{LayerDesc, Mode};
    use qsnc_tensor::Tensor;

    fn conv_count(net: &Sequential) -> usize {
        net.synaptic_descriptors()
            .iter()
            .filter(|d| matches!(d, LayerDesc::Conv { .. }))
            .count()
    }

    fn fc_count(net: &Sequential) -> usize {
        net.synaptic_descriptors()
            .iter()
            .filter(|d| matches!(d, LayerDesc::Linear { .. }))
            .count()
    }

    #[test]
    fn lenet_matches_table1_structure() {
        let mut rng = TensorRng::seed(0);
        let net = lenet(1.0, 10, &mut rng);
        assert_eq!(conv_count(&net), 2);
        assert_eq!(fc_count(&net), 2);
    }

    #[test]
    fn lenet_forward_shape() {
        let mut rng = TensorRng::seed(1);
        let mut net = lenet(0.5, 10, &mut rng);
        let x = Tensor::zeros([2, 1, 28, 28]);
        assert_eq!(net.forward(&x, Mode::Eval).dims(), &[2, 10]);
    }

    #[test]
    fn alexnet_matches_table1_structure() {
        let mut rng = TensorRng::seed(2);
        let net = alexnet(1.0, 10, &mut rng);
        assert_eq!(conv_count(&net), 5); // 1×(5×5) + 4×(3×3)
        assert_eq!(fc_count(&net), 3);
        let kernels: Vec<usize> = net
            .synaptic_descriptors()
            .iter()
            .filter_map(|d| match d {
                LayerDesc::Conv { kernel, .. } => Some(*kernel),
                _ => None,
            })
            .collect();
        assert_eq!(kernels, vec![5, 3, 3, 3, 3]);
    }

    #[test]
    fn alexnet_forward_shape() {
        let mut rng = TensorRng::seed(3);
        let mut net = alexnet(0.25, 10, &mut rng);
        let x = Tensor::zeros([1, 3, 32, 32]);
        assert_eq!(net.forward(&x, Mode::Eval).dims(), &[1, 10]);
    }

    #[test]
    fn resnet_has_17_threebythree_convs() {
        let mut rng = TensorRng::seed(4);
        let net = resnet(1.0, 10, &mut rng);
        let three_by_three = net
            .synaptic_descriptors()
            .iter()
            .filter(|d| matches!(d, LayerDesc::Conv { kernel: 3, .. }))
            .count();
        assert_eq!(three_by_three, 17);
        assert_eq!(fc_count(&net), 1);
    }

    #[test]
    fn resnet_forward_shape() {
        let mut rng = TensorRng::seed(5);
        let mut net = resnet(0.25, 10, &mut rng);
        let x = Tensor::zeros([1, 3, 32, 32]);
        assert_eq!(net.forward(&x, Mode::Eval).dims(), &[1, 10]);
    }

    #[test]
    fn resnet_trains_one_step() {
        use crate::loss::softmax_cross_entropy;
        use crate::optim::Sgd;
        let mut rng = TensorRng::seed(6);
        let mut net = resnet(0.25, 10, &mut rng);
        let x = qsnc_tensor::init::uniform([2, 3, 32, 32], 0.0, 1.0, &mut rng);
        let logits = net.forward(&x, Mode::Train);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss.is_finite());
        net.backward(&grad);
        let mut opt = Sgd::new(0.01);
        opt.step(&mut net.params());
    }

    #[test]
    fn width_scales_weight_count() {
        let mut rng = TensorRng::seed(7);
        let full = lenet(1.0, 10, &mut rng).weight_count();
        let half = lenet(0.5, 10, &mut rng).weight_count();
        assert!(half < full);
    }
}
