//! # qsnc-nn
//!
//! Neural-network substrate for the qsnc reproduction of
//! *"Towards Accurate and High-Speed Spiking Neuromorphic Systems with Data
//! Quantization-Aware Deep Networks"* (Liu & Liu, DAC 2018).
//!
//! The paper trains its networks in Torch; this crate is the from-scratch
//! equivalent: a [`Layer`] trait with exact backpropagation, the concrete
//! layers in [`layers`], the [`Sequential`] container, softmax
//! cross-entropy, SGD with momentum ([`optim`]), one epoch of mini-batch
//! steps plus top-1 evaluation ([`train`]), and the three Table 1
//! topologies in [`models`]. The multi-epoch loop (learning-rate decay, progress lines,
//! training telemetry) is `qsnc_core`'s `fit`.
//!
//! Quantization-aware training is *not* here — `qsnc-quant` provides it by
//! implementing [`Layer`] for its fake-quantization and regularizer stages
//! and splicing them into a [`Sequential`].
//!
//! # Examples
//!
//! ```
//! use qsnc_nn::{models, Mode};
//! use qsnc_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::seed(0);
//! let mut net = models::lenet(0.25, 10, &mut rng);
//! let logits = net.forward(&Tensor::zeros([1, 1, 28, 28]), Mode::Eval);
//! assert_eq!(logits.dims(), &[1, 10]);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
mod layer;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
mod sequential;
pub mod train;

pub use checkpoint::{
    checkpoint_digest, load_params, read_checkpoint, save_params, CheckpointError,
};
pub use layer::{Layer, LayerDesc, Mode, Param};
pub use models::ModelKind;
pub use sequential::Sequential;
pub use train::{Batch, EpochStats};
