//! # qsnc-quant
//!
//! The primary contribution of the reproduced paper: **data
//! quantization-aware deep networks** for spiking neuromorphic deployment
//! (Liu & Liu, DAC 2018).
//!
//! Two mechanisms recover the accuracy that naive quantization destroys:
//!
//! - **Neuron Convergence** ([`ActivationRegularizer`], Sec. 3.1 / Eq. 3):
//!   a training-time penalty that makes every layer's signals sparse and
//!   confined to one uniform range, so rounding them to `M`-bit fixed
//!   integers is nearly lossless.
//! - **Weight Clustering** ([`cluster_weights`], Sec. 3.2 / Eq. 6): maps
//!   synaptic weights onto an `N`-bit linear conductance grid with an
//!   optimized pitch, instead of blind rounding.
//!
//! The crate also implements the comparison baselines: direct quantization
//! without either mechanism, and the 8-bit **dynamic fixed point** scheme
//! of Gysel et al. ([`DynamicFixedPoint`], the paper's ref. \[23\]).
//!
//! Integration with `qsnc-nn` is through [`insert_signal_stages`] (splices
//! fake-quantization layers after every ReLU) and
//! [`quantize_network_weights`] (rewrites weights in place). As in the
//! paper's Tables 2–5, one weight width `N` and one signal width `M` hold
//! for the whole network.
//!
//! Device faults are not modelled here: stuck cells and dead lines belong
//! to the crossbar the weights are programmed onto (`qsnc_memristor::fault`).

#![warn(missing_docs)]

mod activation;
mod dynamic_fixed;
mod power_of_two;
mod qat;
mod regularizer;
pub mod sensitivity;
mod weight_cluster;

pub use activation::ActivationQuantizer;
pub use dynamic_fixed::{dynamic_fixed_quantize, DynamicFixedPoint};
pub use power_of_two::{
    power_of_two_quantize, quantize_network_power_of_two, PowerOfTwoWeights,
};
pub use qat::{
    insert_signal_stages, network_saturation_rate, quantize_network_weights,
    reset_network_saturation, QuantSwitch, SignalStage, WeightQuantReport,
};
pub use regularizer::{ActivationRegularizer, RegKind};
pub use sensitivity::{weight_sensitivity, LayerSensitivity};
pub use weight_cluster::{
    cluster_weights, direct_fixed_point, quantize_weights, IntWeights, QuantizedWeights,
    WeightQuantMethod,
};
