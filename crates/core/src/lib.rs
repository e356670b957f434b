//! # qsnc-core
//!
//! End-to-end pipeline for the qsnc reproduction of *"Towards Accurate and
//! High-Speed Spiking Neuromorphic Systems with Data Quantization-Aware
//! Deep Networks"* (Liu & Liu, DAC 2018).
//!
//! Tying the substrates together:
//!
//! 1. [`train_float`] — the fp32 baselines of Table 1.
//! 2. [`train_quant_aware`] — the paper's proposed flow: Neuron
//!    Convergence training, straight-through fine-tune, Weight Clustering.
//! 3. [`direct_quantize`] / [`dynamic_fixed_baseline`] — the "w/o" and
//!    8-bit dynamic fixed-point comparison points of Tables 2–4.
//! 4. [`deploy_to_snc`] — lowering onto the memristor crossbar substrate,
//!    and [`hardware_report`] for the Table 5 speed/energy/area model.
//!
//! Flows 1 and 2 train through one loop: SGD with momentum under the
//! [`TrainSettings`] step learning-rate decay, a progress line per epoch on
//! stderr when verbose, and the `train.*` and `quant.qat.saturation_rate`
//! telemetry series when recording.
//!
//! # Examples
//!
//! ```no_run
//! use qsnc_core::{train_quant_aware, deploy_to_snc, QuantConfig, TrainSettings};
//! use qsnc_data::synth_digits;
//! use qsnc_nn::ModelKind;
//! use qsnc_tensor::TensorRng;
//!
//! let mut rng = TensorRng::seed(0);
//! let (train, test) = synth_digits(2000, &mut rng).split(0.8);
//! let quant = QuantConfig::paper(4, 4);
//! let model = train_quant_aware(
//!     ModelKind::Lenet, 0.5, &TrainSettings::default(), &quant, &train, &test, 0);
//! println!("quantized accuracy: {:.2}%", model.quantized_accuracy * 100.0);
//! let snn = deploy_to_snc(&model.net, &quant, None)?;
//! # Ok::<(), qsnc_memristor::CompileError>(())
//! ```

#![warn(missing_docs)]

mod config;
mod deploy;
mod flow;
pub mod report;

pub use config::{QuantConfig, TrainSettings};
pub use report::{telemetry_summary_tables, Report, Table};
pub use deploy::{
    degradation_table, deploy_to_snc, deploy_to_snc_reliable, export_artifact, hardware_report,
};
pub use flow::{
    calibrate_stage_maxima, direct_quantize, dynamic_fixed_baseline, train_float,
    train_quant_aware, visit_signal_stages, QuantizedModel,
};
