//! # qsnc-data
//!
//! Datasets for the qsnc reproduction of the DAC 2018 data
//! quantization-aware deep networks paper.
//!
//! The paper evaluates on MNIST and CIFAR-10, which are not bundled here.
//! This crate provides deterministic synthetic stand-ins with the same
//! shapes and the same experimental role (see DESIGN.md §2 for why the
//! substitution preserves the phenomena under study):
//!
//! - [`synth_digits`]: 28×28×1 ten-class digit glyphs (MNIST stand-in).
//! - [`synth_objects`]: 32×32×3 ten-class colored shapes/textures (CIFAR
//!   stand-in).
//! - [`mnist`]: an IDX loader for real MNIST. No flow or command calls it
//!   yet; wiring it into `qsnc train` waits until the IDX files are in the
//!   repository.
//!
//! All generation is seeded through [`qsnc_tensor::TensorRng`], so every
//! table in EXPERIMENTS.md is reproducible bit-for-bit.

#![warn(missing_docs)]

mod dataset;
pub mod mnist;
mod synth_digits;
mod synth_objects;

pub use dataset::Dataset;
pub use mnist::{load_idx_pair, load_mnist_or_synthetic, LoadIdxError};
pub use synth_digits::synth_digits;
pub use synth_objects::{synth_objects, synth_objects_hard};
