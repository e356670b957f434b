//! # qsnc-tensor
//!
//! Dense `f32` tensor math underpinning the qsnc reproduction of
//! *"Towards Accurate and High-Speed Spiking Neuromorphic Systems with Data
//! Quantization-Aware Deep Networks"* (Liu & Liu, DAC 2018).
//!
//! The crate provides exactly what the simulator stack above it needs — and
//! nothing more — so that every numerical path is short and auditable:
//!
//! - [`Shape`] / [`Tensor`]: row-major dense storage with explicit index
//!   arithmetic.
//! - Element-wise arithmetic and operator overloads (`arith`).
//! - Blocked GEMM and transpose ([`linalg`]).
//! - Convolution: [`conv2d`] and its training gradients as direct kernels
//!   over a zero-padded copy of each image, bit-identical to the
//!   [`im2col`] / [`col2im`] products they replace, plus [`pad2d`] and a
//!   direct reference convolution ([`conv`]).
//! - Reductions, histograms and a stable softmax ([`reduce`]).
//! - Deterministic RNG and Xavier/He initializers ([`init`]).
//! - Integer GEMM over packed `i8` weight codes for the quantized fast
//!   path ([`mod@igemm`]), and a thread-local scratch arena that makes
//!   steady-state inference allocation-free ([`scratch`]).
//! - Runtime-detected x86-64 SIMD micro-kernels behind the `QSNC_SIMD`
//!   env var ([`simd`]); every SIMD path is bit-identical to its scalar
//!   oracle.
//! - Persistent-pool parallelism primitives driving the kernels above
//!   ([`parallel`]); results are bit-identical at any thread count.
//!
//! # Examples
//!
//! ```
//! use qsnc_tensor::{conv2d, Conv2dSpec, Tensor, TensorRng};
//! use qsnc_tensor::init::he_normal;
//!
//! let mut rng = TensorRng::seed(0);
//! let image = qsnc_tensor::init::uniform([1, 1, 8, 8], 0.0, 1.0, &mut rng);
//! let filters = he_normal([4, 1, 3, 3], 9, &mut rng);
//! let feature_maps = conv2d(&image, &filters, None, Conv2dSpec::new(3, 1, 1));
//! assert_eq!(feature_maps.dims(), &[1, 4, 8, 8]);
//! ```

#![warn(missing_docs)]

mod arith;
pub mod conv;
pub mod igemm;
pub mod init;
pub mod linalg;
pub mod parallel;
pub mod reduce;
pub mod scratch;
mod shape;
pub mod simd;
mod tensor;

pub use conv::{
    col2im, conv2d, conv2d_direct, conv2d_input_grad, conv2d_weight_grad, im2col, pad2d, unpad2d,
    Conv2dSpec,
};
pub use igemm::{igemm, igemm_conv, PackedCodes};
pub use init::TensorRng;
pub use linalg::{gemm, gemm_serial, matmul, matmul_naive, matmul_serial, transpose};
pub use parallel::{num_threads, par_tiles, set_num_threads, with_num_threads};
pub use simd::{detected_simd, set_simd_level, simd_level, with_simd_level, SimdLevel};
pub use reduce::softmax_rows;
pub use shape::Shape;
pub use tensor::Tensor;
