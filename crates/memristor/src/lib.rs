//! # qsnc-memristor
//!
//! The memristor-crossbar spiking neuromorphic substrate the paper deploys
//! its quantized networks on (Liu & Liu, DAC 2018, Sec. 2.2 & 4.5).
//!
//! Layer by layer:
//!
//! - [`device`]: behavioural memristor model (50 kΩ–1 MΩ, `N`-bit linear
//!   conductance levels, write variation, read noise).
//! - [`crossbar`]: signed vector-matrix products on differential device
//!   pairs.
//! - [`mapping`]: the paper's Eq. 1 tiling of conv/FC layers over 32×32
//!   crossbars, and the functional [`TiledMatrix`] used at inference.
//! - [`spike`]: rate coding, integrate-and-fire conversion (with the
//!   half-threshold precharge that makes hardware rounding match the
//!   software quantizer), and saturating counters.
//! - [`pipeline`]: [`SpikingNetwork`] — a trained, quantized network
//!   lowered onto crossbars and executed spike-accurately.
//! - [`fault`]: the reliability layer — persistent per-crossbar
//!   [`FaultMap`]s, the write-verify programming loop (see [`program`]),
//!   fault-aware column remapping (see [`mapping`]), and the
//!   [`DegradationStats`] every faulty deploy reports.
//! - [`hwmodel`]: the calibrated speed/energy/area model that regenerates
//!   Table 5.
//! - [`artifact`]: versioned `.qsnca` deployment artifacts — a compiled
//!   network's integer fast path frozen to disk and reloaded by serve
//!   workers without the training stack.

#![warn(missing_docs)]

pub mod artifact;
pub mod crossbar;
pub mod device;
mod engine;
pub mod fault;
pub mod hwmodel;
pub mod mapping;
pub mod pipeline;
pub mod program;
pub mod spike;

pub use artifact::{
    decode_artifact, encode_artifact, load_artifact, save_artifact, ArtifactError,
    LoadedArtifact, Provenance, TileMap,
};
pub use crossbar::Crossbar;
pub use device::{Device, DeviceConfig};
pub use fault::{
    CellFault, DegradationStats, FaultMap, FaultRates, ProgramPolicy, ReliabilityConfig,
};
pub use hwmodel::{ExecutionMode, HwModel, HwReport, LayerHwReport};
pub use program::{program_device_verified, VerifiedWrite};
pub use mapping::{crossbars_for_layer, network_geometry, LayerGeometry, TiledMatrix};
pub use pipeline::{CompileError, DeployConfig, SpikingNetwork};
pub use spike::{cycle_accurate_layer, Ifc, SpikeEncoder, SpikeTrain};
