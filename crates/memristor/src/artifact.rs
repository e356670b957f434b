//! Versioned on-disk compiled-model artifacts (`.qsnca`).
//!
//! `qsnc deploy` freezes a compiled [`SpikingNetwork`]'s integer fast path
//! into a self-contained binary artifact; a serving process loads it straight
//! back into an engine without touching the training stack (no clustering,
//! no threshold search — the tables ship precomputed). This is the paper's
//! deployment story made literal: quantization decisions are made offline
//! and the SNC runs a frozen integer program.
//!
//! # File layout
//!
//! All integers are little-endian. See `docs/artifact.md` for the full
//! byte-level tables.
//!
//! ```text
//! magic "QSNA" | format version u32 | section count u32 |
//!   section table: per entry id u32, offset u64, len u64 |
//!   section payloads … |
//! trailer: FNV-1a-64 checksum (u64) over every preceding byte
//! ```
//!
//! Sections are looked up by id ([`SECTION_MODEL`], [`SECTION_TILES`],
//! [`SECTION_PROVENANCE`]); unknown ids are skipped by their declared
//! length, so future writers can add sections without breaking old readers.
//!
//! One artifact is one *model version* to the serving layer: `qsnc serve`
//! registers several artifacts under distinct model names behind one
//! port, and a hot swap (`qsnc-serve`'s `Server::swap_artifact` / the
//! admin `POST /models/swap` route) runs this loader's full validation on
//! the incoming file — plus an input-dims equality check against the
//! model being replaced — *before* the engine pointer flips, so a
//! rejected artifact leaves the old version serving untouched. The
//! [`Provenance`] digest is what makes the swap auditable end to end
//! (deploy log → serve log → admin `GET /models` → swap report).
//!
//! # Loading contract
//!
//! - **Single read, zero re-parse copies**: the whole file is read once
//!   ([`load_artifact`] → `std::fs::read`) and sections are referenced by
//!   offset into that arena; bulk payloads (codes, thresholds) are
//!   converted directly from validated slices.
//! - **Strict validation before allocation**: every declared length and
//!   offset is bounds-checked (with `checked_mul`/`checked_add`) against
//!   the actual byte budget *before* any dependent allocation; the trailer
//!   checksum is verified before any section is parsed; sections may not
//!   overlap. A corrupt or hostile file produces a typed [`ArtifactError`],
//!   never a panic or an attacker-sized allocation.
//! - **Bit-identical round trip**: the loaded engine's `infer_batch_into` matches
//!   the in-process-compiled engine exactly — scales travel as raw `f32`
//!   bits or exact `mantissa · 2^shift` pairs, threshold tables are copied
//!   verbatim, and code packing is deterministic. Property tests in
//!   `tests/artifact_roundtrip.rs` enforce this.

use crate::engine::{EngineOut, EngineStage, EngineSyn, IntEngine, EXACT_F32_BOUND};
use crate::pipeline::{SpikingNetwork, Stage, SynKind};
use qsnc_quant::{ActivationQuantizer, IntWeights};
use qsnc_tensor::{Conv2dSpec, PackedCodes};
use std::fmt;
use std::io;
use std::path::Path;

/// Leading magic bytes of a `.qsnca` artifact.
pub const MAGIC: [u8; 4] = *b"QSNA";
/// Current artifact format version.
pub const FORMAT_VERSION: u32 = 1;
/// Section id: compiled integer model (quantizers, topology, codes,
/// threshold tables).
pub const SECTION_MODEL: u32 = 1;
/// Section id: crossbar tile mapping and fault-remap assignments.
pub const SECTION_TILES: u32 = 2;
/// Section id: checkpoint provenance (digest, bit widths, model name).
pub const SECTION_PROVENANCE: u32 = 3;

const HEADER_LEN: usize = 12;
const ENTRY_LEN: usize = 20;
const TRAILER_LEN: usize = 8;
/// Caps on structurally-unbounded counts, far above anything a real
/// deployment writes, so hostile headers fail fast.
const MAX_SECTIONS: usize = 64;
const MAX_STAGES: usize = 4096;
const MAX_INPUT_RANK: usize = 8;
const MAX_INPUT_LEN: usize = 1 << 24;

/// Errors from artifact encoding, decoding, or I/O.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// The file does not start with the `QSNA` magic.
    BadMagic,
    /// The format version is not one this reader understands.
    BadVersion(u32),
    /// The file ended (or a section ran out) before a required field.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// A structurally invalid field value.
    Malformed(String),
    /// The trailer checksum does not match the file contents.
    ChecksumMismatch,
    /// Two sections' declared byte ranges overlap.
    SectionOverlap,
    /// A required section id is absent from the section table.
    MissingSection(u32),
    /// The network has no compiled integer fast path to freeze.
    NotCompiled,
    /// The network cannot be exported (e.g. it was itself loaded from an
    /// artifact and carries no substrate metadata).
    NotExportable(&'static str),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o error: {e}"),
            ArtifactError::BadMagic => write!(f, "not a qsnc artifact (bad magic)"),
            ArtifactError::BadVersion(v) => write!(f, "unsupported artifact format version {v}"),
            ArtifactError::Truncated { what } => write!(f, "artifact truncated while reading {what}"),
            ArtifactError::Malformed(m) => write!(f, "malformed artifact: {m}"),
            ArtifactError::ChecksumMismatch => write!(f, "artifact checksum mismatch"),
            ArtifactError::SectionOverlap => write!(f, "artifact sections overlap"),
            ArtifactError::MissingSection(id) => write!(f, "artifact is missing section {id}"),
            ArtifactError::NotCompiled => {
                write!(f, "network has no integer fast path to export")
            }
            ArtifactError::NotExportable(m) => write!(f, "network cannot be exported: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Provenance record tying an artifact back to the checkpoint and
/// quantization configuration it was compiled from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// FNV-1a-64 digest of the exact checkpoint bytes
    /// ([`qsnc_nn::checkpoint_digest`]) the network was built from, or 0
    /// when no checkpoint was involved (e.g. freshly trained in-process).
    pub checkpoint_digest: u64,
    /// Synaptic weight bit width `N` the network was quantized with.
    pub weight_bits: u32,
    /// Activation/signal bit width `M`.
    pub activation_bits: u32,
    /// Free-form model identifier (e.g. `"lenet"`).
    pub model: String,
}

/// Geometry of one synaptic layer's crossbar tiling, as recorded in the
/// artifact's TILES section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMap {
    /// Wordlines (rows) of the layer's weight matrix.
    pub in_dim: usize,
    /// Bitlines (columns).
    pub out_dim: usize,
    /// Physical crossbar edge length.
    pub tile: usize,
    /// Tile-grid rows, `⌈in_dim / tile⌉`.
    pub row_blocks: usize,
    /// Tile-grid columns, `⌈out_dim / tile⌉`.
    pub col_blocks: usize,
    /// Per-tile logical-column → physical-bitline assignments in
    /// block-row-major tile order; empty for identity placement (no
    /// fault-remapping at deploy time).
    pub assignments: Vec<Vec<usize>>,
}

/// A decoded artifact: the engine-backed network plus its metadata.
#[derive(Debug)]
pub struct LoadedArtifact {
    /// The network, carrying **only** the integer fast path
    /// ([`SpikingNetwork::is_artifact_only`] is `true`).
    pub network: SpikingNetwork,
    /// Per-example input tensor dims (no leading batch dimension).
    pub input_dims: Vec<usize>,
    /// Provenance record written at deploy time.
    pub provenance: Provenance,
    /// Crossbar tiling of every synaptic layer, in stage order.
    pub tiles: Vec<TileMap>,
}

/// FNV-1a-64 over `bytes` — the same digest provenance uses, reused as the
/// trailer checksum.
fn checksum(bytes: &[u8]) -> u64 {
    qsnc_nn::checkpoint_digest(bytes)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

fn u32_of(v: usize, what: &'static str) -> Result<u32, ArtifactError> {
    u32::try_from(v).map_err(|_| ArtifactError::NotExportable(what))
}

fn encode_quantizer(out: &mut Vec<u8>, q: &ActivationQuantizer) {
    put_u32(out, q.bits());
    put_f32(out, q.scale());
}

fn encode_model(
    engine: &IntEngine,
    input_dims: &[usize],
) -> Result<Vec<u8>, ArtifactError> {
    if input_dims.is_empty() || input_dims.len() > MAX_INPUT_RANK {
        return Err(ArtifactError::NotExportable("input rank out of range"));
    }
    let input_len = input_dims
        .iter()
        .try_fold(1usize, |a, &d| a.checked_mul(d))
        .filter(|&n| (1..=MAX_INPUT_LEN).contains(&n))
        .ok_or(ArtifactError::NotExportable("input element count out of range"))?;
    let _ = input_len;
    let mut out = Vec::new();
    encode_quantizer(&mut out, &engine.input_quant);
    put_u32(&mut out, input_dims.len() as u32);
    for &d in input_dims {
        put_u32(&mut out, u32_of(d, "input dim exceeds u32")?);
    }
    put_u32(&mut out, u32_of(engine.stages.len(), "stage count exceeds u32")?);
    for stage in &engine.stages {
        match stage {
            EngineStage::Syn(syn) => encode_syn(&mut out, syn)?,
            EngineStage::MaxPool { window, stride } => {
                out.push(1);
                put_u32(&mut out, u32_of(*window, "pool window exceeds u32")?);
                put_u32(&mut out, u32_of(*stride, "pool stride exceeds u32")?);
            }
            EngineStage::Flatten => out.push(2),
        }
    }
    Ok(out)
}

fn encode_syn(out: &mut Vec<u8>, syn: &EngineSyn) -> Result<(), ArtifactError> {
    out.push(0);
    match syn.kind {
        SynKind::Conv { spec, in_c, out_c } => {
            out.push(0);
            put_u32(out, u32_of(spec.kernel, "conv kernel exceeds u32")?);
            put_u32(out, u32_of(spec.stride, "conv stride exceeds u32")?);
            put_u32(out, u32_of(spec.padding, "conv padding exceeds u32")?);
            put_u32(out, u32_of(in_c, "conv in channels exceed u32")?);
            put_u32(out, u32_of(out_c, "conv out channels exceed u32")?);
        }
        SynKind::Fc { in_dim, out_dim } => {
            out.push(1);
            put_u32(out, u32_of(in_dim, "fc in dim exceeds u32")?);
            put_u32(out, u32_of(out_dim, "fc out dim exceeds u32")?);
        }
    }
    // Weight codes + pitch travel in the exact integer deployment form
    // (i8 levels, odd-mantissa power-of-two pitch decomposition) so the
    // loader reconstructs `weight_scale` bit-for-bit.
    let codes = syn.packed.unpack_codes();
    let iw = IntWeights::from_codes(&codes, syn.weight_scale)
        .ok_or(ArtifactError::NotExportable("weight scale or codes not in integer form"))?;
    put_i32(out, iw.mantissa);
    put_i32(out, iw.shift);
    put_f32(out, syn.in_scale);
    out.push(syn.rectify as u8);
    match &syn.out_quant {
        Some(q) => {
            out.push(1);
            encode_quantizer(out, q);
        }
        None => out.push(0),
    }
    for &b in &syn.bias {
        put_f32(out, b);
    }
    out.extend(iw.codes.iter().map(|&c| c as u8));
    match &syn.out {
        EngineOut::Analog => out.push(0),
        EngineOut::Counts { max_level, out_scale, thresholds, record } => {
            out.push(1);
            put_u32(out, *max_level);
            put_f32(out, *out_scale);
            out.push(*record as u8);
            for &t in thresholds {
                put_i32(out, t);
            }
        }
    }
    Ok(())
}

fn encode_tiles(snn: &SpikingNetwork) -> Result<Vec<u8>, ArtifactError> {
    let syn: Vec<_> = snn
        .stages()
        .iter()
        .filter_map(|s| match s {
            Stage::Synaptic(s) => Some(s),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    put_u32(&mut out, u32_of(syn.len(), "synaptic layer count exceeds u32")?);
    for s in syn {
        let t = &s.tiles;
        put_u32(&mut out, u32_of(t.in_dim(), "tile in dim exceeds u32")?);
        put_u32(&mut out, u32_of(t.out_dim(), "tile out dim exceeds u32")?);
        put_u32(&mut out, u32_of(t.tile(), "tile size exceeds u32")?);
        put_u32(&mut out, u32_of(t.row_blocks(), "tile row blocks exceed u32")?);
        put_u32(&mut out, u32_of(t.col_blocks(), "tile col blocks exceed u32")?);
        match t.remap_assignments() {
            None => out.push(0),
            Some(assignments) => {
                out.push(1);
                put_u32(&mut out, u32_of(assignments.len(), "tile count exceeds u32")?);
                for assign in assignments {
                    put_u32(&mut out, u32_of(assign.len(), "assignment length exceeds u32")?);
                    for &p in assign {
                        put_u32(&mut out, u32_of(p, "bitline index exceeds u32")?);
                    }
                }
            }
        }
    }
    Ok(out)
}

fn encode_provenance(p: &Provenance) -> Result<Vec<u8>, ArtifactError> {
    let mut out = Vec::new();
    put_u64(&mut out, p.checkpoint_digest);
    put_u32(&mut out, p.weight_bits);
    put_u32(&mut out, p.activation_bits);
    put_u32(&mut out, u32_of(p.model.len(), "model name exceeds u32")?);
    out.extend_from_slice(p.model.as_bytes());
    Ok(out)
}

/// Serializes a compiled network into `.qsnca` bytes.
///
/// `input_dims` are the per-example input tensor dims (no leading batch
/// dimension, e.g. `[1, 28, 28]` for LeNet) — the serving layer sizes its
/// request tensors from them.
///
/// # Errors
///
/// [`ArtifactError::NotCompiled`] when the network has no integer fast
/// path ([`SpikingNetwork::has_fast_path`]); [`ArtifactError::NotExportable`]
/// when it was itself loaded from an artifact or a field exceeds the
/// format's ranges.
pub fn encode_artifact(
    snn: &SpikingNetwork,
    input_dims: &[usize],
    provenance: &Provenance,
) -> Result<Vec<u8>, ArtifactError> {
    let engine = snn.engine().ok_or(ArtifactError::NotCompiled)?;
    if snn.is_artifact_only() {
        return Err(ArtifactError::NotExportable(
            "artifact-loaded networks carry no substrate metadata to re-export",
        ));
    }
    let sections = [
        (SECTION_MODEL, encode_model(engine, input_dims)?),
        (SECTION_TILES, encode_tiles(snn)?),
        (SECTION_PROVENANCE, encode_provenance(provenance)?),
    ];
    let table_end = HEADER_LEN + sections.len() * ENTRY_LEN;
    let payload_len: usize = sections.iter().map(|(_, p)| p.len()).sum();
    let mut out = Vec::with_capacity(table_end + payload_len + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, sections.len() as u32);
    let mut offset = table_end as u64;
    for (id, payload) in &sections {
        put_u32(&mut out, *id);
        put_u64(&mut out, offset);
        put_u64(&mut out, payload.len() as u64);
        offset += payload.len() as u64;
    }
    for (_, payload) in &sections {
        out.extend_from_slice(payload);
    }
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    Ok(out)
}

/// Writes a compiled network to `path` as a `.qsnca` artifact.
///
/// # Errors
///
/// Everything [`encode_artifact`] returns, plus [`ArtifactError::Io`] on
/// write failure.
pub fn save_artifact(
    snn: &SpikingNetwork,
    input_dims: &[usize],
    provenance: &Provenance,
    path: impl AsRef<Path>,
) -> Result<(), ArtifactError> {
    let bytes = encode_artifact(snn, input_dims, provenance)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over one section's bytes: every read states what
/// it is reading so truncation errors are self-describing, and no read ever
/// allocates from a declared count before the backing bytes are proven
/// present.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ArtifactError::Truncated { what })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ArtifactError> {
        Ok(self.take(1, what)?[0])
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, ArtifactError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ArtifactError::Malformed(format!("{what}: invalid flag byte {v}"))),
        }
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ArtifactError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i32(&mut self, what: &'static str) -> Result<i32, ArtifactError> {
        Ok(self.u32(what)? as i32)
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ArtifactError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// A positive `usize` from a u32 field.
    fn dim(&mut self, what: &'static str) -> Result<usize, ArtifactError> {
        let v = self.u32(what)? as usize;
        if v == 0 {
            return Err(ArtifactError::Malformed(format!("{what} must be positive")));
        }
        Ok(v)
    }

    /// A finite, strictly positive f32 from raw bits.
    fn scale(&mut self, what: &'static str) -> Result<f32, ArtifactError> {
        let v = f32::from_bits(self.u32(what)?);
        if !(v.is_finite() && v > 0.0) {
            return Err(ArtifactError::Malformed(format!("{what} must be finite and positive")));
        }
        Ok(v)
    }

    /// `count` little-endian i32s, length-validated before conversion.
    fn i32_slice(&mut self, count: usize, what: &'static str) -> Result<Vec<i32>, ArtifactError> {
        let bytes = count
            .checked_mul(4)
            .ok_or_else(|| ArtifactError::Malformed(format!("{what}: count overflows")))?;
        let raw = self.take(bytes, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// `count` finite little-endian f32s.
    fn f32_slice(&mut self, count: usize, what: &'static str) -> Result<Vec<f32>, ArtifactError> {
        let bytes = count
            .checked_mul(4)
            .ok_or_else(|| ArtifactError::Malformed(format!("{what}: count overflows")))?;
        let raw = self.take(bytes, what)?;
        let vals: Vec<f32> = raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        if vals.iter().any(|v| !v.is_finite()) {
            return Err(ArtifactError::Malformed(format!("{what}: non-finite value")));
        }
        Ok(vals)
    }

    fn finish(&self, what: &'static str) -> Result<(), ArtifactError> {
        if self.pos != self.buf.len() {
            return Err(ArtifactError::Malformed(format!(
                "{what}: {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn decode_quantizer(c: &mut Cursor<'_>, what: &'static str) -> Result<ActivationQuantizer, ArtifactError> {
    let bits = c.u32(what)?;
    if !(1..=16).contains(&bits) {
        return Err(ArtifactError::Malformed(format!("{what}: bit width {bits} out of 1..=16")));
    }
    let scale = c.scale(what)?;
    Ok(ActivationQuantizer::with_scale(bits, scale))
}

fn decode_model(bytes: &[u8]) -> Result<(ActivationQuantizer, Vec<usize>, Vec<EngineStage>), ArtifactError> {
    let mut c = Cursor::new(bytes);
    let input_quant = decode_quantizer(&mut c, "input quantizer")?;
    let rank = c.u32("input rank")? as usize;
    if !(1..=MAX_INPUT_RANK).contains(&rank) {
        return Err(ArtifactError::Malformed(format!("input rank {rank} out of 1..={MAX_INPUT_RANK}")));
    }
    let mut input_dims = Vec::new();
    for _ in 0..rank {
        input_dims.push(c.dim("input dim")?);
    }
    input_dims
        .iter()
        .try_fold(1usize, |a, &d| a.checked_mul(d))
        .filter(|&n| n <= MAX_INPUT_LEN)
        .ok_or_else(|| ArtifactError::Malformed("input element count out of range".into()))?;
    let stage_count = c.u32("stage count")? as usize;
    if stage_count == 0 || stage_count > MAX_STAGES {
        return Err(ArtifactError::Malformed(format!("stage count {stage_count} out of 1..={MAX_STAGES}")));
    }
    let mut stages = Vec::new();
    // Maximum spike count feeding the next synaptic stage — tracked to
    // re-verify the engine's accumulator-exactness bound on load.
    let mut cur_max = input_quant.max_level();
    for idx in 0..stage_count {
        let last = idx == stage_count - 1;
        match c.u8("stage tag")? {
            0 => stages.push(decode_syn(&mut c, last, &mut cur_max)?),
            1 => {
                let window = c.dim("pool window")?;
                let stride = c.dim("pool stride")?;
                stages.push(EngineStage::MaxPool { window, stride });
            }
            2 => stages.push(EngineStage::Flatten),
            t => return Err(ArtifactError::Malformed(format!("unknown stage tag {t}"))),
        }
    }
    c.finish("model section")?;
    Ok((input_quant, input_dims, stages))
}

fn decode_syn(
    c: &mut Cursor<'_>,
    last: bool,
    cur_max: &mut u32,
) -> Result<EngineStage, ArtifactError> {
    let kind = match c.u8("synapse kind")? {
        0 => {
            let kernel = c.dim("conv kernel")?;
            let stride = c.dim("conv stride")?;
            let padding = c.u32("conv padding")? as usize;
            let in_c = c.dim("conv in channels")?;
            let out_c = c.dim("conv out channels")?;
            SynKind::Conv { spec: Conv2dSpec::new(kernel, stride, padding), in_c, out_c }
        }
        1 => {
            let in_dim = c.dim("fc in dim")?;
            let out_dim = c.dim("fc out dim")?;
            SynKind::Fc { in_dim, out_dim }
        }
        t => return Err(ArtifactError::Malformed(format!("unknown synapse kind {t}"))),
    };
    let (in_dim, out_dim) = match kind {
        SynKind::Conv { spec, in_c, out_c } => (
            spec.kernel
                .checked_mul(spec.kernel)
                .and_then(|k| k.checked_mul(in_c))
                .ok_or_else(|| ArtifactError::Malformed("conv patch size overflows".into()))?,
            out_c,
        ),
        SynKind::Fc { in_dim, out_dim } => (in_dim, out_dim),
    };
    let mantissa = c.i32("weight scale mantissa")?;
    let shift = c.i32("weight scale shift")?;
    let weight_scale = IntWeights { codes: Vec::new(), mantissa, shift }.scale();
    if !(weight_scale.is_finite() && weight_scale > 0.0) {
        return Err(ArtifactError::Malformed(
            "weight scale must reconstruct to a finite positive value".into(),
        ));
    }
    let in_scale = c.scale("input scale")?;
    let rectify = c.bool("rectify flag")?;
    let out_quant = if c.bool("output quantizer flag")? {
        Some(decode_quantizer(c, "output quantizer")?)
    } else {
        None
    };
    let bias = c.f32_slice(out_dim, "bias")?;
    let code_count = in_dim
        .checked_mul(out_dim)
        .ok_or_else(|| ArtifactError::Malformed("code matrix size overflows".into()))?;
    let raw_codes = c.take(code_count, "weight codes")?;
    let codes: Vec<i32> = raw_codes.iter().map(|&b| b as i8 as i32).collect();
    let packed = PackedCodes::try_pack(&codes, out_dim, in_dim)
        .ok_or_else(|| ArtifactError::Malformed("weight codes do not fit i8".into()))?;
    if packed.max_abs_accum(*cur_max) >= EXACT_F32_BOUND {
        return Err(ArtifactError::Malformed(
            "accumulator bound violates the engine's f32-exactness guarantee".into(),
        ));
    }
    let out = match c.u8("output mode tag")? {
        0 => {
            if !last {
                return Err(ArtifactError::Malformed(
                    "analog readout on a non-final stage".into(),
                ));
            }
            EngineOut::Analog
        }
        1 => {
            let max_level = c.u32("counter max level")?;
            let out_scale = c.scale("counter output scale")?;
            let record = c.bool("counter record flag")?;
            let q = out_quant.as_ref().ok_or_else(|| {
                ArtifactError::Malformed("counter stage without an output quantizer".into())
            })?;
            if max_level != q.max_level() || out_scale.to_bits() != q.scale().to_bits() {
                return Err(ArtifactError::Malformed(
                    "counter parameters disagree with the output quantizer".into(),
                ));
            }
            let count = out_dim.checked_mul(max_level as usize).ok_or_else(|| {
                ArtifactError::Malformed("threshold table size overflows".into())
            })?;
            let thresholds = c.i32_slice(count, "threshold table")?;
            for row in thresholds.chunks_exact(max_level as usize) {
                if row.windows(2).any(|w| w[0] > w[1]) {
                    return Err(ArtifactError::Malformed(
                        "threshold table rows must be non-decreasing".into(),
                    ));
                }
            }
            *cur_max = max_level;
            EngineOut::Counts { max_level, out_scale, thresholds, record }
        }
        t => return Err(ArtifactError::Malformed(format!("unknown output mode tag {t}"))),
    };
    if !last && matches!(out, EngineOut::Analog) {
        return Err(ArtifactError::Malformed("analog readout on a non-final stage".into()));
    }
    Ok(EngineStage::Syn(Box::new(EngineSyn {
        kind,
        packed,
        weight_scale,
        in_scale,
        bias,
        rectify,
        out_quant,
        out,
    })))
}

fn decode_tiles(bytes: &[u8]) -> Result<Vec<TileMap>, ArtifactError> {
    let mut c = Cursor::new(bytes);
    let count = c.u32("tile map layer count")? as usize;
    if count > MAX_STAGES {
        return Err(ArtifactError::Malformed(format!("tile map layer count {count} exceeds {MAX_STAGES}")));
    }
    let mut maps = Vec::new();
    for _ in 0..count {
        let in_dim = c.dim("tile map in dim")?;
        let out_dim = c.dim("tile map out dim")?;
        let tile = c.dim("tile map tile size")?;
        let row_blocks = c.dim("tile map row blocks")?;
        let col_blocks = c.dim("tile map col blocks")?;
        if row_blocks != in_dim.div_ceil(tile) || col_blocks != out_dim.div_ceil(tile) {
            return Err(ArtifactError::Malformed(
                "tile block grid disagrees with the layer dimensions".into(),
            ));
        }
        let assignments = if c.bool("remap flag")? {
            let tiles = c.u32("remap tile count")? as usize;
            if tiles != row_blocks * col_blocks {
                return Err(ArtifactError::Malformed(
                    "remap tile count disagrees with the block grid".into(),
                ));
            }
            let mut all = Vec::new();
            for _ in 0..tiles {
                let len = c.u32("assignment length")? as usize;
                let assign = c.i32_slice(len, "assignment")?;
                if assign.iter().any(|&p| p < 0) {
                    return Err(ArtifactError::Malformed("negative bitline index".into()));
                }
                all.push(assign.into_iter().map(|p| p as usize).collect());
            }
            all
        } else {
            Vec::new()
        };
        maps.push(TileMap { in_dim, out_dim, tile, row_blocks, col_blocks, assignments });
    }
    c.finish("tiles section")?;
    Ok(maps)
}

fn decode_provenance(bytes: &[u8]) -> Result<Provenance, ArtifactError> {
    let mut c = Cursor::new(bytes);
    let checkpoint_digest = c.u64("checkpoint digest")?;
    let weight_bits = c.u32("weight bits")?;
    let activation_bits = c.u32("activation bits")?;
    if !(1..=16).contains(&weight_bits) || !(1..=16).contains(&activation_bits) {
        return Err(ArtifactError::Malformed("provenance bit widths out of 1..=16".into()));
    }
    let name_len = c.u32("model name length")? as usize;
    let raw = c.take(name_len, "model name")?;
    let model = std::str::from_utf8(raw)
        .map_err(|_| ArtifactError::Malformed("model name is not utf-8".into()))?
        .to_string();
    c.finish("provenance section")?;
    Ok(Provenance { checkpoint_digest, weight_bits, activation_bits, model })
}

/// Decodes `.qsnca` bytes into an engine-backed network.
///
/// Validation order: magic → version → trailer checksum → section table
/// bounds and overlap → per-section strict parse. Every declared count is
/// checked against the remaining byte budget *before* the dependent
/// allocation, so a hostile file can make this fail, but never allocate
/// beyond a small multiple of its own size.
///
/// # Errors
///
/// A typed [`ArtifactError`] for every way the bytes can be wrong; this
/// function does not panic on any input.
pub fn decode_artifact(bytes: &[u8]) -> Result<LoadedArtifact, ArtifactError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(ArtifactError::Truncated { what: "file header" });
    }
    if bytes[0..4] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if version != FORMAT_VERSION {
        return Err(ArtifactError::BadVersion(version));
    }
    let body_len = bytes.len() - TRAILER_LEN;
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8-byte trailer"));
    if checksum(&bytes[..body_len]) != stored {
        return Err(ArtifactError::ChecksumMismatch);
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice")) as usize;
    if count > MAX_SECTIONS {
        return Err(ArtifactError::Malformed(format!("section count {count} exceeds {MAX_SECTIONS}")));
    }
    let table_end = HEADER_LEN + count * ENTRY_LEN;
    if table_end > body_len {
        return Err(ArtifactError::Truncated { what: "section table" });
    }
    // Parse and bounds-check the table before touching any payload.
    let mut entries = Vec::new();
    for i in 0..count {
        let base = HEADER_LEN + i * ENTRY_LEN;
        let id = u32::from_le_bytes(bytes[base..base + 4].try_into().expect("4-byte slice"));
        let offset = u64::from_le_bytes(bytes[base + 4..base + 12].try_into().expect("8-byte slice"));
        let len = u64::from_le_bytes(bytes[base + 12..base + 20].try_into().expect("8-byte slice"));
        let offset = usize::try_from(offset)
            .map_err(|_| ArtifactError::Malformed(format!("section {id} offset out of range")))?;
        let len = usize::try_from(len)
            .map_err(|_| ArtifactError::Malformed(format!("section {id} length out of range")))?;
        let end = offset
            .checked_add(len)
            .filter(|&e| offset >= table_end && e <= body_len)
            .ok_or(ArtifactError::Truncated { what: "section payload" })?;
        let _ = end;
        if entries.iter().any(|&(other, _, _): &(u32, usize, usize)| other == id) {
            return Err(ArtifactError::Malformed(format!("duplicate section id {id}")));
        }
        entries.push((id, offset, len));
    }
    let mut spans: Vec<(usize, usize)> = entries.iter().map(|&(_, o, l)| (o, l)).collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        if w[0].0 + w[0].1 > w[1].0 {
            return Err(ArtifactError::SectionOverlap);
        }
    }
    let section = |id: u32| -> Result<&[u8], ArtifactError> {
        entries
            .iter()
            .find(|&&(i, _, _)| i == id)
            .map(|&(_, o, l)| &bytes[o..o + l])
            .ok_or(ArtifactError::MissingSection(id))
    };
    let (input_quant, input_dims, stages) = decode_model(section(SECTION_MODEL)?)?;
    let tiles = decode_tiles(section(SECTION_TILES)?)?;
    let provenance = decode_provenance(section(SECTION_PROVENANCE)?)?;
    let syn_stages = stages
        .iter()
        .filter(|s| matches!(s, EngineStage::Syn(_)))
        .count();
    if tiles.len() != syn_stages {
        return Err(ArtifactError::Malformed(format!(
            "tile map covers {} layers but the model has {syn_stages} synaptic stages",
            tiles.len()
        )));
    }
    let network = SpikingNetwork::from_engine(IntEngine { stages, input_quant }, input_quant);
    Ok(LoadedArtifact { network, input_dims, provenance, tiles })
}

/// Loads a `.qsnca` artifact from disk: one `read` into an arena, then
/// [`decode_artifact`]. This is the serving process's cold-start path — no
/// training stack, no clustering, no threshold search.
///
/// # Errors
///
/// [`ArtifactError::Io`] on read failure, otherwise everything
/// [`decode_artifact`] returns.
pub fn load_artifact(path: impl AsRef<Path>) -> Result<LoadedArtifact, ArtifactError> {
    let bytes = std::fs::read(path)?;
    decode_artifact(&bytes)
}
