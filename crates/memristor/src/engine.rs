//! Integer fast-path inference engine.
//!
//! A deployable network is exactly integer-valued: weights are clustered
//! grid codes (Eq. 6) and inter-layer signals are `M`-bit spike counts.
//! [`IntEngine`] exploits that — it compiles the pipeline's stages down to
//! packed `i8` code matrices ([`qsnc_tensor::PackedCodes`]), runs every
//! synaptic product through the `i32` [`qsnc_tensor::igemm`] kernels, and
//! replaces the per-call IFC float math with per-neuron integer threshold
//! tables built once at compile time. All working buffers come from the
//! [`qsnc_tensor::scratch`] arena, so steady-state inference performs zero
//! heap allocations (measured by the allocation-count benchmarks).
//!
//! **Epilogue.** Each counter stage turns its accumulators into counts with
//! [`qsnc_tensor::simd::ifc_counts`], the paper's IFC and counter as a
//! branch-free compare chain over one filter's thresholds, which also
//! tallies the stage's spikes and saturated counters in the same pass. A
//! max-pool stage then runs [`qsnc_tensor::simd::max_pool`] on the counts.
//! Counting comes first, so the telemetry tally covers every pre-pool
//! neuron, as the float pipeline's does, and the IFC and pool stage
//! timings stay separate.
//!
//! **Bit-exactness.** The engine is bit-identical to the float pipeline
//! with exact synaptic sums ([`crate::SpikingNetwork::infer_reference`]):
//! every accumulator is an integer bounded below `2^24`, so the float
//! path's `f32` sums are exact and equal the engine's `i32` sums; the
//! requant thresholds are found by binary search over the *identical* float
//! expressions the pipeline evaluates, so each neuron's spike count agrees
//! on every possible accumulator value; and count → activation round trips
//! (`round((c/s)·s) == c`) plus the monotone max-pool commute exactly. The
//! proptests in `tests/engine_bit_identity.rs` assert this across
//! `M, N ∈ {2..8}` including the IFC saturation boundary.
//!
//! The engine is built only when the whole network is expressible in this
//! integer form — conv/FC/max-pool/flatten stages, ideal (noise-free)
//! programming, codes that fit `i8`, accumulators under `2^24` — and is
//! used only for noise-free reads; anything else falls back to the float
//! substrate simulation.

use crate::pipeline::{Readout, Stage, SynKind};
use qsnc_quant::ActivationQuantizer;
use qsnc_tensor::{igemm, igemm_conv, scratch, simd, PackedCodes, Tensor};
use std::time::Instant;

/// Records `elapsed` since `t0` (µs) into the named quantile sketch; the
/// `Option` is `None` when telemetry was off at stage entry, making the
/// disabled cost a single branch.
#[inline]
fn stage_us(name: &str, t0: Option<Instant>) -> Option<Instant> {
    if let Some(t0) = t0 {
        qsnc_telemetry::quantile_observe(name, t0.elapsed().as_secs_f64() * 1e6);
        Some(Instant::now())
    } else {
        None
    }
}

/// Accumulator magnitude bound guaranteeing `f32` exactness of the float
/// oracle's sums (every partial sum stays an integer below `2^24`). The
/// artifact loader re-checks it, so a corrupt artifact cannot smuggle in a
/// network whose float oracle would not be exact.
pub(crate) const EXACT_F32_BOUND: i64 = 1 << 24;

/// How a synaptic stage's accumulator becomes the stage output.
///
/// `pub(crate)` (like [`EngineSyn`], [`EngineStage`], and the [`IntEngine`]
/// fields) so the [`crate::artifact`] serializer can walk and rebuild a
/// compiled engine without re-deriving thresholds.
pub(crate) enum EngineOut {
    /// Intermediate stage: IFC + `M`-bit counter, precompiled to ascending
    /// per-neuron thresholds. `thresholds[f · max_level + (c−1)]` is the
    /// smallest accumulator for which neuron `f` counts at least `c`
    /// (`i32::MAX` when unreachable), so the count for accumulator `y` is
    /// the number of thresholds `≤ y`. [`qsnc_tensor::simd::ifc_counts`]
    /// computes it for a whole accumulator row of filter `f`, comparing
    /// every threshold without a branch, and returns the row's spike and
    /// saturation tallies with it.
    Counts {
        max_level: u32,
        out_scale: f32,
        thresholds: Vec<i32>,
        /// Whether the float path tallies spike telemetry here (it does
        /// only for rectifying counter stages).
        record: bool,
    },
    /// Final stage: evaluate the float pre-activation per neuron and apply
    /// the stage's requant, exactly as the float pipeline does.
    Analog,
}

/// One synaptic stage in integer form.
pub(crate) struct EngineSyn {
    pub(crate) kind: SynKind,
    pub(crate) packed: PackedCodes,
    pub(crate) weight_scale: f32,
    pub(crate) in_scale: f32,
    pub(crate) bias: Vec<f32>,
    pub(crate) rectify: bool,
    pub(crate) out_quant: Option<ActivationQuantizer>,
    pub(crate) out: EngineOut,
}

impl EngineSyn {
    /// The stage's readout expressions, the same ones the float pipeline
    /// evaluates.
    fn readout(&self) -> Readout<'_> {
        Readout {
            weight_scale: self.weight_scale,
            in_scale: self.in_scale,
            bias: &self.bias,
            rectify: self.rectify,
            out_quant: self.out_quant,
        }
    }
}

pub(crate) enum EngineStage {
    // Boxed: a compiled synaptic stage carries several packed panels and
    // would otherwise dwarf the other variants.
    Syn(Box<EngineSyn>),
    MaxPool { window: usize, stride: usize },
    Flatten,
}

/// Signal geometry threaded through the stages: `[1, c, h, w]` while
/// spatial, `[1, c]` (with `h = w = 1`) once flattened.
#[derive(Clone, Copy)]
pub(crate) struct SignalShape {
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub flat: bool,
}

impl SignalShape {
    fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Output tensor dims matching what the float pipeline returns.
    pub(crate) fn dims(&self) -> Vec<usize> {
        if self.flat {
            vec![1, self.len()]
        } else {
            vec![1, self.c, self.h, self.w]
        }
    }
}

/// The compiled integer engine for one [`crate::SpikingNetwork`].
pub(crate) struct IntEngine {
    pub(crate) stages: Vec<EngineStage>,
    pub(crate) input_quant: ActivationQuantizer,
}

/// Precomputes the per-neuron count thresholds for a counter stage: for
/// every neuron `f` and count `c ∈ 1..=max_level`, the smallest integer
/// accumulator `y ∈ [−bound, bound]` with `count(y) ≥ c`. The count is
/// monotone in `y` (positive weight scale, monotone IFC), so binary search
/// over the float pipeline's own [`Readout`] expressions finds each
/// boundary; that is what makes the thresholds bit-faithful.
fn build_thresholds(
    readout: Readout<'_>,
    bound: i32,
    max_level: u32,
    out_dim: usize,
) -> Option<Vec<i32>> {
    let mut thresholds = Vec::with_capacity(out_dim * max_level as usize);
    for f in 0..out_dim {
        for c in 1..=max_level {
            let (mut lo, mut hi) = (-bound, bound + 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if readout.count(readout.pre_activation(f, mid as f32))? >= c {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            thresholds.push(if lo > bound { i32::MAX } else { lo });
        }
    }
    Some(thresholds)
}

impl IntEngine {
    /// Compiles `stages` to the integer representation, or `None` when any
    /// stage falls outside the exactly-representable subset.
    pub(crate) fn build(stages: &[Stage], input_quant: ActivationQuantizer) -> Option<IntEngine> {
        let mut compiled = Vec::with_capacity(stages.len());
        for (idx, stage) in stages.iter().enumerate() {
            let last = idx == stages.len() - 1;
            match stage {
                Stage::Synaptic(s) => {
                    let (in_dim, out_dim) = match s.kind {
                        SynKind::Conv { spec, in_c, out_c } => {
                            (spec.kernel * spec.kernel * in_c, out_c)
                        }
                        SynKind::Fc { in_dim, out_dim } => (in_dim, out_dim),
                    };
                    let packed = PackedCodes::try_pack(&s.codes, out_dim, in_dim)?;
                    let in_max = s.in_quant.max_level();
                    let bound = packed.max_abs_accum(in_max);
                    if bound >= EXACT_F32_BOUND {
                        return None;
                    }
                    let out = match (last, s.out_quant) {
                        // Interior stages must produce integer counts.
                        (false, Some(q)) => EngineOut::Counts {
                            max_level: q.max_level(),
                            out_scale: q.scale(),
                            thresholds: build_thresholds(
                                s.readout(),
                                bound as i32,
                                q.max_level(),
                                out_dim,
                            )?,
                            record: s.rectify,
                        },
                        (false, None) => return None,
                        // The final stage may read out analog.
                        (true, _) => EngineOut::Analog,
                    };
                    compiled.push(EngineStage::Syn(Box::new(EngineSyn {
                        kind: s.kind,
                        packed,
                        weight_scale: s.weight_scale,
                        in_scale: s.in_quant.scale(),
                        bias: s.bias.clone(),
                        rectify: s.rectify,
                        out_quant: s.out_quant,
                        out,
                    })));
                }
                Stage::MaxPool { window, stride } => {
                    compiled.push(EngineStage::MaxPool { window: *window, stride: *stride });
                }
                Stage::Flatten => compiled.push(EngineStage::Flatten),
                // Avg-pool, standalone requant and residual paths leave the
                // integer-count domain; fall back to the float substrate.
                _ => return None,
            }
        }
        Some(IntEngine { stages: compiled, input_quant })
    }

    /// Runs integer inference on the `[B, …]` input `xs`, writing the
    /// per-example float output signals (channel-major, same layout as the
    /// float pipeline's flattened output tensor) back-to-back into `out`
    /// (`B · shape.len()` floats) and returning one example's shape. FC
    /// stages run one `igemm` with `M = B`, conv stages stream examples
    /// through shared scratch buffers, and every example stays
    /// bit-identical to [`crate::SpikingNetwork::infer_reference`]. `out` is
    /// cleared and resized; with a warm reused `out` and a warm scratch
    /// arena, a fixed batch size performs zero heap allocations.
    pub(crate) fn infer_batch_into(&self, xs: &Tensor, out: &mut Vec<f32>) -> SignalShape {
        let dims = xs.dims();
        let batch = dims[0];
        let tele = qsnc_telemetry::enabled();
        if tele {
            qsnc_telemetry::counter_add("snc.engine.infer", batch as u64);
        }
        let mut shape = if dims.len() == 4 {
            SignalShape { c: dims[1], h: dims[2], w: dims[3], flat: false }
        } else {
            SignalShape { c: dims[1..].iter().product(), h: 1, w: 1, flat: true }
        };

        // Rate-code the input: same integer levels the float path's input
        // quantization produces.
        let mut cur = scratch::take_i32(batch * shape.len());
        self.input_quant.spike_counts(xs.as_slice(), &mut cur);

        for stage in &self.stages {
            match stage {
                EngineStage::Syn(syn) => {
                    let next = self.run_synaptic(syn, batch, &cur, &mut shape, out, tele);
                    scratch::put_i32(cur);
                    match next {
                        Some(counts) => cur = counts,
                        // Analog readout wrote `out` directly; it is
                        // always the final stage.
                        None => return shape,
                    }
                }
                EngineStage::MaxPool { window, stride } => {
                    let t0 = tele.then(Instant::now);
                    let spec = qsnc_tensor::Conv2dSpec::new(*window, *stride, 0);
                    let (oh, ow) = (spec.output_size(shape.h), spec.output_size(shape.w));
                    let mut next = scratch::take_i32(batch * shape.c * oh * ow);
                    // The examples' channel planes lie back to back.
                    simd::max_pool(
                        simd::simd_level(),
                        &cur,
                        batch * shape.c,
                        (shape.h, shape.w),
                        *window,
                        *stride,
                        &mut next,
                    );
                    scratch::put_i32(cur);
                    cur = next;
                    shape.h = oh;
                    shape.w = ow;
                    stage_us("snc.engine.stage.pool.us", t0);
                }
                EngineStage::Flatten => {
                    shape = SignalShape { c: shape.len(), h: 1, w: 1, flat: true };
                }
            }
        }

        // The network ended on an integer-count signal: decode counts to
        // activations with the last counter's scale, exactly as the float
        // pipeline's running tensor holds them.
        let out_scale = self
            .stages
            .iter()
            .rev()
            .find_map(|s| match s {
                EngineStage::Syn(syn) => match syn.out {
                    EngineOut::Counts { out_scale, .. } => Some(out_scale),
                    _ => None,
                },
                _ => None,
            })
            .unwrap_or_else(|| self.input_quant.scale());
        out.clear();
        out.extend(cur.iter().map(|&c| c as f32 / out_scale));
        scratch::put_i32(cur);
        shape
    }

    /// Runs one synaptic stage over a batch. Returns the output counts for
    /// interior stages, or `None` after writing the analog readout into
    /// `out`. With `tele` set, the synaptic multiply and the IFC/analog
    /// readout record separately into the `snc.engine.stage.*.us` quantile
    /// sketches, which is how `/metrics` attributes infer time per stage.
    fn run_synaptic(
        &self,
        syn: &EngineSyn,
        batch: usize,
        cur: &[i32],
        shape: &mut SignalShape,
        out: &mut Vec<f32>,
        tele: bool,
    ) -> Option<Vec<i32>> {
        let t0 = tele.then(Instant::now);
        // Multiply into per-example channel-major `[out_dim, pix]`
        // accumulators (pix = 1 for FC, where the layouts coincide). Conv
        // runs in the weights-times-columns orientation so the inner loop
        // streams whole pixel rows; FC folds the whole batch into one `igemm`
        // with `M = batch` (its `[batch, out_dim]` row-major output is
        // exactly the concatenated per-example layout).
        let (pix, out_dim, acc) = match syn.kind {
            SynKind::Conv { spec, in_c, out_c } => {
                debug_assert_eq!(shape.c, in_c, "conv input channel mismatch");
                let (oh, ow) = (spec.output_size(shape.h), spec.output_size(shape.w));
                let pix = oh * ow;
                let in_len = shape.len();
                let mut acc = scratch::take_i32(batch * out_c * pix);
                for b in 0..batch {
                    // igemm_conv copies each example once into its conv
                    // plan's plane and runs the product on this thread, at
                    // every SIMD level (see its docs).
                    igemm_conv(
                        &cur[b * in_len..(b + 1) * in_len],
                        in_c,
                        (shape.h, shape.w),
                        spec,
                        &syn.packed,
                        &mut acc[b * out_c * pix..(b + 1) * out_c * pix],
                    );
                }
                *shape = SignalShape { c: out_c, h: oh, w: ow, flat: shape.flat };
                (pix, out_c, acc)
            }
            SynKind::Fc { in_dim, out_dim } => {
                debug_assert_eq!(cur.len(), batch * in_dim, "fc input length mismatch");
                let mut acc = scratch::take_i32(batch * out_dim);
                igemm(batch, in_dim, out_dim, cur, &syn.packed, &mut acc);
                *shape = SignalShape { c: out_dim, h: 1, w: 1, flat: true };
                (1, out_dim, acc)
            }
        };

        let stride = out_dim * pix;
        let t0 = stage_us(
            match syn.kind {
                SynKind::Conv { .. } => "snc.engine.stage.conv.us",
                SynKind::Fc { .. } => "snc.engine.stage.fc.us",
            },
            t0,
        );
        match &syn.out {
            EngineOut::Counts { max_level, thresholds, record, .. } => {
                let max = *max_level as usize;
                let level = simd::simd_level();
                let mut next = scratch::take_i32(batch * stride);
                let (mut spikes, mut saturated) = (0u64, 0u64);
                // Row `r` of the `[batch · out_dim, pix]` accumulators is
                // filter `r mod out_dim` of example `r / out_dim`.
                for (r, (arow, nrow)) in
                    acc.chunks_exact(pix).zip(next.chunks_exact_mut(pix)).enumerate()
                {
                    let f = r % out_dim;
                    let t = &thresholds[f * max..(f + 1) * max];
                    let (s, z) = simd::ifc_counts(level, arow, t, nrow);
                    spikes += s;
                    saturated += z;
                }
                if *record && qsnc_telemetry::enabled() {
                    qsnc_telemetry::counter_add("snc.spikes", spikes);
                    qsnc_telemetry::counter_add("snc.ifc.conversions", (batch * stride) as u64);
                    qsnc_telemetry::counter_add("snc.ifc.saturated", saturated);
                }
                stage_us("snc.engine.stage.ifc.us", t0);
                scratch::put_i32(acc);
                Some(next)
            }
            EngineOut::Analog => {
                // Final readout: the float pipeline's own expressions.
                let readout = syn.readout();
                out.clear();
                out.resize(batch * stride, 0.0);
                for b in 0..batch {
                    let abase = &acc[b * stride..(b + 1) * stride];
                    let obase = &mut out[b * stride..(b + 1) * stride];
                    for f in 0..out_dim {
                        let arow = &abase[f * pix..(f + 1) * pix];
                        let orow = &mut obase[f * pix..(f + 1) * pix];
                        for (ov, &y) in orow.iter_mut().zip(arow.iter()) {
                            *ov = readout.output(f, y as f32);
                        }
                    }
                }
                stage_us("snc.engine.stage.analog.us", t0);
                scratch::put_i32(acc);
                None
            }
        }
    }
}

impl std::fmt::Debug for IntEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntEngine")
            .field("stages", &self.stages.len())
            .finish()
    }
}
