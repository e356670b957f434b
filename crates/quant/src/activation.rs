//! Fixed-integer quantization of inter-layer signals (Sec. 3.1).
//!
//! In the spiking system, a signal is a spike count: a non-negative integer
//! in `[0, 2^M − 1]` for an `M`-bit time window, with the *same* range in
//! every layer ("uniform values"). [`ActivationQuantizer`] models this: it
//! maps a real activation to the nearest representable spike count (via an
//! optional uniform calibration scale) and back.

use qsnc_tensor::Tensor;

/// Quantizes activations to `M`-bit fixed integers.
///
/// The quantizer applies `q(x) = clamp(round(x·s), 0, 2^M − 1) / s` where
/// `s` is a **single uniform scale shared by all layers** (the paper's
/// design constraint; dynamic per-layer ranges are exactly what it argues
/// against). Networks trained with Neuron Convergence use `s = 1`: their
/// signals already live on the integer grid `[0, 2^(M−1)]`.
///
/// # Examples
///
/// ```
/// use qsnc_quant::ActivationQuantizer;
///
/// let q = ActivationQuantizer::new(4); // integers 0..=15, scale 1
/// assert_eq!(q.quantize_value(3.4), 3.0);
/// assert_eq!(q.quantize_value(99.0), 15.0);  // clamped to range
/// assert_eq!(q.quantize_value(-2.0), 0.0);   // spikes are non-negative
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ActivationQuantizer {
    bits: u32,
    scale: f32,
}

impl ActivationQuantizer {
    /// Creates an `bits`-bit quantizer with unit scale.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 16`.
    pub fn new(bits: u32) -> Self {
        ActivationQuantizer::with_scale(bits, 1.0)
    }

    /// Creates a quantizer with an explicit uniform scale.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is out of `1..=16` or `scale <= 0`.
    pub fn with_scale(bits: u32, scale: f32) -> Self {
        assert!((1..=16).contains(&bits), "bit width must be in 1..=16");
        assert!(scale > 0.0, "scale must be positive");
        ActivationQuantizer { bits, scale }
    }

    /// Calibrates a uniform scale from sample activations so the largest
    /// observed value maps to the top spike count. This is how the direct
    /// ("w/o") baselines are quantized: one global scale, no retraining.
    ///
    /// Falls back to unit scale for an all-zero sample.
    pub fn calibrated(bits: u32, sample: &Tensor) -> Self {
        let max = sample.max().max(0.0);
        let levels = ((1u32 << bits) - 1) as f32;
        let scale = if max > 0.0 { levels / max } else { 1.0 };
        ActivationQuantizer::with_scale(bits, scale)
    }

    /// Bit width `M`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The uniform scale `s`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Largest representable spike count, `2^M − 1`.
    pub fn max_level(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Quantizes one value (returns the dequantized representative).
    #[inline]
    pub fn quantize_value(&self, x: f32) -> f32 {
        round_clamp(x * self.scale, self.max_level() as f32) / self.scale
    }

    /// The integer spike count for one value.
    #[inline]
    pub fn spike_count(&self, x: f32) -> u32 {
        round_clamp(x * self.scale, self.max_level() as f32) as u32
    }

    /// Reconstructs an activation from a spike count.
    pub fn from_spike_count(&self, spikes: u32) -> f32 {
        spikes.min(self.max_level()) as f32 / self.scale
    }

    /// Quantizes a whole tensor (dequantized representatives).
    pub fn quantize(&self, x: &Tensor) -> Tensor {
        // Copied out of `self` so the loop holds them in registers: through
        // `&self` they are reloaded per element and the loop stays scalar.
        let (scale, max) = (self.scale, self.max_level() as f32);
        x.map(|v| round_clamp(v * scale, max) / scale)
    }

    /// Rate-codes `x` into `counts`: `counts[i] = spike_count(x[i])`, in a
    /// loop that vectorizes. This is the integer engine's input coding.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn spike_counts(&self, x: &[f32], counts: &mut [i32]) {
        assert_eq!(x.len(), counts.len(), "spike_counts length mismatch");
        // Copied out of `self` for the reason `quantize` gives.
        let (scale, max) = (self.scale, self.max_level() as f32);
        for (c, &v) in counts.iter_mut().zip(x) {
            // `round_clamp` gives NaN, ±0.0 or an integer in `1..=max`; the
            // select sends NaN and −0.0 to `+0.0`, as `spike_count`'s `as`
            // cast does. An integer `r < 2^23` is the low mantissa of
            // `r + 2^23`, so the bit cast replaces the saturating `as`,
            // which does not vectorize.
            let r = round_clamp(v * scale, max);
            let r = if r > 0.0 { r } else { 0.0 };
            *c = ((r + SNAP).to_bits() - SNAP.to_bits()) as i32;
        }
    }
}

/// `2^23`: from here up the f32 spacing is 1.
const SNAP: f32 = 8_388_608.0;

/// `u.round().clamp(0.0, max)`, bit for bit, for an integral `max` in
/// `1..=2^16 − 1`: ties round away from zero, NaN passes through, and
/// `u` in `(−0.5, −0.0]` keeps its `−0.0`.
///
/// Built from adds and selects, so a loop over it vectorizes: `f32::round`
/// is a libm call per element on baseline x86-64, and a saturating
/// `as i32` truncation does not vectorize either. Clamping `u` into
/// `[−1, max]` first changes no result (every `u ≤ −0.5` ends at `0.0`,
/// every `u ≥ max` at `max`).
#[inline(always)]
fn round_clamp(u: f32, max: f32) -> f32 {
    // `max`/`min` drop a NaN `u`; the last line puts it back.
    let c = u.max(-1.0).min(max);
    // Round to nearest, ties to even, exact for `0 ≤ c < 2^23`; `c − even`
    // is then exact, and a tie rounded down moves up, away from zero.
    let even = (c + SNAP) - SNAP;
    let away = if c - even == 0.5 { even + 1.0 } else { even };
    // Below zero the result is a zero: `−0.0` for `c` in `(−0.5, −0.0]`.
    let r = if c > 0.0 {
        away
    } else if c > -0.5 {
        0.0f32.copysign(c)
    } else {
        0.0
    };
    if u.is_nan() {
        u
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rounding `round_clamp` replaces, kept as its oracle.
    fn libm_round_clamp(u: f32, max: f32) -> f32 {
        u.round().clamp(0.0, max)
    }

    fn same_bits(a: f32, b: f32) -> bool {
        // NaN payloads are the platform's business; NaN-ness is ours.
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn round_clamp_matches_libm_round_bit_for_bit() {
        let mut probes: Vec<f32> = vec![
            0.0,
            -0.0,
            -0.25,
            -0.49999997,
            -0.5,
            -0.50000006,
            -1e-30,
            f32::from_bits(1),
            -f32::from_bits(1),
            8_388_608.0, // 2^23: every float from here up is an integer
            8_388_607.5,
            16_777_216.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MAX,
            f32::MIN,
        ];
        // k ± 0.5 and their neighbouring ulps, for every level.
        for k in -3..=70_000i32 {
            for half in [k as f32 - 0.5, k as f32 + 0.5, k as f32] {
                probes.extend([
                    half,
                    f32::from_bits(half.to_bits().wrapping_add(1)),
                    f32::from_bits(half.to_bits().wrapping_sub(1)),
                ]);
            }
        }
        // Strided bit patterns over the whole f32 space, NaNs included.
        probes.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));
        for bits in [1u32, 2, 4, 8, 16] {
            let max = ((1u32 << bits) - 1) as f32;
            for &u in &probes {
                let (got, want) = (round_clamp(u, max), libm_round_clamp(u, max));
                assert!(
                    same_bits(got, want),
                    "M={bits} u={u:e} ({:#x}): {got:e} vs {want:e}",
                    u.to_bits()
                );
            }
        }
    }

    #[test]
    fn quantizer_rounding_matches_libm_round() {
        for q in [
            ActivationQuantizer::new(4),
            ActivationQuantizer::with_scale(8, 3.7),
            ActivationQuantizer::with_scale(2, 0.3),
        ] {
            let max = q.max_level() as f32;
            for i in 0..100_000u32 {
                let x = f32::from_bits(i.wrapping_mul(2_654_435_761));
                let want = libm_round_clamp(x * q.scale(), max);
                assert!(same_bits(q.quantize_value(x), want / q.scale()), "x={x:e}");
                assert_eq!(q.spike_count(x), want as u32, "x={x:e}");
            }
        }
    }

    #[test]
    fn spike_counts_match_spike_count() {
        let mut xs: Vec<f32> =
            (0..100_000u32).map(|i| f32::from_bits(i.wrapping_mul(2_654_435_761))).collect();
        xs.extend([f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 0.5, 1.5]);
        for q in [
            ActivationQuantizer::new(4),
            ActivationQuantizer::with_scale(8, 3.7),
            ActivationQuantizer::with_scale(16, 0.3),
        ] {
            let mut counts = vec![-1; xs.len()];
            q.spike_counts(&xs, &mut counts);
            for (&x, &c) in xs.iter().zip(&counts) {
                assert_eq!(c, q.spike_count(x) as i32, "x={x:e} ({:#x})", x.to_bits());
            }
        }
    }

    #[test]
    fn rounds_to_integers_at_unit_scale() {
        let q = ActivationQuantizer::new(4);
        assert_eq!(q.quantize_value(0.4), 0.0);
        assert_eq!(q.quantize_value(0.6), 1.0);
        assert_eq!(q.quantize_value(7.5), 8.0);
        assert_eq!(q.max_level(), 15);
    }

    #[test]
    fn clamps_to_range() {
        let q = ActivationQuantizer::new(3);
        assert_eq!(q.quantize_value(100.0), 7.0);
        assert_eq!(q.quantize_value(-5.0), 0.0);
    }

    #[test]
    fn idempotent() {
        let q = ActivationQuantizer::new(5);
        for i in 0..200 {
            let x = i as f32 * 0.37 - 10.0;
            let once = q.quantize_value(x);
            assert_eq!(q.quantize_value(once), once);
        }
    }

    #[test]
    fn spike_count_round_trip() {
        let q = ActivationQuantizer::with_scale(4, 2.0);
        for spikes in 0..=q.max_level() {
            let x = q.from_spike_count(spikes);
            assert_eq!(q.spike_count(x), spikes);
        }
    }

    #[test]
    fn calibration_uses_full_range() {
        let sample = Tensor::from_slice(&[0.0, 0.2, 0.5, 1.0]);
        let q = ActivationQuantizer::calibrated(3, &sample);
        // Max sample (1.0) should map to the top level (7).
        assert_eq!(q.spike_count(1.0), 7);
        assert_eq!(q.quantize_value(1.0), 1.0);
    }

    #[test]
    fn calibration_of_zero_sample_is_identity_scale() {
        let q = ActivationQuantizer::calibrated(4, &Tensor::zeros([8]));
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn error_bounded_by_half_lsb_within_range() {
        let q = ActivationQuantizer::with_scale(6, 4.0);
        let lsb = 1.0 / 4.0;
        for i in 0..1000 {
            let x = i as f32 * 0.015; // within [0, 15] < 63/4
            let err = (q.quantize_value(x) - x).abs();
            assert!(err <= lsb / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn fewer_bits_means_more_error() {
        let mut rng = qsnc_tensor::TensorRng::seed(0);
        let x = qsnc_tensor::init::uniform([1000], 0.0, 1.0, &mut rng);
        let mse = |bits| {
            let q = ActivationQuantizer::calibrated(bits, &x);
            x.iter()
                .map(|&v| (q.quantize_value(v) - v).powi(2))
                .sum::<f32>()
                / x.len() as f32
        };
        let (e8, e4, e2) = (mse(8), mse(4), mse(2));
        assert!(e8 < e4 && e4 < e2, "e8={e8} e4={e4} e2={e2}");
    }
}
