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
    pub fn quantize_value(&self, x: f32) -> f32 {
        let level = (x * self.scale).round().clamp(0.0, self.max_level() as f32);
        level / self.scale
    }

    /// The integer spike count for one value.
    pub fn spike_count(&self, x: f32) -> u32 {
        (x * self.scale).round().clamp(0.0, self.max_level() as f32) as u32
    }

    /// Reconstructs an activation from a spike count.
    pub fn from_spike_count(&self, spikes: u32) -> f32 {
        spikes.min(self.max_level()) as f32 / self.scale
    }

    /// Quantizes a whole tensor (dequantized representatives).
    pub fn quantize(&self, x: &Tensor) -> Tensor {
        x.map(|v| self.quantize_value(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
