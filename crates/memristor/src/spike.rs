//! Rate coding, integrate-and-fire conversion, and spike counters.
//!
//! In the paper's SNC a signal's strength is the number of spikes emitted
//! inside a fixed time window of `2^M` slots. Crossbar bitline current is
//! converted back to spikes by an integrate-and-fire circuit (IFC) and
//! counted by an `M`-bit counter — that digital count is the next layer's
//! input signal.

use qsnc_quant::ActivationQuantizer;

/// A rate-coded spike train: `count` spikes inside a `window`-slot frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct SpikeTrain {
    /// Number of spikes (the coded value).
    pub count: u32,
    /// Window length in slots (`2^M`).
    pub window: u32,
}

impl SpikeTrain {
    /// Creates a train, clamping `count` into the window.
    pub fn new(count: u32, window: u32) -> Self {
        SpikeTrain {
            count: count.min(window),
            window,
        }
    }

    /// Slot occupancy as booleans, spikes spread evenly over the window
    /// (deterministic rate coding).
    pub fn slots(&self) -> Vec<bool> {
        let mut slots = vec![false; self.window as usize];
        if self.count == 0 {
            return slots;
        }
        // Bresenham-style even spacing.
        let mut acc = 0u32;
        for slot in slots.iter_mut() {
            acc += self.count;
            if acc >= self.window {
                acc -= self.window;
                *slot = true;
            }
        }
        slots
    }
}

/// Encodes activations into spike counts for an `M`-bit window.
///
/// Thin wrapper around [`ActivationQuantizer`] fixing the window length to
/// `2^M` slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeEncoder {
    quantizer: ActivationQuantizer,
}

impl SpikeEncoder {
    /// Creates an encoder from a quantizer.
    pub fn new(quantizer: ActivationQuantizer) -> Self {
        SpikeEncoder { quantizer }
    }

    /// The underlying quantizer.
    pub fn quantizer(&self) -> ActivationQuantizer {
        self.quantizer
    }

    /// Window length in slots, `2^M`.
    pub fn window(&self) -> u32 {
        1u32 << self.quantizer.bits()
    }

    /// Encodes a real activation as a spike train.
    pub fn encode(&self, value: f32) -> SpikeTrain {
        SpikeTrain::new(self.quantizer.spike_count(value), self.window())
    }

    /// Decodes a spike count back into an activation value.
    pub fn decode(&self, train: SpikeTrain) -> f32 {
        self.quantizer.from_spike_count(train.count)
    }
}

/// An integrate-and-fire converter with an `M`-bit output counter.
///
/// The membrane integrates incoming charge; each time it crosses
/// `threshold`, one spike fires and the threshold's worth of charge is
/// subtracted (no leak). A half-threshold precharge makes the final count
/// equal to `round(total_charge / threshold)` — matching the software
/// quantizer's rounding, which is why deployment accuracy tracks the
/// software-quantized model exactly in the noise-free case.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Ifc {
    /// Charge per output spike.
    pub threshold: f32,
    /// Initial membrane charge as a fraction of the threshold (0.5 → the
    /// counter rounds; 0.0 → it floors).
    pub precharge: f32,
    /// Counter saturation value (`2^M − 1`).
    pub max_count: u32,
}

impl Ifc {
    /// Creates an IFC with rounding precharge.
    ///
    /// # Panics
    ///
    /// Panics if `threshold <= 0`.
    pub fn new(threshold: f32, max_count: u32) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        Ifc {
            threshold,
            precharge: 0.5,
            max_count,
        }
    }

    /// Closed-form conversion of a total integrated charge to a spike
    /// count. Negative charge never fires (the rectifying behaviour that
    /// implements ReLU for free on this substrate).
    pub fn convert(&self, charge: f32) -> u32 {
        if charge <= 0.0 {
            return 0;
        }
        let fired = ((charge / self.threshold) + self.precharge).floor();
        (fired.max(0.0) as u32).min(self.max_count)
    }

    /// Cycle-level simulation: integrates `charge_per_slot` over the slot
    /// pattern of `train_slots`, firing as thresholds are crossed.
    ///
    /// It matches [`convert`](Self::convert) on the summed charge only
    /// when every slot's charge is non-negative (up to float rounding of
    /// the running membrane). With signed charges an early positive
    /// partial sum can fire a spike that the final total would not, and a
    /// spike is never taken back, so the count can exceed the closed form.
    pub fn simulate(&self, charges: &[f32]) -> u32 {
        let mut membrane = self.precharge * self.threshold;
        let mut count = 0u32;
        for &q in charges {
            membrane += q;
            while membrane >= self.threshold && count < self.max_count {
                membrane -= self.threshold;
                count += 1;
            }
        }
        count
    }
}

/// Cycle-accurate evaluation of one crossbar-mapped layer: drives the
/// wordlines slot by slot with rate-coded spike trains and integrates the
/// bitline currents in per-column IFCs.
///
/// This is the slow, physically literal path. The fast closed-form path in
/// [`pipeline`](crate::pipeline) converts the total charge once; the two
/// agree only when every code is non-negative, so that no membrane falls
/// after it fires (`cycle_accurate_matches_closed_form` checks that
/// regime). With signed codes the slot order matters: a probe on a
/// 150 × 64 layer with codes in [−8, 8] at M = 4 found 1.8–2.9% of
/// outputs one spike above the closed form, and none below.
///
/// `x_counts` are the input spike counts (one per wordline); returns one
/// spike count per bitline.
///
/// # Panics
///
/// Panics if `x_counts.len()` differs from the matrix input dimension.
pub fn cycle_accurate_layer(
    tiles: &crate::mapping::TiledMatrix,
    x_counts: &[u32],
    window: u32,
    ifc: &Ifc,
) -> Vec<u32> {
    assert_eq!(x_counts.len(), tiles.in_dim(), "input length mismatch");
    let trains: Vec<Vec<bool>> = x_counts
        .iter()
        .map(|&c| SpikeTrain::new(c, window).slots())
        .collect();
    let mut membranes = vec![ifc.precharge * ifc.threshold; tiles.out_dim()];
    let mut counts = vec![0u32; tiles.out_dim()];
    let mut drive = vec![0.0f32; tiles.in_dim()];
    for slot in 0..window as usize {
        for (d, train) in drive.iter_mut().zip(trains.iter()) {
            *d = if train[slot] { 1.0 } else { 0.0 };
        }
        if drive.iter().all(|&v| v == 0.0) {
            continue;
        }
        let currents = tiles.matvec_code_units(&drive, None);
        for ((m, c), i) in membranes.iter_mut().zip(counts.iter_mut()).zip(currents) {
            *m += i;
            while *m >= ifc.threshold && *c < ifc.max_count {
                *m -= ifc.threshold;
                *c += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::mapping::TiledMatrix;
    use qsnc_tensor::TensorRng;

    #[test]
    fn cycle_accurate_matches_closed_form() {
        let mut rng = TensorRng::seed(0);
        let (in_dim, out_dim) = (40usize, 12usize);
        // Non-negative codes so membrane trajectories are monotone: the
        // only regime where slot ordering cannot change the count. Signed
        // codes can fire early on a positive partial sum and over-count.
        // The ±1 below allows for float rounding of the running membrane.
        let codes: Vec<i32> = (0..in_dim * out_dim).map(|_| rng.index(9) as i32).collect();
        let tiles =
            TiledMatrix::from_codes(&codes, in_dim, out_dim, 32, DeviceConfig::paper(4), None);
        let window = 16u32;
        let ifc = Ifc::new(1.0, 15);
        let x_counts: Vec<u32> = (0..in_dim).map(|_| rng.index(16) as u32).collect();

        let cycle = cycle_accurate_layer(&tiles, &x_counts, window, &ifc);

        // Closed form: total charge = Σ codes·counts, then one conversion.
        let drive: Vec<f32> = x_counts.iter().map(|&c| c as f32).collect();
        let totals = tiles.matvec_code_units(&drive, None);
        for (j, (&fast, total)) in cycle.iter().zip(totals).enumerate() {
            let closed = ifc.convert(total);
            assert!(
                (fast as i64 - closed as i64).abs() <= 1,
                "output {j}: cycle {fast} vs closed {closed}"
            );
        }
    }

    #[test]
    fn cycle_accurate_zero_input_is_silent() {
        let codes = vec![5i32; 8];
        let tiles = TiledMatrix::from_codes(&codes, 4, 2, 32, DeviceConfig::paper(4), None);
        let out = cycle_accurate_layer(&tiles, &[0, 0, 0, 0], 16, &Ifc::new(1.0, 15));
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn train_slots_spread_evenly() {
        let t = SpikeTrain::new(4, 16);
        let slots = t.slots();
        assert_eq!(slots.iter().filter(|&&s| s).count(), 4);
        // No two adjacent spikes for a quarter-rate train of this form.
        for w in slots.windows(2) {
            assert!(!(w[0] && w[1]));
        }
    }

    #[test]
    fn train_count_clamps_to_window() {
        let t = SpikeTrain::new(99, 8);
        assert_eq!(t.count, 8);
        assert!(t.slots().iter().all(|&s| s));
    }

    #[test]
    fn encoder_round_trip_within_half_lsb() {
        let enc = SpikeEncoder::new(ActivationQuantizer::with_scale(4, 2.0));
        for i in 0..=30 {
            let v = i as f32 * 0.25;
            let back = enc.decode(enc.encode(v));
            if v <= enc.quantizer().max_level() as f32 / 2.0 {
                assert!((back - v).abs() <= 0.25 + 1e-6, "v={v} back={back}");
            }
        }
    }

    #[test]
    fn encoder_window_is_power_of_two() {
        let enc = SpikeEncoder::new(ActivationQuantizer::new(5));
        assert_eq!(enc.window(), 32);
    }

    #[test]
    fn ifc_rounds_with_half_precharge() {
        let ifc = Ifc::new(1.0, 255);
        assert_eq!(ifc.convert(2.4), 2);
        assert_eq!(ifc.convert(2.6), 3);
        assert_eq!(ifc.convert(0.0), 0);
    }

    #[test]
    fn ifc_rectifies_negative_charge() {
        let ifc = Ifc::new(1.0, 255);
        assert_eq!(ifc.convert(-5.0), 0);
    }

    #[test]
    fn ifc_saturates_at_counter_width() {
        let ifc = Ifc::new(1.0, 15);
        assert_eq!(ifc.convert(1000.0), 15);
    }

    #[test]
    fn simulation_matches_closed_form() {
        let ifc = Ifc::new(0.7, 63);
        for total in [0.0f32, 0.3, 0.69, 0.71, 3.3, 10.0, 100.0] {
            // Spread the charge over 16 slots.
            let per_slot = total / 16.0;
            let charges = vec![per_slot; 16];
            assert_eq!(
                ifc.simulate(&charges),
                ifc.convert(total),
                "total charge {total}"
            );
        }
    }

    #[test]
    fn simulation_handles_bursty_trains() {
        let ifc = Ifc::new(1.0, 255);
        // All charge in one slot vs spread: same count (no leak).
        let burst = ifc.simulate(&[5.2, 0.0, 0.0]);
        let spread = ifc.simulate(&[1.3, 1.3, 1.3, 1.3]);
        assert_eq!(burst, ifc.convert(5.2));
        assert_eq!(spread, ifc.convert(5.2));
    }
}
