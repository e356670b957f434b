//! Crossbar programming: the write cost model and the write-verify loop.
//!
//! The paper motivates few-bit weights partly through *programming* cost:
//! "although the memristor devices can afford … 6-bit (64 levels) …, the
//! heavy programming cost in speed and circuit design are not acceptable"
//! (Sec. 1). [`ProgramModel`] quantifies that trade-off: programming a
//! device to one of `2^N` levels takes a number of program-verify
//! iterations that grows with the precision demanded, and the whole array
//! writes row-by-row.
//!
//! [`program_device_verified`] is the *functional* counterpart: the actual
//! program → read-back → retry loop a reliability-aware deployment runs per
//! device. Each failed attempt backs the aim level off toward an adjacent
//! conductance level to compensate the observed signed error; devices that
//! never verify within the retry budget (3 retries per device when a
//! reliability-aware deploy programs a crossbar) are reported unrecoverable
//! so the caller can zero-mask them and record the cell in its observed
//! [`crate::FaultMap`].

use crate::device::{Device, DeviceConfig};
use crate::mapping::LayerGeometry;
use qsnc_tensor::TensorRng;

/// Cost constants for the write path.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProgramModel {
    /// Duration of one program-verify iteration, µs (memristor set/reset
    /// pulses plus a read-back).
    pub t_iteration_us: f32,
    /// Energy of one iteration, nJ.
    pub e_iteration_nj: f32,
    /// Base iterations needed for a 1-bit (binary) device.
    pub base_iterations: f32,
    /// Additional iterations per extra bit of target precision: hitting a
    /// narrower conductance window needs proportionally more verify steps.
    pub iterations_per_bit: f32,
    /// Rows programmed in parallel per write step (1 = strictly
    /// row-serial).
    pub parallel_rows: usize,
}

impl ProgramModel {
    /// Defaults representative of published memristor program-verify
    /// schemes (a few µs per pulse, iterations growing with precision).
    pub fn typical() -> Self {
        ProgramModel {
            t_iteration_us: 2.0,
            e_iteration_nj: 0.5,
            base_iterations: 2.0,
            iterations_per_bit: 3.0,
            parallel_rows: 1,
        }
    }

    /// Expected program-verify iterations per device for an `bits`-bit
    /// target.
    pub fn iterations(&self, bits: u32) -> f32 {
        self.base_iterations + self.iterations_per_bit * bits.saturating_sub(1) as f32
    }

    /// Programming cost of one `rows × cols` crossbar at `bits`-bit
    /// precision (differential pairs double the device count).
    pub fn crossbar_cost(&self, rows: usize, cols: usize, bits: u32) -> ProgramCost {
        let devices = 2 * rows * cols;
        let iters = self.iterations(bits);
        // Time: row-serial (cells within a row in parallel per polarity).
        let row_steps = rows.div_ceil(self.parallel_rows) as f32;
        let time_us = row_steps * 2.0 * iters * self.t_iteration_us;
        let energy_uj = devices as f32 * iters * self.e_iteration_nj * 1e-3;
        ProgramCost {
            devices,
            time_us,
            energy_uj,
        }
    }

    /// Total programming cost over a network geometry at `bits`-bit weight
    /// precision (crossbars of one layer program in parallel across
    /// arrays; layers program sequentially — conservative).
    pub fn network_cost(&self, geometry: &[LayerGeometry], t: usize, bits: u32) -> ProgramCost {
        let mut total = ProgramCost::default();
        for g in geometry {
            // Representative full tile for timing; device count exact.
            let full = self.crossbar_cost(t.min(g.rows), t.min(g.cols), bits);
            total.devices += 2 * g.rows * g.cols;
            total.time_us += full.time_us;
            total.energy_uj +=
                2.0 * (g.rows * g.cols) as f32 * self.iterations(bits) * self.e_iteration_nj
                    * 1e-3;
            let _ = full;
        }
        total
    }

    /// How the paper's HP-Labs remark plays out: the time ratio between
    /// programming a 6-bit device array and an `bits`-bit one of the same
    /// size.
    pub fn precision_penalty(&self, bits: u32, reference_bits: u32) -> f32 {
        self.iterations(reference_bits) / self.iterations(bits)
    }
}

impl Default for ProgramModel {
    fn default() -> Self {
        ProgramModel::typical()
    }
}

/// Programming cost summary.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ProgramCost {
    /// Physical devices written.
    pub devices: usize,
    /// Wall-clock programming time, µs.
    pub time_us: f32,
    /// Total write energy, µJ.
    pub energy_uj: f32,
}

/// Checks whether a device configuration can represent the given weight
/// codes at all (|code| within the level range) — the feasibility condition
/// `N ≥ log₂(max|D| / max|W|)` of Eq. 6 translated to devices.
pub fn codes_programmable(codes: &[i32], config: &DeviceConfig) -> bool {
    let max_level = config.levels() - 1;
    codes.iter().all(|c| c.unsigned_abs() <= max_level)
}

/// Outcome of one device's write-verify loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifiedWrite {
    /// The conductance the device ended at, siemens.
    pub conductance: f32,
    /// Program-verify attempts spent (1 = verified first try).
    pub attempts: u32,
    /// Whether the final read-back matched the target level.
    pub verified: bool,
}

/// Programs one device to `target` with a program → read-back → retry loop.
///
/// Each attempt programs the device (subject to write variation when `rng`
/// is supplied) and reads the realized conductance back through
/// [`DeviceConfig::nearest_level`]. On a mismatch the next attempt *backs
/// off toward an adjacent level*: the aim level shifts one step against the
/// observed signed error, so a device that persistently programs high is
/// re-aimed low, recentring the realized conductance on the target window.
/// After `1 + max_retries` failed attempts the write is reported
/// unverified.
///
/// `pinned` models a stuck device: the realized conductance is forced to
/// the pinned value on every attempt, so the loop verifies only when the
/// target level happens to *be* the stuck level (e.g. a stuck-at-G_on
/// device faithfully stores the maximum code) and otherwise reports the
/// cell unrecoverable — exactly how write-verify discovers fault maps on
/// real arrays.
///
/// Ideal devices (no noise, no pin) verify on the first attempt with the
/// exact level conductance, which keeps fault-free deployments bit-identical
/// to unverified programming.
///
/// # Panics
///
/// Panics if `target` is out of range for `config`.
pub fn program_device_verified(
    config: &DeviceConfig,
    target: u32,
    pinned: Option<f32>,
    mut rng: Option<&mut TensorRng>,
    max_retries: u32,
) -> VerifiedWrite {
    let max_level = config.levels() - 1;
    assert!(target <= max_level, "level {target} out of range");
    let mut aim = target;
    let mut conductance = 0.0f32;
    for attempt in 1..=(1 + max_retries) {
        conductance = match pinned {
            Some(g) => g,
            None => Device::program(config, aim, rng.as_deref_mut()).conductance,
        };
        let read_back = config.nearest_level(conductance);
        if read_back == target {
            return VerifiedWrite { conductance, attempts: attempt, verified: true };
        }
        // Back off one level against the observed error for the next try.
        if read_back > target {
            aim = aim.saturating_sub(1);
        } else {
            aim = (aim + 1).min(max_level);
        }
    }
    VerifiedWrite { conductance, attempts: 1 + max_retries, verified: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnc_nn::LayerDesc;

    #[test]
    fn iterations_grow_with_precision() {
        let m = ProgramModel::typical();
        assert!(m.iterations(6) > m.iterations(4));
        assert!(m.iterations(4) > m.iterations(1));
    }

    #[test]
    fn crossbar_cost_scales_with_size_and_bits() {
        let m = ProgramModel::typical();
        let small = m.crossbar_cost(16, 16, 4);
        let big = m.crossbar_cost(32, 32, 4);
        assert_eq!(small.devices, 2 * 256);
        assert_eq!(big.devices, 2 * 1024);
        assert!(big.time_us > small.time_us);
        assert!(big.energy_uj > small.energy_uj);

        let precise = m.crossbar_cost(32, 32, 6);
        assert!(precise.time_us > big.time_us, "6-bit writes must cost more");
    }

    #[test]
    fn six_bit_penalty_matches_paper_motivation() {
        // The paper rejects 6-bit devices on programming cost: the model
        // should show a clear penalty vs 3/4-bit.
        let m = ProgramModel::typical();
        let penalty = m.precision_penalty(4, 6);
        assert!(penalty > 1.3, "6-bit vs 4-bit penalty only {penalty}");
    }

    #[test]
    fn network_cost_accumulates_layers() {
        let m = ProgramModel::typical();
        let descs = [
            LayerDesc::Conv {
                in_channels: 1,
                out_channels: 6,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
            LayerDesc::Linear {
                in_features: 400,
                out_features: 84,
            },
        ];
        let geo = crate::mapping::network_geometry(&descs, 32);
        let cost = m.network_cost(&geo, 32, 4);
        assert_eq!(cost.devices, 2 * (25 * 6 + 400 * 84));
        assert!(cost.time_us > 0.0);
        assert!(cost.energy_uj > 0.0);
    }

    #[test]
    fn programmability_check() {
        let cfg = DeviceConfig::paper(4);
        assert!(codes_programmable(&[0, 8, -8, 15, -15], &cfg));
        assert!(!codes_programmable(&[16], &cfg));
        assert!(!codes_programmable(&[-100], &cfg));
    }

    #[test]
    fn ideal_device_verifies_first_try_exactly() {
        let cfg = DeviceConfig::paper(4);
        for level in 0..cfg.levels() {
            let w = program_device_verified(&cfg, level, None, None, 3);
            assert!(w.verified);
            assert_eq!(w.attempts, 1);
            assert_eq!(w.conductance, cfg.level_conductance(level));
        }
    }

    #[test]
    fn noisy_device_retries_and_usually_recovers() {
        // Heavy write variation: some first attempts land on the wrong
        // level, and retries with backoff recover most of them.
        let cfg = DeviceConfig::paper(4).with_noise(0.25, 0.0);
        let mut rng = TensorRng::seed(3);
        let mut retried = 0u32;
        let mut verified = 0u32;
        let mut first_try = 0u32;
        let n = 500;
        for i in 0..n {
            let w = program_device_verified(&cfg, 1 + (i % 14), None, Some(&mut rng), 8);
            if w.attempts > 1 {
                retried += 1;
            } else {
                first_try += 1;
            }
            if w.verified {
                verified += 1;
                assert_eq!(cfg.nearest_level(w.conductance), 1 + (i % 14));
            }
        }
        assert!(retried > 0, "no retries at σ = 0.25?");
        // Retrying must recover devices beyond the first-try successes.
        assert!(
            verified > first_try,
            "retries recovered nothing: {verified} verified, {first_try} first-try"
        );
        assert!(
            verified > n * 3 / 4,
            "write-verify recovered only {verified}/{n}"
        );
    }

    #[test]
    fn stuck_device_never_verifies_except_at_its_level() {
        let cfg = DeviceConfig::paper(4);
        // Stuck at G_on (the top level): only the max code verifies.
        let pinned = cfg.g_max();
        let top = cfg.levels() - 1;
        let at_top = program_device_verified(&cfg, top, Some(pinned), None, 3);
        assert!(at_top.verified);
        let below = program_device_verified(&cfg, 3, Some(pinned), None, 3);
        assert!(!below.verified);
        assert_eq!(below.attempts, 4, "expected 1 + max_retries attempts");
        assert_eq!(below.conductance, pinned);
    }
}
