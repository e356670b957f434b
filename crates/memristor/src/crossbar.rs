//! Signed memristor crossbar arrays.
//!
//! Each synaptic weight code `c ∈ [−2^(N−1), 2^(N−1)]` is realized by a
//! **differential device pair** on the same bitline: a "plus" device at
//! level `c` (for positive codes) and a "minus" device at level `−c` (for
//! negative), both riding on the `g_min` baseline, so the differential
//! current is exactly `V · c · g_lsb`. The crossbar computes one
//! vector-matrix product per read: wordline voltages in, bitline current
//! differences out.

use crate::device::{Device, DeviceConfig};
use crate::fault::{CellFault, DegradationStats, FaultMap};
use crate::program::program_device_verified;
use qsnc_tensor::TensorRng;

/// Bucket edges for the `snc.fault.retries` histogram (extra program
/// attempts per device beyond the first).
const RETRY_BUCKETS: [f64; 4] = [0.5, 1.5, 3.5, 7.5];

/// Write-verify retries per device beyond the first attempt.
const MAX_RETRIES: u32 = 3;

/// Context for programming a crossbar against a known fault population.
pub(crate) struct ReliableProgramming<'a> {
    /// Ground-truth faults of this physical array.
    pub map: &'a FaultMap,
    /// Run the write-verify loop and zero-mask unrecoverable cells; `false`
    /// programs naively (stuck cells keep their erroneous conductance).
    pub verify: bool,
    /// Degradation accounting, accumulated into by the programming pass.
    pub stats: &'a mut DegradationStats,
}

impl ReliableProgramming<'_> {
    /// Programs cell `(i, j)` to code `c` against the fault map (see
    /// [`Crossbar::program`] for the per-fault semantics).
    fn program_cell(
        &mut self,
        config: &DeviceConfig,
        i: usize,
        j: usize,
        c: i32,
        mut rng: Option<&mut TensorRng>,
    ) -> (f32, f32) {
        let (g_min, g_max) = (config.g_min(), config.g_max());
        let row_dead = self.map.row_is_dead(i);
        let col_dead = self.map.col_is_dead(j);
        let fault = self.map.fault_at(i, j);
        if fault.is_some() || row_dead || col_dead {
            self.stats.cells += 1;
        }
        if row_dead || col_dead {
            // No current through this line: differential is zero no matter
            // what; the weight is gone.
            self.stats.magnitude_lost += c.unsigned_abs() as f64;
            return (g_min, g_min);
        }
        let pinned_plus = fault.map(|f| match f {
            CellFault::StuckOn => g_max,
            CellFault::StuckOff => g_min,
        });
        if !self.verify {
            return program_pair(config, c, pinned_plus, rng);
        }
        let (lp, lm) = pair_levels(c);
        let plus =
            program_device_verified(config, lp, pinned_plus, rng.as_deref_mut(), MAX_RETRIES);
        let minus = program_device_verified(config, lm, None, rng, MAX_RETRIES);
        let extra = (plus.attempts - 1) + (minus.attempts - 1);
        self.stats.retries += extra as u64;
        if qsnc_telemetry::enabled() {
            qsnc_telemetry::observe("snc.fault.retries", extra as f64, &RETRY_BUCKETS);
        }
        if plus.verified && minus.verified {
            return (plus.conductance, minus.conductance);
        }
        // Unrecoverable: cancel the pair so the cell reads as code 0 instead
        // of an unbounded error.
        self.stats.unrecoverable += 1;
        self.stats.masked += 1;
        self.stats.magnitude_lost += c.unsigned_abs() as f64;
        let g = plus.conductance.max(g_min);
        (g, g)
    }
}

/// Device levels `(plus, minus)` of the differential pair storing code `c`.
fn pair_levels(c: i32) -> (u32, u32) {
    if c >= 0 {
        (c as u32, 0)
    } else {
        (0, c.unsigned_abs())
    }
}

/// Programs the differential pair for code `c` without verification, plus
/// device first; `pinned_plus` replaces the plus device's write with a
/// stuck conductance.
fn program_pair(
    config: &DeviceConfig,
    c: i32,
    pinned_plus: Option<f32>,
    mut rng: Option<&mut TensorRng>,
) -> (f32, f32) {
    let (lp, lm) = pair_levels(c);
    let gp = match pinned_plus {
        Some(g) => g,
        None => Device::program(config, lp, rng.as_deref_mut()).conductance,
    };
    (gp, Device::program(config, lm, rng).conductance)
}

/// A `rows × cols` crossbar of differential memristor pairs.
#[derive(Debug, Clone)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    config: DeviceConfig,
    g_plus: Vec<f32>,
    g_minus: Vec<f32>,
}

impl Crossbar {
    /// Programs a crossbar from signed weight codes in row-major
    /// `[rows, cols]` order (`rows` = wordlines/inputs, `cols` =
    /// bitlines/outputs). Write variation applies when `rng` is given.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != rows·cols` or any `|code|` exceeds the
    /// device's level range.
    pub fn from_codes(
        codes: &[i32],
        rows: usize,
        cols: usize,
        config: DeviceConfig,
        rng: Option<&mut TensorRng>,
    ) -> Self {
        Crossbar::program(codes, rows, cols, config, None, rng)
    }

    /// Programs cell `(i, j)` to `codes[i·cols + j]`, on a perfect array
    /// when `faults` is `None` ([`Crossbar::from_codes`]) or else on one
    /// carrying the faults in `faults.map` (sized `rows × cols`).
    ///
    /// Semantics per faulty cell:
    ///
    /// - A **dead line** (row or column) zeroes the cell's differential
    ///   current — both devices are left at the `g_min` baseline — and its
    ///   weight magnitude is charged to `stats.magnitude_lost`.
    /// - A **stuck cell** pins the plus device (`g_max` for stuck-on,
    ///   `g_min` for stuck-off). Naive programming (`verify == false`)
    ///   programs the minus device as intended and lives with the error.
    /// - With `verify == true` every device runs the write-verify loop of
    ///   [`crate::program::program_device_verified`]; a cell whose devices
    ///   cannot both verify is **zero-masked** (minus device programmed to
    ///   cancel the plus device exactly) and charged to
    ///   `stats.{unrecoverable, masked, magnitude_lost}`.
    ///
    /// Healthy cells under naive programming take the same
    /// `Device::program` calls, plus device first, as a perfect array. With
    /// a clean map, no write noise and `verify == true` the conductances
    /// are bit-identical too: ideal devices verify on the first attempt at
    /// the exact level.
    ///
    /// # Panics
    ///
    /// Panics on code-count or fault-map shape mismatch, or codes outside
    /// the device range.
    pub(crate) fn program(
        codes: &[i32],
        rows: usize,
        cols: usize,
        config: DeviceConfig,
        mut faults: Option<ReliableProgramming<'_>>,
        mut rng: Option<&mut TensorRng>,
    ) -> Self {
        assert_eq!(codes.len(), rows * cols, "code count mismatch");
        if let Some(f) = &faults {
            assert!(
                f.map.rows() == rows && f.map.cols() == cols,
                "fault map shape {}×{} does not match crossbar {rows}×{cols}",
                f.map.rows(),
                f.map.cols()
            );
        }
        let max_level = config.levels() - 1;
        let mut g_plus = Vec::with_capacity(codes.len());
        let mut g_minus = Vec::with_capacity(codes.len());
        for i in 0..rows {
            for j in 0..cols {
                let c = codes[i * cols + j];
                assert!(
                    c.unsigned_abs() <= max_level,
                    "code {c} exceeds device range ±{max_level}"
                );
                let (gp, gm) = match faults.as_mut() {
                    None => program_pair(&config, c, None, rng.as_deref_mut()),
                    Some(f) => f.program_cell(&config, i, j, c, rng.as_deref_mut()),
                };
                g_plus.push(gp);
                g_minus.push(gm);
            }
        }
        Crossbar { rows, cols, config, g_plus, g_minus }
    }

    /// Number of wordlines (inputs).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines (outputs).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Total physical devices (two per cell).
    pub fn device_count(&self) -> usize {
        2 * self.rows * self.cols
    }

    /// Differential bitline currents for wordline drive `x` (one value per
    /// row; each unit of `x` corresponds to one read-voltage spike slot).
    /// Read noise applies when `rng` is given.
    ///
    /// Returns one current per column, in amperes·slots.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows()`.
    pub fn matvec(&self, x: &[f32], mut rng: Option<&mut TensorRng>) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "input length mismatch");
        let v = self.config.v_read;
        let mut out = vec![0.0f32; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue; // no spikes, no charge — the event-driven saving
            }
            let row_p = &self.g_plus[i * self.cols..(i + 1) * self.cols];
            let row_m = &self.g_minus[i * self.cols..(i + 1) * self.cols];
            match rng.as_deref_mut() {
                Some(rng) if self.config.read_sigma > 0.0 => {
                    for j in 0..self.cols {
                        let ideal = (row_p[j] - row_m[j]) * v * xi;
                        out[j] += ideal
                            + (row_p[j] + row_m[j])
                                * v
                                * xi.abs()
                                * rng.normal_with(0.0, self.config.read_sigma);
                    }
                }
                _ => {
                    for j in 0..self.cols {
                        out[j] += (row_p[j] - row_m[j]) * v * xi;
                    }
                }
            }
        }
        out
    }

    /// Like [`matvec`](Self::matvec) but scaled back to **code units**:
    /// entry `j` approximates `Σ_i codes[i][j] · x[i]` (exactly, when the
    /// crossbar is noise-free).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows()`.
    pub fn matvec_code_units(&self, x: &[f32], rng: Option<&mut TensorRng>) -> Vec<f32> {
        let scale = 1.0 / (self.config.g_lsb() * self.config.v_read);
        self.matvec(x, rng).into_iter().map(|i| i * scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DeviceConfig {
        DeviceConfig::paper(4)
    }

    #[test]
    fn ideal_crossbar_is_exact_in_code_units() {
        let codes = vec![1, -2, 3, 0, 5, -8];
        let xb = Crossbar::from_codes(&codes, 2, 3, cfg(), None);
        let x = vec![2.0, 3.0];
        let y = xb.matvec_code_units(&x, None);
        // Expected: [1·2+0·3, −2·2+5·3, 3·2−8·3] = [2, 11, −18]
        let expected = [2.0, 11.0, -18.0];
        for (a, b) in y.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_input_draws_no_differential_current() {
        let codes = vec![7, -7];
        let xb = Crossbar::from_codes(&codes, 1, 2, cfg(), None);
        let y = xb.matvec(&[0.0], None);
        assert_eq!(y, vec![0.0, 0.0]);
    }

    #[test]
    fn matches_reference_matmul_on_random_codes() {
        let mut rng = TensorRng::seed(0);
        let (rows, cols) = (32, 32);
        let codes: Vec<i32> = (0..rows * cols)
            .map(|_| rng.index(17) as i32 - 8)
            .collect();
        let xb = Crossbar::from_codes(&codes, rows, cols, cfg(), None);
        let x: Vec<f32> = (0..rows).map(|_| rng.index(16) as f32).collect();
        let y = xb.matvec_code_units(&x, None);
        for j in 0..cols {
            let expected: f32 = (0..rows)
                .map(|i| codes[i * cols + j] as f32 * x[i])
                .sum();
            assert!(
                (y[j] - expected).abs() < 1e-2 * (1.0 + expected.abs()),
                "col {j}: {} vs {expected}",
                y[j]
            );
        }
    }

    #[test]
    fn write_noise_perturbs_but_preserves_signal() {
        let mut rng = TensorRng::seed(1);
        let codes = vec![8i32; 32];
        let noisy_cfg = cfg().with_noise(0.05, 0.0);
        let xb = Crossbar::from_codes(&codes, 32, 1, noisy_cfg, Some(&mut rng));
        let x = vec![1.0f32; 32];
        let y = xb.matvec_code_units(&x, None)[0];
        let ideal = 8.0 * 32.0;
        assert!((y / ideal - 1.0).abs() < 0.15, "noisy output {y} vs {ideal}");
        assert!((y - ideal).abs() > 1e-6, "noise had no effect");
    }

    #[test]
    fn read_noise_is_stochastic() {
        let codes = vec![5i32];
        let noisy_cfg = cfg().with_noise(0.0, 0.05);
        let xb = Crossbar::from_codes(&codes, 1, 1, noisy_cfg, None);
        let mut rng = TensorRng::seed(2);
        let a = xb.matvec_code_units(&[3.0], Some(&mut rng))[0];
        let b = xb.matvec_code_units(&[3.0], Some(&mut rng))[0];
        assert_ne!(a, b);
        assert!((a - 15.0).abs() < 5.0);
    }

    #[test]
    fn device_count_is_two_per_cell() {
        let xb = Crossbar::from_codes(&[0; 12], 3, 4, cfg(), None);
        assert_eq!(xb.device_count(), 24);
    }

    #[test]
    #[should_panic(expected = "exceeds device range")]
    fn oversized_code_panics() {
        Crossbar::from_codes(&[100], 1, 1, cfg(), None);
    }
}
