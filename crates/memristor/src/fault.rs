//! Per-crossbar fault maps and the reliability policy for deploying onto
//! imperfect hardware.
//!
//! Memristor arrays are exactly the substrate where devices fail:
//! stuck-at-G_on / stuck-at-G_off cells and broken word/bit lines are the
//! dominant accuracy hazard (the paper's group's own defect-rescue work,
//! ref. \[16\], and Wang et al.'s one-level-precision rescue study both
//! target them). This module is the deployment-time countermeasure layer:
//!
//! - [`FaultMap`] — a persistent per-crossbar record of faulty cells,
//!   either generated deterministically from seeded rates
//!   ([`FaultMap::seeded`]) or rebuilt from a stored characterization
//!   ([`FaultMap::from_json`]).
//! - [`ReliabilityConfig`] / [`ProgramPolicy`] — how a deployment reacts:
//!   ignore the faults ([`ProgramPolicy::Naive`]), detect-and-mask them
//!   ([`ProgramPolicy::WriteVerify`]), or additionally steer important
//!   weight columns away from them via spare-column redundancy
//!   ([`ProgramPolicy::Remap`], implemented in [`crate::mapping`]).
//! - [`DegradationStats`] — what the hardware cost this deploy, reported
//!   per layer and in total by [`crate::SpikingNetwork::degradation`] and
//!   exported under the frozen `snc.fault.*` telemetry names.
//!
//! ## Physical model
//!
//! Every logical cell is a differential device pair (see
//! [`crate::crossbar`]). A **stuck-at-G_on** fault pins the cell's *plus*
//! device at `g_max`; a **stuck-at-G_off** fault pins it at `g_min`. A
//! **dead line** (broken wordline driver or bitline sense path) makes every
//! cell on that line contribute zero differential current. Masking a known
//! faulty cell programs the healthy *minus* device to the same conductance
//! as the stuck plus device, cancelling the differential current — the
//! weight is lost (reads as code 0) but the unbounded error is gone.

use qsnc_telemetry::json::Json;
use qsnc_tensor::TensorRng;
use std::collections::{BTreeMap, BTreeSet};

/// One cell-level fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CellFault {
    /// The cell's plus device is pinned at `g_max` (low-resistance short).
    StuckOn,
    /// The cell's plus device is pinned at `g_min` (open / high-resistance).
    StuckOff,
}

/// Independent per-cell / per-line fault probabilities used by
/// [`FaultMap::seeded`].
///
/// All rates are probabilities in `[0, 1]`. [`FaultRates::none`] (`0.0`
/// everywhere) leaves deployment bit-identical to the fault-free pipeline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultRates {
    /// Per-cell probability of a stuck-at-G_on fault.
    pub stuck_on: f32,
    /// Per-cell probability of a stuck-at-G_off fault (drawn only for
    /// cells that did not already draw stuck-on; see [`FaultMap::seeded`]).
    pub stuck_off: f32,
    /// Per-line probability that a whole wordline or bitline is dead.
    pub dead_line: f32,
}

impl FaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        FaultRates { stuck_on: 0.0, stuck_off: 0.0, dead_line: 0.0 }
    }

    /// A symmetric stuck-cell population: `rate` split evenly between
    /// stuck-on and stuck-off, no dead lines.
    pub fn stuck(rate: f32) -> Self {
        FaultRates { stuck_on: rate / 2.0, stuck_off: rate / 2.0, dead_line: 0.0 }
    }

    /// Whether any rate is non-zero.
    pub fn any(&self) -> bool {
        self.stuck_on > 0.0 || self.stuck_off > 0.0 || self.dead_line > 0.0
    }

    fn validate(&self) {
        for (name, r) in [
            ("stuck_on", self.stuck_on),
            ("stuck_off", self.stuck_off),
            ("dead_line", self.dead_line),
        ] {
            assert!((0.0..=1.0).contains(&r), "{name} rate {r} outside [0, 1]");
        }
    }
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates::none()
    }
}

/// A persistent map of the faulty cells and dead lines of **one physical
/// crossbar** (`rows × cols` cells).
///
/// Cell coordinates are `(row, col)` with `row` the wordline and `col` the
/// bitline index. Iteration order over faults is deterministic (sorted),
/// so every consumer — masking, remapping, statistics — behaves
/// identically run-to-run for the same map.
///
/// # Examples
///
/// ```
/// use qsnc_memristor::{CellFault, FaultMap, FaultRates};
/// use qsnc_telemetry::json::Json;
///
/// // Seeded generation is deterministic: same seed, same map.
/// let a = FaultMap::seeded(32, 32, FaultRates::stuck(0.05), 7);
/// let b = FaultMap::seeded(32, 32, FaultRates::stuck(0.05), 7);
/// assert_eq!(a.to_json().render(), b.to_json().render());
///
/// // A stored characterization rebuilds the map it was taken from.
/// let doc = Json::parse(
///     r#"{"rows": 32, "cols": 32, "cells": [{"row": 3, "col": 17, "kind": "stuck_on"}],
///         "dead_rows": [], "dead_cols": []}"#,
/// )
/// .unwrap();
/// let measured = FaultMap::from_json(&doc).unwrap();
/// assert_eq!(measured.fault_at(3, 17), Some(CellFault::StuckOn));
/// assert!(measured.cell_is_faulty(3, 17) && !measured.cell_is_faulty(3, 18));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultMap {
    rows: usize,
    cols: usize,
    cells: BTreeMap<(usize, usize), CellFault>,
    dead_rows: BTreeSet<usize>,
    dead_cols: BTreeSet<usize>,
}

impl FaultMap {
    /// An empty (fault-free) map for a `rows × cols` crossbar.
    pub fn new(rows: usize, cols: usize) -> Self {
        FaultMap { rows, cols, ..FaultMap::default() }
    }

    /// Deterministically generates a fault population from independent
    /// per-cell and per-line rates.
    ///
    /// Draw order is fixed and documented — it is part of the map's
    /// reproducibility contract: first every wordline draws `dead_line`,
    /// then every bitline, then cells in row-major order draw `stuck_on`
    /// and, only when that misses, `stuck_off` (a cell can carry one fault;
    /// stuck-on wins). The same `(rows, cols, rates, seed)` always yields
    /// the same map.
    pub fn seeded(rows: usize, cols: usize, rates: FaultRates, seed: u64) -> Self {
        rates.validate();
        let mut rng = TensorRng::seed(seed);
        let mut map = FaultMap::new(rows, cols);
        for r in 0..rows {
            if rng.chance(rates.dead_line) {
                map.dead_rows.insert(r);
            }
        }
        for c in 0..cols {
            if rng.chance(rates.dead_line) {
                map.dead_cols.insert(c);
            }
        }
        for r in 0..rows {
            for c in 0..cols {
                if rng.chance(rates.stuck_on) {
                    map.cells.insert((r, c), CellFault::StuckOn);
                } else if rng.chance(rates.stuck_off) {
                    map.cells.insert((r, c), CellFault::StuckOff);
                }
            }
        }
        map
    }

    /// Wordline count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bitline count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The cell-level fault at `(row, col)`, if any (dead lines are
    /// reported separately by [`Self::row_is_dead`] / [`Self::col_is_dead`]).
    pub fn fault_at(&self, row: usize, col: usize) -> Option<CellFault> {
        self.cells.get(&(row, col)).copied()
    }

    /// Whether the cell is unusable for weight storage: it carries a cell
    /// fault or lies on a dead line.
    pub fn cell_is_faulty(&self, row: usize, col: usize) -> bool {
        self.fault_at(row, col).is_some() || self.row_is_dead(row) || self.col_is_dead(col)
    }

    /// Whether wordline `row` is dead.
    pub fn row_is_dead(&self, row: usize) -> bool {
        self.dead_rows.contains(&row)
    }

    /// Whether bitline `col` is dead.
    pub fn col_is_dead(&self, col: usize) -> bool {
        self.dead_cols.contains(&col)
    }

    /// `true` when the map holds no faults at all.
    pub fn is_clean(&self) -> bool {
        self.cells.is_empty() && self.dead_rows.is_empty() && self.dead_cols.is_empty()
    }

    /// Serializes the map to the house JSON shape (see
    /// [`qsnc_telemetry::json`]); [`Self::from_json`] round-trips it. This
    /// is the persistence format: characterize a physical array once, store
    /// the document, and rebuild the map for every subsequent deploy.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|(&(r, c), &f)| {
                Json::obj(vec![
                    ("row", Json::Num(r as f64)),
                    ("col", Json::Num(c as f64)),
                    (
                        "kind",
                        Json::Str(
                            match f {
                                CellFault::StuckOn => "stuck_on",
                                CellFault::StuckOff => "stuck_off",
                            }
                            .to_string(),
                        ),
                    ),
                ])
            })
            .collect();
        let lines = |set: &BTreeSet<usize>| {
            Json::Arr(set.iter().map(|&i| Json::Num(i as f64)).collect())
        };
        Json::obj(vec![
            ("rows", Json::Num(self.rows as f64)),
            ("cols", Json::Num(self.cols as f64)),
            ("cells", Json::Arr(cells)),
            ("dead_rows", lines(&self.dead_rows)),
            ("dead_cols", lines(&self.dead_cols)),
        ])
    }

    /// Rebuilds a map serialized by [`Self::to_json`]. Returns `None` when
    /// the document does not have the expected shape.
    pub fn from_json(doc: &Json) -> Option<Self> {
        let dim = |key: &str| doc.get(key)?.as_f64().map(|v| v as usize);
        let mut map = FaultMap::new(dim("rows")?, dim("cols")?);
        for cell in doc.get("cells")?.as_array()? {
            let row = cell.get("row")?.as_f64()? as usize;
            let col = cell.get("col")?.as_f64()? as usize;
            let kind = match cell.get("kind")?.as_str()? {
                "stuck_on" => CellFault::StuckOn,
                "stuck_off" => CellFault::StuckOff,
                _ => return None,
            };
            if row >= map.rows || col >= map.cols {
                return None;
            }
            map.cells.insert((row, col), kind);
        }
        for (key, dead_rows) in [("dead_rows", true), ("dead_cols", false)] {
            for line in doc.get(key)?.as_array()? {
                let i = line.as_f64()? as usize;
                let bound = if dead_rows { map.rows } else { map.cols };
                if i >= bound {
                    return None;
                }
                if dead_rows {
                    map.dead_rows.insert(i);
                } else {
                    map.dead_cols.insert(i);
                }
            }
        }
        Some(map)
    }
}

/// How a deployment reacts to device faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ProgramPolicy {
    /// Program as if the array were perfect; stuck cells read back whatever
    /// the fault pins them to. The accuracy baseline every countermeasure
    /// is measured against.
    Naive,
    /// Program-verify every device (see [`crate::program`]): retry failed
    /// writes with backoff toward adjacent conductance levels, then
    /// zero-mask the cells that never verify.
    WriteVerify,
    /// [`ProgramPolicy::WriteVerify`] plus fault-aware column remapping:
    /// steer high-magnitude weight columns away from faulty cells using the
    /// spare bitlines of each tile (see [`crate::mapping`]), zero-masking
    /// only what the spares cannot absorb.
    Remap,
}

/// Deployment-time reliability configuration carried by
/// [`crate::DeployConfig`].
///
/// The default ([`ReliabilityConfig::ideal`]) injects no faults and leaves
/// the pipeline — including the integer fast-path engine — bit-identical
/// to a config without a reliability layer.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReliabilityConfig {
    /// Fault population injected into every programmed crossbar.
    pub rates: FaultRates,
    /// Master seed for fault generation; each tile derives its own
    /// sub-seed from this, its layer index, and its tile index, so the
    /// fault map is a pure function of `(seed, network geometry)` —
    /// policies can be compared on the *same* hardware.
    pub seed: u64,
    /// The countermeasure policy.
    pub policy: ProgramPolicy,
    /// Spare bitlines per physical tile, used by [`ProgramPolicy::Remap`].
    pub spare_cols: usize,
}

impl ReliabilityConfig {
    /// Fault-free configuration: no injected faults, remap policy armed but
    /// inert. Deploys are bit-identical to the pre-reliability pipeline.
    pub fn ideal() -> Self {
        ReliabilityConfig {
            rates: FaultRates::none(),
            seed: 0,
            policy: ProgramPolicy::Remap,
            spare_cols: 0,
        }
    }

    /// A faulty deployment: `rates` applied under `policy` with two spare
    /// bitlines per tile.
    pub fn faulty(rates: FaultRates, seed: u64, policy: ProgramPolicy) -> Self {
        ReliabilityConfig { rates, seed, policy, spare_cols: 2 }
    }

    /// Whether this configuration can perturb a deployment at all. Inactive
    /// configs take the exact pre-reliability code path.
    pub fn is_active(&self) -> bool {
        self.rates.any()
    }

    /// The sub-seed for one tile's fault map: deterministic mix of the
    /// master seed with the layer and tile indices (splitmix64-style).
    pub fn tile_seed(&self, layer: usize, tile: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + layer as u64))
            .wrapping_add(0x85eb_ca6bu64.wrapping_mul(1 + tile as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig::ideal()
    }
}

/// What a deploy cost in hardware terms: the degradation report of one
/// layer or of the whole network (see
/// [`crate::SpikingNetwork::degradation`]).
///
/// The counters mirror the frozen telemetry taxonomy:
/// `snc.fault.{cells,unrecoverable,remapped,masked}` plus the
/// `snc.fault.retries` histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct DegradationStats {
    /// Unusable cells present in the fault maps (stuck cells plus cells on
    /// dead lines), over the cells the layer actually occupies.
    pub cells: u64,
    /// Cells whose write-verify loop exhausted its retries.
    pub unrecoverable: u64,
    /// Logical columns steered away from their identity position by the
    /// remapper (onto a spare or a healthier physical column).
    pub remapped: u64,
    /// Cells zero-masked because no healthy position could hold them.
    pub masked: u64,
    /// Extra program-verify attempts beyond the first, summed over devices.
    pub retries: u64,
    /// Total `Σ|code|` of weight magnitude zeroed by masking and dead
    /// lines — the size of the hole faults punched into the layer.
    pub magnitude_lost: f64,
}

impl DegradationStats {
    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &DegradationStats) {
        self.cells += other.cells;
        self.unrecoverable += other.unrecoverable;
        self.remapped += other.remapped;
        self.masked += other.masked;
        self.retries += other.retries;
        self.magnitude_lost += other.magnitude_lost;
    }

    /// `true` when nothing was faulted, retried, remapped, or masked.
    pub fn is_clean(&self) -> bool {
        *self == DegradationStats::default()
    }

    /// Publishes the stats under the frozen `snc.fault.*` counter names
    /// (no-op when telemetry is off).
    pub fn publish(&self) {
        if !qsnc_telemetry::enabled() {
            return;
        }
        qsnc_telemetry::counter_add("snc.fault.cells", self.cells);
        qsnc_telemetry::counter_add("snc.fault.unrecoverable", self.unrecoverable);
        qsnc_telemetry::counter_add("snc.fault.remapped", self.remapped);
        qsnc_telemetry::counter_add("snc.fault.masked", self.masked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_maps_are_deterministic_and_seed_sensitive() {
        let rates = FaultRates { stuck_on: 0.02, stuck_off: 0.02, dead_line: 0.01 };
        let a = FaultMap::seeded(32, 32, rates, 5);
        let b = FaultMap::seeded(32, 32, rates, 5);
        assert_eq!(a, b);
        let c = FaultMap::seeded(32, 32, rates, 6);
        assert_ne!(a, c, "different seeds must differ");
    }

    /// Cells of `map` for which `pred` holds.
    fn count_cells(map: &FaultMap, pred: impl Fn(usize, usize) -> bool) -> usize {
        (0..map.rows())
            .flat_map(|r| (0..map.cols()).map(move |c| (r, c)))
            .filter(|&(r, c)| pred(r, c))
            .count()
    }

    #[test]
    fn seeded_rates_are_statistically_respected() {
        let map = FaultMap::seeded(128, 128, FaultRates::stuck(0.1), 1);
        let faults = count_cells(&map, |r, c| map.fault_at(r, c).is_some());
        let frac = faults as f32 / (128.0 * 128.0);
        assert!((frac - 0.1).abs() < 0.01, "fault fraction {frac}");
        // Roughly even split between the two stuck kinds.
        let on = count_cells(&map, |r, c| map.fault_at(r, c) == Some(CellFault::StuckOn));
        let ratio = on as f32 / faults as f32;
        assert!((ratio - 0.5).abs() < 0.05, "stuck-on ratio {ratio}");
    }

    #[test]
    fn zero_rates_yield_clean_map() {
        let map = FaultMap::seeded(64, 64, FaultRates::none(), 99);
        assert!(map.is_clean());
        assert_eq!(count_cells(&map, |r, c| map.cell_is_faulty(r, c)), 0);
    }

    /// Rebuilds a map from its stored form.
    fn parse_map(doc: &str) -> Option<FaultMap> {
        FaultMap::from_json(&Json::parse(doc).expect("parse"))
    }

    #[test]
    fn dead_lines_mark_whole_rows_and_cols() {
        let map = parse_map(
            r#"{"rows": 8, "cols": 8, "cells": [], "dead_rows": [3], "dead_cols": [5]}"#,
        )
        .expect("restore");
        for i in 0..8 {
            assert!(map.cell_is_faulty(3, i));
            assert!(map.cell_is_faulty(i, 5));
        }
        assert_eq!(count_cells(&map, |r, _| map.row_is_dead(r)), 8);
        assert_eq!(count_cells(&map, |_, c| map.col_is_dead(c)), 8);
        // 8 + 8 − 1 overlap.
        assert_eq!(count_cells(&map, |r, c| map.cell_is_faulty(r, c)), 15);
        assert_eq!(count_cells(&map, |r, c| map.fault_at(r, c).is_some()), 0);
    }

    #[test]
    fn json_round_trip_preserves_map() {
        let rates = FaultRates { stuck_on: 0.05, stuck_off: 0.03, dead_line: 0.02 };
        let map = FaultMap::seeded(33, 17, rates, 11);
        let doc = map.to_json();
        let text = doc.render_pretty(2);
        let parsed = Json::parse(&text).expect("parse");
        let restored = FaultMap::from_json(&parsed).expect("restore");
        assert_eq!(map, restored);
    }

    #[test]
    fn from_json_rejects_out_of_range_cells() {
        let cell = r#""cells": [{"row": 3, "col": 3, "kind": "stuck_on"}],
            "dead_rows": [], "dead_cols": []"#;
        let map = parse_map(&format!(r#"{{"rows": 4, "cols": 4, {cell}}}"#)).expect("in range");
        assert_eq!(map.fault_at(3, 3), Some(CellFault::StuckOn));
        // Declared dims below the recorded cell.
        assert!(parse_map(&format!(r#"{{"rows": 2, "cols": 4, {cell}}}"#)).is_none());
    }

    #[test]
    fn tile_seeds_differ_across_layers_and_tiles() {
        let cfg = ReliabilityConfig { seed: 42, ..ReliabilityConfig::ideal() };
        let mut seen = BTreeSet::new();
        for layer in 0..8 {
            for tile in 0..64 {
                assert!(seen.insert(cfg.tile_seed(layer, tile)), "seed collision");
            }
        }
    }

    #[test]
    fn ideal_config_is_inactive() {
        assert!(!ReliabilityConfig::ideal().is_active());
        assert!(ReliabilityConfig::faulty(FaultRates::stuck(0.01), 0, ProgramPolicy::Naive)
            .is_active());
    }

    #[test]
    fn degradation_stats_merge_and_publish() {
        let mut a = DegradationStats { cells: 2, masked: 1, ..DegradationStats::default() };
        let b = DegradationStats {
            cells: 3,
            unrecoverable: 1,
            remapped: 4,
            retries: 7,
            magnitude_lost: 2.5,
            ..DegradationStats::default()
        };
        a.merge(&b);
        assert_eq!(a.cells, 5);
        assert_eq!(a.unrecoverable, 1);
        assert_eq!(a.remapped, 4);
        assert_eq!(a.masked, 1);
        assert_eq!(a.retries, 7);
        assert!((a.magnitude_lost - 2.5).abs() < 1e-12);
        assert!(!a.is_clean());
        assert!(DegradationStats::default().is_clean());

        let _guard = qsnc_telemetry::testing::lock();
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Record);
        qsnc_telemetry::reset();
        a.publish();
        let snap = qsnc_telemetry::snapshot();
        qsnc_telemetry::reset();
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);
        let get = |name: &str| {
            snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
        };
        assert_eq!(get("snc.fault.cells"), Some(5));
        assert_eq!(get("snc.fault.unrecoverable"), Some(1));
        assert_eq!(get("snc.fault.remapped"), Some(4));
        assert_eq!(get("snc.fault.masked"), Some(1));
    }
}
