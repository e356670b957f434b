//! Layer-to-crossbar mapping, including the paper's Eq. 1 tiling count.
//!
//! A convolutional layer with `J` filters of size `s × s × d` becomes a
//! weight matrix with `s²·d` rows (wordlines) and `J` columns (bitlines);
//! a fully connected layer maps directly. Since physical crossbars are
//! bounded at `t × t` (the paper uses 32 × 32), the matrix is tiled:
//!
//! ```text
//! L_i = ⌈J_i / t⌉ · ⌈s_i² · J_{i−1} / t⌉          (Eq. 1)
//! ```

use crate::crossbar::{Crossbar, ReliableProgramming};
use crate::device::DeviceConfig;
use crate::fault::{DegradationStats, FaultMap, ProgramPolicy, ReliabilityConfig};
use qsnc_nn::LayerDesc;
use qsnc_tensor::TensorRng;

/// Integer ceiling division.
fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Wordline (row) count a layer's weight matrix needs.
///
/// # Panics
///
/// Panics for [`LayerDesc::Other`], which has no synapses.
pub fn layer_rows(desc: &LayerDesc) -> usize {
    match *desc {
        LayerDesc::Conv {
            in_channels,
            kernel,
            ..
        } => kernel * kernel * in_channels,
        LayerDesc::Linear { in_features, .. } => in_features,
        LayerDesc::Other => panic!("non-synaptic layer has no crossbar mapping"),
    }
}

/// Bitline (column) count a layer's weight matrix needs.
///
/// # Panics
///
/// Panics for [`LayerDesc::Other`].
pub fn layer_cols(desc: &LayerDesc) -> usize {
    match *desc {
        LayerDesc::Conv { out_channels, .. } => out_channels,
        LayerDesc::Linear { out_features, .. } => out_features,
        LayerDesc::Other => panic!("non-synaptic layer has no crossbar mapping"),
    }
}

/// The paper's Eq. 1: number of `t × t` crossbars for one layer.
///
/// # Panics
///
/// Panics if `t == 0` or the layer is non-synaptic.
pub fn crossbars_for_layer(desc: &LayerDesc, t: usize) -> usize {
    assert!(t > 0, "crossbar size must be positive");
    ceil_div(layer_cols(desc), t) * ceil_div(layer_rows(desc), t)
}

/// Geometry summary for one mapped layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LayerGeometry {
    /// Wordlines used by the layer's weight matrix.
    pub rows: usize,
    /// Bitlines used.
    pub cols: usize,
    /// Crossbars after `t × t` tiling (Eq. 1).
    pub crossbars: usize,
    /// Synaptic weight count.
    pub weights: usize,
}

/// Maps every synaptic layer of a network (described by its descriptors) to
/// crossbar geometry.
pub fn network_geometry(descs: &[LayerDesc], t: usize) -> Vec<LayerGeometry> {
    descs
        .iter()
        .filter(|d| d.is_synaptic())
        .map(|d| LayerGeometry {
            rows: layer_rows(d),
            cols: layer_cols(d),
            crossbars: crossbars_for_layer(d, t),
            weights: d.weight_count(),
        })
        .collect()
}

/// A weight matrix tiled over physical crossbars.
///
/// Stores the tile grid in block-row-major order and performs full-size
/// vector-matrix products by accumulating tile contributions — the digital
/// summation the paper's multi-crossbar composition performs.
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    in_dim: usize,
    out_dim: usize,
    tile: usize,
    row_blocks: usize,
    col_blocks: usize,
    tiles: Vec<Crossbar>,
    /// Present when the matrix was programmed through the reliability
    /// layer: per-tile column assignments.
    remap: Option<RemapInfo>,
}

/// Reliability bookkeeping for a [`TiledMatrix`] deployed onto faulty
/// hardware.
#[derive(Debug, Clone)]
struct RemapInfo {
    /// Per tile: `assign[j]` is the physical bitline holding logical
    /// column `j` (identity when no remapping happened).
    assignments: Vec<Vec<usize>>,
}

/// Magnitude of logical column `j` of a `rows × cols` row-major code tile —
/// the remapper's importance ranking.
fn column_magnitude(codes: &[i32], rows: usize, cols: usize, j: usize) -> u64 {
    (0..rows).map(|i| codes[i * cols + j].unsigned_abs() as u64).sum()
}

/// Weight magnitude lost if logical column `j` lands on physical bitline
/// `p`: the whole column on a dead bitline, otherwise the codes sitting on
/// faulty cells (which write-verify will zero-mask).
fn placement_cost(
    codes: &[i32],
    rows: usize,
    cols: usize,
    j: usize,
    p: usize,
    map: &FaultMap,
) -> u64 {
    if map.col_is_dead(p) {
        return column_magnitude(codes, rows, cols, j);
    }
    (0..rows)
        .filter(|&i| map.cell_is_faulty(i, p))
        .map(|i| codes[i * cols + j].unsigned_abs() as u64)
        .sum()
}

/// Cost-ranked spare-column assignment for one tile: logical columns in
/// descending magnitude order each claim the free physical bitline that
/// loses the least weight magnitude to faults (ties prefer the identity
/// position, then the lowest index, keeping fault-free tiles bit-stable).
fn assign_columns(
    codes: &[i32],
    rows: usize,
    cols: usize,
    physical_cols: usize,
    map: &FaultMap,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cols).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse(column_magnitude(codes, rows, cols, j)), j));
    let mut taken = vec![false; physical_cols];
    let mut assign = vec![usize::MAX; cols];
    for &j in &order {
        let mut best = usize::MAX;
        let mut best_cost = u64::MAX;
        for (p, &used) in taken.iter().enumerate() {
            if used {
                continue;
            }
            let cost = placement_cost(codes, rows, cols, j, p, map);
            if cost < best_cost || (cost == best_cost && p == j) {
                best = p;
                best_cost = cost;
            }
        }
        assign[j] = best;
        taken[best] = true;
    }
    assign
}

impl TiledMatrix {
    /// Tiles a weight-code matrix in `[out, in]` layout (as stored by
    /// `Conv2d`/`Linear`) over `tile × tile` crossbars.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != out_dim·in_dim` or `tile == 0`.
    pub fn from_codes(
        codes: &[i32],
        in_dim: usize,
        out_dim: usize,
        tile: usize,
        config: DeviceConfig,
        rng: Option<&mut TensorRng>,
    ) -> Self {
        let ideal = ReliabilityConfig::ideal();
        TiledMatrix::from_codes_reliable(codes, in_dim, out_dim, tile, config, &ideal, 0, rng).0
    }

    /// Tiles and programs a weight-code matrix onto **faulty hardware**
    /// under the given reliability configuration.
    ///
    /// Each `tile × tile` logical tile owns a physical crossbar with
    /// `spare_cols` extra bitlines; its fault population is generated
    /// deterministically from [`ReliabilityConfig::tile_seed`]`(layer,
    /// tile_index)`, so every [`ProgramPolicy`] is evaluated against the
    /// *same* hardware. Per policy:
    ///
    /// - [`ProgramPolicy::Naive`] programs logical columns at their
    ///   identity positions with no verification — stuck cells keep their
    ///   erroneous conductance.
    /// - [`ProgramPolicy::WriteVerify`] adds the program → read-back →
    ///   retry loop and zero-masks unrecoverable cells.
    /// - [`ProgramPolicy::Remap`] first runs the cost-ranked assignment:
    ///   logical columns in descending weight magnitude claim the physical
    ///   bitline (including spares) that loses the least magnitude to
    ///   faults, then programs with write-verify.
    ///
    /// Returns the matrix plus the accumulated [`DegradationStats`].
    /// When `reliability` is inactive each tile is programmed as a perfect
    /// array with no fault map, exactly as [`TiledMatrix::from_codes`]
    /// (clean stats).
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != out_dim·in_dim` or `tile == 0`.
    #[allow(clippy::too_many_arguments)] // mirrors from_codes plus the reliability triple
    pub fn from_codes_reliable(
        codes: &[i32],
        in_dim: usize,
        out_dim: usize,
        tile: usize,
        config: DeviceConfig,
        reliability: &ReliabilityConfig,
        layer: usize,
        mut rng: Option<&mut TensorRng>,
    ) -> (Self, DegradationStats) {
        assert!(tile > 0, "tile size must be positive");
        assert_eq!(codes.len(), out_dim * in_dim, "code matrix shape mismatch");
        let row_blocks = ceil_div(in_dim, tile);
        let col_blocks = ceil_div(out_dim, tile);
        let instrument = qsnc_telemetry::enabled();
        let mut stats = DegradationStats::default();
        let mut tiles = Vec::with_capacity(row_blocks * col_blocks);
        let mut remap = reliability.is_active().then(|| RemapInfo {
            assignments: Vec::with_capacity(row_blocks * col_blocks),
        });
        for rb in 0..row_blocks {
            for cb in 0..col_blocks {
                let rows = (in_dim - rb * tile).min(tile);
                let cols = (out_dim - cb * tile).min(tile);
                if instrument {
                    // Fraction of the physical t×t crossbar this (possibly
                    // partial edge) tile actually occupies.
                    qsnc_telemetry::observe(
                        "snc.map.tile_utilization",
                        (rows * cols) as f64 / (tile * tile) as f64,
                        &[0.25, 0.5, 0.75, 0.9, 1.0],
                    );
                }
                // Crossbar cell (i, j) = weight of output (cb·tile + j)
                // from input (rb·tile + i): transposed from [out, in].
                let mut tile_codes = Vec::with_capacity(rows * cols);
                for i in 0..rows {
                    for j in 0..cols {
                        let out_idx = cb * tile + j;
                        let in_idx = rb * tile + i;
                        tile_codes.push(codes[out_idx * in_dim + in_idx]);
                    }
                }
                let Some(info) = remap.as_mut() else {
                    tiles.push(Crossbar::from_codes(
                        &tile_codes,
                        rows,
                        cols,
                        config,
                        rng.as_deref_mut(),
                    ));
                    continue;
                };
                // The physical array: logical columns plus the spares.
                let phys_cols = cols + reliability.spare_cols;
                let map = FaultMap::seeded(
                    rows,
                    phys_cols,
                    reliability.rates,
                    reliability.tile_seed(layer, rb * col_blocks + cb),
                );
                let assign = if reliability.policy == ProgramPolicy::Remap {
                    let a = assign_columns(&tile_codes, rows, cols, phys_cols, &map);
                    stats.remapped += a.iter().enumerate().filter(|&(j, &p)| p != j).count() as u64;
                    a
                } else {
                    (0..cols).collect()
                };
                // Place logical columns at their assigned bitlines; unused
                // spares hold code 0 (and are never sensed).
                let mut phys_codes = vec![0i32; rows * phys_cols];
                for i in 0..rows {
                    for (j, &p) in assign.iter().enumerate() {
                        phys_codes[i * phys_cols + p] = tile_codes[i * cols + j];
                    }
                }
                tiles.push(Crossbar::program(
                    &phys_codes,
                    rows,
                    phys_cols,
                    config,
                    Some(ReliableProgramming {
                        map: &map,
                        verify: reliability.policy != ProgramPolicy::Naive,
                        stats: &mut stats,
                    }),
                    rng.as_deref_mut(),
                ));
                info.assignments.push(assign);
            }
        }
        if instrument {
            qsnc_telemetry::counter_add("snc.map.crossbars", tiles.len() as u64);
            qsnc_telemetry::counter_add(
                "snc.map.devices",
                tiles.iter().map(Crossbar::device_count).sum::<usize>() as u64,
            );
        }
        let tm = TiledMatrix { in_dim, out_dim, tile, row_blocks, col_blocks, tiles, remap };
        (tm, stats)
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Physical crossbar edge length used for tiling.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Tile-grid rows, `⌈in_dim / tile⌉`.
    pub fn row_blocks(&self) -> usize {
        self.row_blocks
    }

    /// Tile-grid columns, `⌈out_dim / tile⌉`.
    pub fn col_blocks(&self) -> usize {
        self.col_blocks
    }

    /// Per-tile logical-column → physical-bitline assignments, in
    /// block-row-major tile order; `None` for matrices deployed without the
    /// reliability layer (identity placement everywhere).
    pub fn remap_assignments(&self) -> Option<&[Vec<usize>]> {
        self.remap.as_ref().map(|r| r.assignments.as_slice())
    }

    /// Number of physical crossbars (matches Eq. 1).
    pub fn crossbar_count(&self) -> usize {
        self.tiles.len()
    }

    /// Total devices across all tiles.
    pub fn device_count(&self) -> usize {
        self.tiles.iter().map(Crossbar::device_count).sum()
    }

    /// Full `y[out] = Σ codes[out][in] · x[in]` in code units, accumulated
    /// over tiles. Read noise applies when `rng` is given.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    pub fn matvec_code_units(&self, x: &[f32], mut rng: Option<&mut TensorRng>) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim, "input length mismatch");
        let mut y = vec![0.0f32; self.out_dim];
        for rb in 0..self.row_blocks {
            let row_start = rb * self.tile;
            let rows = (self.in_dim - row_start).min(self.tile);
            let xin = &x[row_start..row_start + rows];
            // Skip silent row blocks entirely (event-driven behaviour).
            if xin.iter().all(|&v| v == 0.0) {
                continue;
            }
            for cb in 0..self.col_blocks {
                let tile_index = rb * self.col_blocks + cb;
                let tile = &self.tiles[tile_index];
                let part = tile.matvec_code_units(xin, rng.as_deref_mut());
                let col_start = cb * self.tile;
                match &self.remap {
                    // Gather each logical column from its assigned physical
                    // bitline; unassigned spares are never sensed.
                    Some(info) => {
                        for (j, &p) in info.assignments[tile_index].iter().enumerate() {
                            y[col_start + j] += part[p];
                        }
                    }
                    None => {
                        for (j, p) in part.into_iter().enumerate() {
                            y[col_start + j] += p;
                        }
                    }
                }
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_lenet_conv2_example() {
        // Paper Sec. 2.2: layer with J filters, size s×s, depth J_prev.
        // LeNet conv2: J=16, s=5, J_prev=6 → rows 150 → ⌈16/32⌉·⌈150/32⌉ = 5.
        let d = LayerDesc::Conv {
            in_channels: 6,
            out_channels: 16,
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        assert_eq!(crossbars_for_layer(&d, 32), 5);
    }

    #[test]
    fn eq1_exact_fit_uses_one_crossbar() {
        let d = LayerDesc::Linear {
            in_features: 32,
            out_features: 32,
        };
        assert_eq!(crossbars_for_layer(&d, 32), 1);
        let d33 = LayerDesc::Linear {
            in_features: 33,
            out_features: 32,
        };
        assert_eq!(crossbars_for_layer(&d33, 32), 2);
    }

    #[test]
    fn eq1_monotone_in_layer_size() {
        let mk = |j: usize, jp: usize| LayerDesc::Conv {
            in_channels: jp,
            out_channels: j,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut prev = 0;
        for width in [4, 8, 16, 32, 64, 128] {
            let n = crossbars_for_layer(&mk(width, width), 32);
            assert!(n >= prev);
            prev = n;
        }
    }

    #[test]
    fn tiled_matrix_count_matches_eq1() {
        let mut rng = TensorRng::seed(0);
        for &(in_dim, out_dim, t) in
            &[(150, 16, 32), (400, 84, 32), (33, 65, 32), (10, 10, 32)]
        {
            let codes: Vec<i32> = (0..in_dim * out_dim)
                .map(|_| rng.index(17) as i32 - 8)
                .collect();
            let tm = TiledMatrix::from_codes(
                &codes,
                in_dim,
                out_dim,
                t,
                DeviceConfig::paper(4),
                None,
            );
            let desc = LayerDesc::Linear {
                in_features: in_dim,
                out_features: out_dim,
            };
            assert_eq!(tm.crossbar_count(), crossbars_for_layer(&desc, t));
        }
    }

    #[test]
    fn tiled_matvec_matches_dense_reference() {
        let mut rng = TensorRng::seed(1);
        let (in_dim, out_dim, t) = (70, 45, 32);
        let codes: Vec<i32> = (0..in_dim * out_dim)
            .map(|_| rng.index(17) as i32 - 8)
            .collect();
        let tm =
            TiledMatrix::from_codes(&codes, in_dim, out_dim, t, DeviceConfig::paper(4), None);
        let x: Vec<f32> = (0..in_dim).map(|_| rng.index(16) as f32).collect();
        let y = tm.matvec_code_units(&x, None);
        for j in 0..out_dim {
            let expected: f32 = (0..in_dim).map(|i| codes[j * in_dim + i] as f32 * x[i]).sum();
            assert!(
                (y[j] - expected).abs() < 1e-2 * (1.0 + expected.abs()),
                "out {j}: {} vs {expected}",
                y[j]
            );
        }
    }

    #[test]
    fn inactive_reliability_is_bit_identical_to_from_codes() {
        let mut rng = TensorRng::seed(4);
        let (in_dim, out_dim, t) = (70, 45, 32);
        let codes: Vec<i32> = (0..in_dim * out_dim)
            .map(|_| rng.index(17) as i32 - 8)
            .collect();
        let cfg = DeviceConfig::paper(4);
        let plain = TiledMatrix::from_codes(&codes, in_dim, out_dim, t, cfg, None);
        let (reliable, stats) = TiledMatrix::from_codes_reliable(
            &codes,
            in_dim,
            out_dim,
            t,
            cfg,
            &ReliabilityConfig::ideal(),
            0,
            None,
        );
        assert!(stats.is_clean());
        let x: Vec<f32> = (0..in_dim).map(|i| (i % 7) as f32).collect();
        assert_eq!(
            plain.matvec_code_units(&x, None),
            reliable.matvec_code_units(&x, None)
        );
    }

    #[test]
    fn zero_rate_but_active_path_matches_dense_reference() {
        // Force the reliable code path with a tiny rate and a seed whose
        // maps happen to matter little; verify against the dense product.
        let mut rng = TensorRng::seed(5);
        let (in_dim, out_dim, t) = (40, 37, 32);
        let codes: Vec<i32> = (0..in_dim * out_dim)
            .map(|_| rng.index(17) as i32 - 8)
            .collect();
        let rel = ReliabilityConfig::faulty(
            crate::fault::FaultRates::stuck(0.0001),
            3,
            ProgramPolicy::Remap,
        );
        let (tm, _) = TiledMatrix::from_codes_reliable(
            &codes,
            in_dim,
            out_dim,
            t,
            DeviceConfig::paper(4),
            &rel,
            0,
            None,
        );
        let x: Vec<f32> = (0..in_dim).map(|_| rng.index(16) as f32).collect();
        let y = tm.matvec_code_units(&x, None);
        // With write-verify + remap at a near-zero fault rate, almost every
        // output matches the dense reference; allow the rare masked cell.
        let mut mismatches = 0;
        for j in 0..out_dim {
            let expected: f32 =
                (0..in_dim).map(|i| codes[j * in_dim + i] as f32 * x[i]).sum();
            if (y[j] - expected).abs() > 1e-2 * (1.0 + expected.abs()) {
                mismatches += 1;
            }
        }
        assert!(mismatches <= 1, "{mismatches} columns off at 0.01% faults");
    }

    #[test]
    fn naive_stuck_cells_read_their_pinned_codes() {
        // Every cell stuck, programmed naively: the plus device is pinned
        // and the minus device holds the negative part of the code, so in
        // code units a stuck-off cell reads min(c, 0) and a stuck-on cell
        // reads max_level − max(−c, 0).
        let mut rng = TensorRng::seed(7);
        let (in_dim, out_dim, t) = (40, 37, 32);
        let cfg = DeviceConfig::paper(4);
        let max_level = (cfg.levels() - 1) as i32;
        let codes: Vec<i32> = (0..in_dim * out_dim)
            .map(|_| rng.index(2 * max_level as usize + 1) as i32 - max_level)
            .collect();
        let none = crate::fault::FaultRates::none();
        for stuck_on in [false, true] {
            let rates = if stuck_on {
                crate::fault::FaultRates { stuck_on: 1.0, ..none }
            } else {
                crate::fault::FaultRates { stuck_off: 1.0, ..none }
            };
            let rel = ReliabilityConfig::faulty(rates, 9, ProgramPolicy::Naive);
            let (tm, stats) =
                TiledMatrix::from_codes_reliable(&codes, in_dim, out_dim, t, cfg, &rel, 0, None);
            assert_eq!(stats.masked, 0, "naive programming masks nothing");
            // One-hot drive on wordline i reads out row i of the cells.
            for i in 0..in_dim {
                let mut x = vec![0.0f32; in_dim];
                x[i] = 1.0;
                let y = tm.matvec_code_units(&x, None);
                for (j, &yj) in y.iter().enumerate() {
                    let c = codes[j * in_dim + i];
                    let reads = if stuck_on { max_level - (-c).max(0) } else { c.min(0) };
                    let expected = reads as f32;
                    assert!(
                        (yj - expected).abs() < 1e-3,
                        "{rates:?} code {c} at ({i}, {j}) read {yj}, expected {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn remap_beats_naive_on_the_same_seeded_hardware() {
        let mut rng = TensorRng::seed(6);
        let (in_dim, out_dim, t) = (64, 48, 32);
        let codes: Vec<i32> = (0..in_dim * out_dim)
            .map(|_| rng.index(17) as i32 - 8)
            .collect();
        let x: Vec<f32> = (0..in_dim).map(|_| rng.index(8) as f32).collect();
        let dense: Vec<f32> = (0..out_dim)
            .map(|j| (0..in_dim).map(|i| codes[j * in_dim + i] as f32 * x[i]).sum())
            .collect();
        let rates = crate::fault::FaultRates::stuck(0.03);
        let err = |policy: ProgramPolicy| {
            let rel = ReliabilityConfig::faulty(rates, 11, policy);
            let (tm, stats) = TiledMatrix::from_codes_reliable(
                &codes,
                in_dim,
                out_dim,
                t,
                DeviceConfig::paper(4),
                &rel,
                2,
                None,
            );
            let y = tm.matvec_code_units(&x, None);
            let e: f32 = y
                .iter()
                .zip(dense.iter())
                .map(|(a, b)| (a - b).abs())
                .sum();
            (e, stats)
        };
        let (naive_err, naive_stats) = err(ProgramPolicy::Naive);
        let (verify_err, verify_stats) = err(ProgramPolicy::WriteVerify);
        let (remap_err, remap_stats) = err(ProgramPolicy::Remap);
        // Same seeded hardware in all three runs.
        assert_eq!(naive_stats.cells, verify_stats.cells);
        assert_eq!(verify_stats.cells, remap_stats.cells);
        assert!(naive_stats.cells > 0, "3% rate produced no faults?");
        // Masking bounds the error; remapping then recovers masked weight.
        assert!(verify_err < naive_err, "verify {verify_err} vs naive {naive_err}");
        assert!(remap_err < verify_err, "remap {remap_err} vs verify {verify_err}");
        assert!(remap_stats.remapped > 0, "remapper never moved a column");
        assert!(
            remap_stats.magnitude_lost < verify_stats.magnitude_lost,
            "remap lost {} ≥ verify {}",
            remap_stats.magnitude_lost,
            verify_stats.magnitude_lost
        );
        // Write-verify discovered the faults it masked.
        let observed: usize = remap_stats.masked as usize;
        assert_eq!(
            observed,
            err(ProgramPolicy::Remap)
                .1
                .masked as usize,
            "deterministic masking"
        );
    }

    #[test]
    fn dead_column_is_evacuated_by_remap() {
        // One tile, one dead bitline: remap must move that logical column
        // onto a spare and recover the exact product.
        let (in_dim, out_dim, t) = (8, 4, 32);
        let codes: Vec<i32> = (0..in_dim * out_dim).map(|k| (k % 15) as i32 - 7).collect();
        let x: Vec<f32> = (0..in_dim).map(|i| 1.0 + (i % 3) as f32).collect();
        let dense: Vec<f32> = (0..out_dim)
            .map(|j| (0..in_dim).map(|i| codes[j * in_dim + i] as f32 * x[i]).sum())
            .collect();
        // Find a seed whose map kills at least one in-use bitline and
        // nothing else (dead_line only; rates make cells impossible).
        let rates =
            crate::fault::FaultRates { stuck_on: 0.0, stuck_off: 0.0, dead_line: 0.08 };
        let mut found = false;
        for seed in 0..200u64 {
            let rel = ReliabilityConfig::faulty(rates, seed, ProgramPolicy::Remap);
            let map = FaultMap::seeded(
                in_dim,
                out_dim + rel.spare_cols,
                rates,
                rel.tile_seed(0, 0),
            );
            let dead_in_use = (0..out_dim).any(|c| map.col_is_dead(c));
            let dead_rows = (0..in_dim).any(|r| map.row_is_dead(r));
            let all_dead = (0..out_dim + rel.spare_cols).all(|c| map.col_is_dead(c));
            if dead_in_use && !dead_rows && !all_dead {
                let (tm, stats) = TiledMatrix::from_codes_reliable(
                    &codes,
                    in_dim,
                    out_dim,
                    t,
                    DeviceConfig::paper(4),
                    &rel,
                    0,
                    None,
                );
                assert!(stats.remapped > 0, "seed {seed}: no column moved");
                let y = tm.matvec_code_units(&x, None);
                // Enough spares: every column lands on a live bitline.
                if (out_dim + rel.spare_cols)
                    - (0..out_dim + rel.spare_cols)
                        .filter(|&c| map.col_is_dead(c))
                        .count()
                    >= out_dim
                {
                    for j in 0..out_dim {
                        assert!(
                            (y[j] - dense[j]).abs() < 1e-2 * (1.0 + dense[j].abs()),
                            "seed {seed} col {j}: {} vs {}",
                            y[j],
                            dense[j]
                        );
                    }
                }
                found = true;
                break;
            }
        }
        assert!(found, "no seed produced a usable dead-column scenario");
    }

    #[test]
    fn geometry_covers_only_synaptic_layers() {
        let descs = vec![
            LayerDesc::Conv {
                in_channels: 1,
                out_channels: 6,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
            LayerDesc::Other,
            LayerDesc::Linear {
                in_features: 400,
                out_features: 84,
            },
        ];
        let geo = network_geometry(&descs, 32);
        assert_eq!(geo.len(), 2);
        assert_eq!(geo[0].rows, 25);
        assert_eq!(geo[0].cols, 6);
        assert_eq!(geo[0].crossbars, 1);
        assert_eq!(geo[1].crossbars, 3 * 13);
        assert_eq!(geo[1].weights, 400 * 84);
    }
}
