//! Dense linear algebra: GEMM and transposes.
//!
//! The blocked GEMM here is the computational core of the whole simulator:
//! fully connected layers call it through [`matmul`] (forward against the
//! transposed weight, backward against the weight), the convolution input
//! gradient runs its `Wᵀ · g` product per image, and the memristor crossbar
//! model validates against it. The convolution forward and weight gradient
//! have their own direct kernels (`crate::conv`) and never reach it.
//!
//! [`gemm`] and [`matmul`] partition output rows across the worker threads
//! configured in [`crate::parallel`]. Each thread runs the same blocked
//! kernel over a disjoint row band, and the kernel's per-element accumulation
//! order (ascending `k`, in ascending blocks) never depends on which band a
//! row lands in — so the parallel product is **bit-identical** to the serial
//! one at every thread count. The `_serial` variants are kept as explicit
//! single-thread oracles for tests and speedup benchmarks.
//!
//! There is one kernel and no zero-skip policy. A pure product starts every
//! output at `+0.0`, so a `0 · b` term adds ±0 to a chain that is never
//! `−0.0` and changes no bit; skipping such terms would only add a branch,
//! which measured slower than the dense loop on every training product, even
//! with left operands two-thirds zero.

use crate::parallel;
use crate::simd::{self, SimdLevel};
use crate::tensor::Tensor;

/// Cache-blocking tile edge for [`matmul`] and the integer kernels in
/// [`mod@crate::igemm`]. Chosen so three `f32` tiles fit comfortably in L1
/// (3 · 64² · 4 B = 48 KiB).
pub(crate) const BLOCK: usize = 64;

/// Minimum multiply-accumulate count (`m·k·n`) before [`gemm`] spawns
/// threads; below this the spawn/join overhead outweighs the work.
const GEMM_PAR_MIN_FLOPS: usize = 32 * 1024;

/// Counts one `f32` GEMM call in the `tensor.gemm.calls` telemetry counter.
fn count_call() {
    if qsnc_telemetry::enabled() {
        qsnc_telemetry::counter_add("tensor.gemm.calls", 1);
    }
}

/// Blocked GEMM over one row band: `c[mb×n] += a[mb×k] · b[k×n]`.
///
/// Row indices are band-local; because the accumulation order for each
/// output element is ascending `kk` within ascending `k0` blocks regardless
/// of `mb`, running bands separately is bit-identical to one big call.
/// Bands at a SIMD `level` above scalar go to the register-tiled
/// [`crate::simd::gemm_tile_f32`] kernel, whose per-element order is the
/// same ascending `k` with separate multiply then add — bit-identical again.
fn gemm_band(level: SimdLevel, mb: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    if level != SimdLevel::Scalar {
        // SAFETY: dense contiguous panels — `a` is `mb×k`, `b` is `k×n`,
        // `c` is `mb×n`, all with stride equal to their row length (lengths
        // asserted by every public caller), and this call owns `c` alone.
        unsafe {
            simd::gemm_tile_f32(level, mb, k, n, a.as_ptr(), k, b.as_ptr(), n, c.as_mut_ptr(), n);
        }
        return;
    }
    for i0 in (0..mb).step_by(BLOCK) {
        let i_end = (i0 + BLOCK).min(mb);
        for k0 in (0..k).step_by(BLOCK) {
            let k_end = (k0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j_end = (j0 + BLOCK).min(n);
                for i in i0..i_end {
                    for kk in k0..k_end {
                        let aik = a[i * k + kk];
                        let brow = &b[kk * n + j0..kk * n + j_end];
                        let crow = &mut c[i * n + j0..i * n + j_end];
                        for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                            *cv += aik * bv;
                        }
                    }
                }
            }
        }
    }
}

/// Computes `C = A · B` for row-major matrices.
///
/// `a` must be `[m, k]` and `b` must be `[k, n]`; the result is `[m, n]`.
///
/// # Panics
///
/// Panics if either input is not rank 2 or the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use qsnc_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let id = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
/// assert_eq!(matmul(&a, &id), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be rank 2, got {}", a.shape());
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be rank 2, got {}", b.shape());
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims disagree: {} vs {}", k, k2);

    let mut c = vec![0.0f32; m * n];
    gemm(m, k, n, a.as_slice(), b.as_slice(), &mut c);
    Tensor::from_vec(c, [m, n])
}

/// Single-threaded [`matmul`]: the reference oracle benches compare the
/// parallel path against.
///
/// # Panics
///
/// Panics under the same conditions as [`matmul`].
pub fn matmul_serial(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be rank 2, got {}", a.shape());
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be rank 2, got {}", b.shape());
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims disagree: {} vs {}", k, k2);

    let mut c = vec![0.0f32; m * n];
    gemm_serial(m, k, n, a.as_slice(), b.as_slice(), &mut c);
    Tensor::from_vec(c, [m, n])
}

/// Raw blocked GEMM on slices: `c[m×n] += a[m×k] · b[k×n]`.
///
/// `c` must be zero-initialized by the caller if a pure product is wanted.
/// Output rows are partitioned across the [`crate::parallel`] worker threads
/// when the product is large enough (`m·k·n ≥ 32768`); the result is
/// bit-identical to [`gemm_serial`] at any thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the stated dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs slice length mismatch");
    assert_eq!(b.len(), k * n, "rhs slice length mismatch");
    assert_eq!(c.len(), m * n, "output slice length mismatch");

    let level = simd::simd_level();
    count_call();
    if m * k * n < GEMM_PAR_MIN_FLOPS || parallel::num_threads() == 1 {
        gemm_band(level, m, k, n, a, b, c);
        return;
    }
    if level == SimdLevel::Scalar {
        if m < 2 {
            gemm_band(level, m, k, n, a, b, c);
            return;
        }
        parallel::par_bands_mut(c, m, n, |row0, rows, c_band| {
            gemm_band(level, rows, k, n, &a[row0 * k..(row0 + rows) * k], b, c_band);
        });
        return;
    }
    // SIMD: split the output into a 2-D grid of register-kernel
    // panels. Tile columns are sized so one tile's slice of `b` (`k · tc`
    // floats) stays inside an L2-sized panel; tile rows use the L1 block
    // edge. Whole tiles are stolen off the pool's shared counter, and every
    // output element is owned by exactly one tile.
    let tc = (GEMM_TILE_PANEL / k.max(1)).clamp(BLOCK.min(n.max(1)), n.max(1));
    let tr = BLOCK.min(m.max(1));
    let (tiles_r, tiles_c) = (m.div_ceil(tr), n.div_ceil(tc));
    let base = SyncPtr(c.as_mut_ptr());
    let base = &base;
    parallel::par_tiles(tiles_r, tiles_c, |ti, tj| {
        let (r0, c0) = (ti * tr, tj * tc);
        let (rb, cb) = (tr.min(m - r0), tc.min(n - c0));
        // SAFETY: tile (ti, tj) owns rows r0..r0+rb × cols c0..c0+cb of `c`
        // exclusively (tiles partition the grid; par_tiles hands each cell
        // to exactly one worker), and `a`/`b` are read-only dense panels of
        // asserted length. Strides are the full row lengths `k` and `n`.
        unsafe {
            simd::gemm_tile_f32(
                level,
                rb,
                k,
                cb,
                a.as_ptr().add(r0 * k),
                k,
                b.as_ptr().add(c0),
                n,
                base.0.add(r0 * n + c0),
                n,
            );
        }
    });
}

/// Target `f32` element count for one GEMM tile's slice of the `b` operand
/// (`k · tile_cols`): 64 Ki floats = 256 KiB, an L2-sized panel.
const GEMM_TILE_PANEL: usize = 64 * 1024;

/// Raw output pointer crossing into the tile closure; tiles are disjoint, so
/// concurrent workers never alias an element.
struct SyncPtr<T>(*mut T);
// SAFETY: only disjoint offsets are dereferenced — `par_tiles` gives each
// grid cell to exactly one worker and cells map to disjoint `c` panels.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

/// Single-threaded [`gemm`], kept as the reference oracle for tests and
/// serial-vs-parallel benchmarks; the two differ only in threading.
///
/// # Panics
///
/// Panics under the same conditions as [`gemm`].
pub fn gemm_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs slice length mismatch");
    assert_eq!(b.len(), k * n, "rhs slice length mismatch");
    assert_eq!(c.len(), m * n, "output slice length mismatch");
    count_call();
    gemm_band(simd::simd_level(), m, k, n, a, b, c);
}

/// Naive triple-loop matrix product, kept as a reference oracle for tests
/// and benchmarks.
///
/// # Panics
///
/// Panics under the same conditions as [`matmul`].
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2);
    assert_eq!(b.shape().rank(), 2);
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul inner dims disagree");
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += av[i * k + kk] * bv[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    Tensor::from_vec(c, [m, n])
}

/// Transposes a rank-2 tensor.
///
/// # Panics
///
/// Panics if `a` is not rank 2.
pub fn transpose(a: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "transpose requires rank 2, got {}", a.shape());
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = av[i * n + j];
        }
    }
    Tensor::from_vec(out, [n, m])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let id = Tensor::from_vec(
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            [3, 3],
        );
        assert_eq!(matmul(&a, &id), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_matches_naive_on_odd_sizes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (65, 17, 33), (70, 70, 70)] {
            let a = Tensor::from_vec((0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect(), [m, k]);
            let b = Tensor::from_vec((0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect(), [k, n]);
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            for (x, y) in fast.iter().zip(slow.iter()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn matmul_dim_mismatch_panics() {
        matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [2, 3]);
        let t = transpose(&a);
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(transpose(&t), a);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 3.0, 4.0, 5.0];
        let mut c = [10.0, 0.0, 0.0, 10.0];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [12.0, 3.0, 4.0, 15.0]);
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        Tensor::from_vec(data, [rows, cols])
    }

    #[test]
    fn parallel_gemm_bit_identical_to_serial() {
        // Sizes straddling GEMM_PAR_MIN_FLOPS and the BLOCK edge.
        for &(m, k, n) in &[(2, 64, 256), (65, 65, 65), (128, 32, 100), (1, 300, 300)] {
            let a = rand_mat(m, k, 21);
            let b = rand_mat(k, n, 22);
            let serial = matmul_serial(&a, &b);
            for threads in [1, 2, 3, 8] {
                let par = crate::parallel::with_num_threads(threads, || matmul(&a, &b));
                for (x, y) in par.iter().zip(serial.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} m={m} k={k} n={n}");
                }
            }
        }
    }
}
