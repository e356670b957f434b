//! Dense linear algebra: GEMM, matrix-vector products, and transposes.
//!
//! The blocked GEMM here is the computational core of the whole simulator:
//! fully connected layers call it directly ([`gemm_bt`] forward, [`matmul`]
//! backward), the convolution input gradient runs its `Wᵀ · g` product per
//! image, and the memristor crossbar model validates against it. The
//! convolution forward and weight gradient have their own direct kernels
//! (`crate::conv`) and never reach it.
//!
//! [`gemm`] and [`matmul`] partition output rows across the worker threads
//! configured in [`crate::parallel`]. Each thread runs the same blocked
//! kernel over a disjoint row band, and the kernel's per-element accumulation
//! order (ascending `k`, in ascending blocks) never depends on which band a
//! row lands in — so the parallel product is **bit-identical** to the serial
//! one at every thread count. The `_serial` variants are kept as explicit
//! single-thread oracles for tests and speedup benchmarks.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

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

/// Inner-loop strategy for the `f32` [`gemm`], set process-wide with
/// [`set_gemm_kernel`]. The integer kernels always run dense.
///
/// The quantized networks this simulator runs produce activation matrices
/// that are often mostly zero (ReLU outputs under low-bit quantization), so
/// skipping `a[i,k] == 0` terms can win large factors — but on dense inputs
/// the extra branch costs ~10-20%. `Auto` samples the left operand per call
/// and picks accordingly; see `benches/gemm.rs` for the measured tradeoff.
///
/// Both kernels produce bit-identical results whenever the output starts
/// zero-initialized or non-negatively signed: skipping a term only elides
/// `acc += 0.0 * b`, which cannot change `acc` except for flipping the sign
/// of an exact `-0.0` accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// Sample `a` each call: use `SkipZeros` when ≥ 30% of sampled entries
    /// are zero, `Dense` otherwise. The default.
    Auto,
    /// Unconditional fused multiply-add inner loop.
    Dense,
    /// Skip inner-loop iterations where `a[i, k] == 0`.
    SkipZeros,
}

/// Process-wide kernel override: 0 = Auto, 1 = Dense, 2 = SkipZeros,
/// [`KERNEL_UNSET`] = defer to the `QSNC_GEMM_KERNEL` environment default.
static GEMM_KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNSET);

/// Sentinel meaning "no [`set_gemm_kernel`] call yet".
const KERNEL_UNSET: u8 = u8::MAX;

/// Serializes tests that mutate the
/// process-wide kernel override, and lets them restore the unset sentinel —
/// [`set_gemm_kernel`] can only store concrete kernels, but tests must put
/// the env-deferral state back so the rest of the suite sees whatever
/// `QSNC_GEMM_KERNEL` the process was launched with.
#[cfg(test)]
pub(crate) static KERNEL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
pub(crate) fn reset_gemm_kernel_for_tests() {
    GEMM_KERNEL.store(KERNEL_UNSET, Ordering::Relaxed);
}

/// Default resolved once from `QSNC_GEMM_KERNEL` (mirroring how
/// `QSNC_THREADS` seeds [`crate::parallel`]).
static ENV_KERNEL: OnceLock<GemmKernel> = OnceLock::new();

fn env_kernel() -> GemmKernel {
    *ENV_KERNEL.get_or_init(|| {
        match std::env::var("QSNC_GEMM_KERNEL")
            .map(|v| v.trim().to_ascii_lowercase())
            .as_deref()
        {
            Ok("dense") => GemmKernel::Dense,
            Ok("skipzeros") | Ok("skip_zeros") | Ok("skip-zeros") => GemmKernel::SkipZeros,
            // "auto", unset, or unrecognized: the sampling default.
            _ => GemmKernel::Auto,
        }
    })
}

/// Sets the process-wide [`GemmKernel`] used by the `f32` [`gemm`],
/// [`matmul`] and [`gemm_bt`], overriding any `QSNC_GEMM_KERNEL`
/// environment default. The integer kernels in [`mod@crate::igemm`] are
/// always dense and ignore it.
pub fn set_gemm_kernel(kernel: GemmKernel) {
    let v = match kernel {
        GemmKernel::Auto => 0,
        GemmKernel::Dense => 1,
        GemmKernel::SkipZeros => 2,
    };
    GEMM_KERNEL.store(v, Ordering::Relaxed);
}

/// Returns the effective process-wide [`GemmKernel`]: the value from
/// [`set_gemm_kernel`] if one was set, else the `QSNC_GEMM_KERNEL`
/// environment variable (`auto`/`dense`/`skipzeros`, read once per
/// process), else [`GemmKernel::Auto`].
pub fn gemm_kernel() -> GemmKernel {
    match GEMM_KERNEL.load(Ordering::Relaxed) {
        0 => GemmKernel::Auto,
        1 => GemmKernel::Dense,
        2 => GemmKernel::SkipZeros,
        _ => env_kernel(),
    }
}

/// `Auto` heuristic: sample up to 512 evenly strided entries of `a` and
/// report whether at least 30% of them are zero.
fn mostly_zero(a: &[f32]) -> bool {
    if a.is_empty() {
        return false;
    }
    let step = (a.len() / 512).max(1);
    let mut seen = 0usize;
    let mut zeros = 0usize;
    let mut i = 0;
    while i < a.len() {
        seen += 1;
        if a[i] == 0.0 {
            zeros += 1;
        }
        i += step;
    }
    zeros * 10 >= seen * 3
}

/// Slots in the per-shape `Auto` decision cache. Collisions just force a
/// resample, so a small direct-mapped table is plenty.
const AUTO_SLOTS: usize = 64;

/// Calls served from a cached `Auto` decision before the shape's left
/// operand is resampled. Kernel choice never affects results (both kernels
/// are result-preserving), so a stale decision costs performance only.
const AUTO_RESAMPLE_PERIOD: u64 = 255;

/// Direct-mapped cache of `Auto` sampling decisions, keyed by call-site
/// shape. Each slot packs `(shape tag | kernel bit | remaining-call count)`
/// into one `u64`, updated with relaxed loads/stores — a racing update
/// merely resamples, it cannot corrupt a decision.
static AUTO_CACHE: [AtomicU64; AUTO_SLOTS] = [const { AtomicU64::new(0) }; AUTO_SLOTS];

/// FNV-1a over the product shape and the active SIMD tier, so no two
/// (shape, ISA) combinations ever share a cache entry — a `QSNC_SIMD`
/// override mid-process (tests mutate it) resolves against fresh slots
/// instead of a stale decision made under another instruction set.
fn shape_hash(m: usize, k: usize, n: usize, level: SimdLevel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [m as u64, k as u64, n as u64, level as u64] {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Returns the cached `Auto` decision for `hash`, invoking `sample` only
/// when the slot holds a different shape or its resample budget ran out.
fn auto_cached(hash: u64, sample: impl FnOnce() -> bool) -> GemmKernel {
    let slot = &AUTO_CACHE[(hash >> 16) as usize % AUTO_SLOTS];
    // High 48 bits identify the shape; bit 63 is forced so a real tag can
    // never look like the empty slot. Low 16 bits: kernel bit 8, count 0-7.
    let tag = (hash | 1 << 63) & !0xFFFFu64;
    let cur = slot.load(Ordering::Relaxed);
    if cur & !0xFFFF == tag {
        let count = cur & 0xFF;
        if count > 0 {
            slot.store((cur & !0xFFu64) | (count - 1), Ordering::Relaxed);
            return if cur & 0x100 != 0 { GemmKernel::SkipZeros } else { GemmKernel::Dense };
        }
    }
    let skip = sample();
    slot.store(tag | u64::from(skip) << 8 | AUTO_RESAMPLE_PERIOD, Ordering::Relaxed);
    if skip { GemmKernel::SkipZeros } else { GemmKernel::Dense }
}

/// Resolves the effective kernel for an `f32` call of shape `(m, k, n)`
/// with left operand `a`.
///
/// Resolution happens once per [`gemm`] call — never per band — so the
/// choice (and therefore the result) cannot depend on the thread count.
/// Under `Auto` the sampling decision is cached per call-site shape and
/// refreshed every [`AUTO_RESAMPLE_PERIOD`] calls rather than resampled
/// every call.
fn resolve_kernel(m: usize, k: usize, n: usize, a: &[f32], level: SimdLevel) -> GemmKernel {
    let kernel = match gemm_kernel() {
        GemmKernel::Auto => auto_cached(shape_hash(m, k, n, level), || mostly_zero(a)),
        k => k,
    };
    if qsnc_telemetry::enabled() {
        qsnc_telemetry::counter_add("tensor.gemm.calls", 1);
        let name = match kernel {
            GemmKernel::SkipZeros => "tensor.gemm.kernel.skip_zeros",
            _ => "tensor.gemm.kernel.dense",
        };
        qsnc_telemetry::counter_add(name, 1);
    }
    kernel
}

/// Blocked GEMM over one row band: `c[mb×n] += a[mb×k] · b[k×n]`.
///
/// Row indices are band-local; because the accumulation order for each
/// output element is ascending `kk` within ascending `k0` blocks regardless
/// of `mb`, running bands separately is bit-identical to one big call.
/// Dense bands at a SIMD `level` above scalar go to the register-tiled
/// [`crate::simd::gemm_tile_f32`] kernel, whose per-element order is the
/// same ascending `k` with separate multiply then add — bit-identical again.
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot band call free of struct plumbing
fn gemm_band(
    kernel: GemmKernel,
    level: SimdLevel,
    mb: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let skip = kernel == GemmKernel::SkipZeros;
    if !skip && level != SimdLevel::Scalar {
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
                        if skip && aik == 0.0 {
                            continue;
                        }
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
    let kernel = resolve_kernel(m, k, n, a, level);
    if m * k * n < GEMM_PAR_MIN_FLOPS || parallel::num_threads() == 1 {
        gemm_band(kernel, level, m, k, n, a, b, c);
        return;
    }
    if kernel == GemmKernel::SkipZeros || level == SimdLevel::Scalar {
        if m < 2 {
            gemm_band(kernel, level, m, k, n, a, b, c);
            return;
        }
        parallel::par_bands_mut(c, m, n, |row0, rows, c_band| {
            gemm_band(kernel, level, rows, k, n, &a[row0 * k..(row0 + rows) * k], b, c_band);
        });
        return;
    }
    // Dense SIMD: split the output into a 2-D grid of register-kernel
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
/// serial-vs-parallel benchmarks. Kernel selection (`Auto` sampling) is
/// shared with [`gemm`], so the two differ only in threading.
///
/// # Panics
///
/// Panics under the same conditions as [`gemm`].
pub fn gemm_serial(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs slice length mismatch");
    assert_eq!(b.len(), k * n, "rhs slice length mismatch");
    assert_eq!(c.len(), m * n, "output slice length mismatch");
    let level = simd::simd_level();
    gemm_band(resolve_kernel(m, k, n, a, level), level, m, k, n, a, b, c);
}

/// One row band of [`gemm_bt`]: `c[mb×n] += a[mb×k] · btᵀ`.
///
/// Each output element starts from its current value and accumulates in
/// ascending `k` — the same per-element order as [`gemm_band`], so the two
/// forms are bit-identical on equal inputs. Four output columns advance per
/// pass, four independent chains sharing each `a[i, k]` load and, under
/// `SkipZeros`, its zero test. With `k = 0` the sum is empty and `c` is
/// left as it is.
fn gemm_bt_band(kernel: GemmKernel, mb: usize, k: usize, n: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    if k == 0 {
        return;
    }
    let skip = kernel == GemmKernel::SkipZeros;
    for i0 in (0..mb).step_by(BLOCK) {
        let i_end = (i0 + BLOCK).min(mb);
        for j0 in (0..n).step_by(BLOCK) {
            let j_end = (j0 + BLOCK).min(n);
            let bblock = &bt[j0 * k..j_end * k];
            for i in i0..i_end {
                let arow = &a[i * k..(i + 1) * k];
                let crow = &mut c[i * n + j0..i * n + j_end];
                let mut quads = bblock.chunks_exact(4 * k);
                for (cq, rows) in crow.chunks_exact_mut(4).zip(&mut quads) {
                    let (b0, rest) = rows.split_at(k);
                    let (b1, rest) = rest.split_at(k);
                    let (b2, b3) = rest.split_at(k);
                    let mut acc = [cq[0], cq[1], cq[2], cq[3]];
                    for ((((&av, &v0), &v1), &v2), &v3) in arow.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                        if skip && av == 0.0 {
                            continue;
                        }
                        acc[0] += av * v0;
                        acc[1] += av * v1;
                        acc[2] += av * v2;
                        acc[3] += av * v3;
                    }
                    cq.copy_from_slice(&acc);
                }
                let tail = crow.len() - crow.len() % 4;
                for (cv, brow) in crow[tail..].iter_mut().zip(quads.remainder().chunks_exact(k)) {
                    let mut acc = *cv;
                    for (&av, &bv) in arow.iter().zip(brow) {
                        if skip && av == 0.0 {
                            continue;
                        }
                        acc += av * bv;
                    }
                    *cv = acc;
                }
            }
        }
    }
}

/// GEMM against a pre-transposed right operand: `c[m×n] += a[m×k] · btᵀ`
/// where `bt` is `[n, k]` row-major.
///
/// This is the natural product for `Linear` layers, whose weights are
/// stored `[out, in]`: calling this instead of `gemm(a, transpose(w))`
/// skips materializing the transposed copy on every forward pass. Both
/// operands stream row-major through a dot-product kernel, and the
/// per-element accumulation order (ascending `k`) matches [`gemm`] exactly,
/// so the result is **bit-identical** to `gemm(m, k, n, a, transpose(bt))`
/// at any thread count.
///
/// # Panics
///
/// Panics if slice lengths do not match the stated dimensions.
pub fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs slice length mismatch");
    assert_eq!(bt.len(), n * k, "transposed rhs slice length mismatch");
    assert_eq!(c.len(), m * n, "output slice length mismatch");

    let kernel = resolve_kernel(m, k, n, a, simd::simd_level());
    if m < 2 || m * k * n < GEMM_PAR_MIN_FLOPS || parallel::num_threads() == 1 {
        gemm_bt_band(kernel, m, k, n, a, bt, c);
        return;
    }
    parallel::par_bands_mut(c, m, n, |row0, rows, c_band| {
        gemm_bt_band(kernel, rows, k, n, &a[row0 * k..(row0 + rows) * k], bt, c_band);
    });
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

/// Computes `y = A · x` for a `[m, k]` matrix and length-`k` vector.
///
/// # Panics
///
/// Panics if `a` is not rank 2 or `x` is not rank 1 of matching length.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matvec lhs must be rank 2");
    assert_eq!(x.shape().rank(), 1, "matvec rhs must be rank 1");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    assert_eq!(k, x.dims()[0], "matvec dims disagree");
    let av = a.as_slice();
    let xv = x.as_slice();
    let mut y = vec![0.0f32; m];
    for i in 0..m {
        let row = &av[i * k..(i + 1) * k];
        y[i] = row.iter().zip(xv.iter()).map(|(&a, &b)| a * b).sum();
    }
    Tensor::from_slice(&y)
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

/// Outer product of two vectors: `[m] ⊗ [n] → [m, n]`.
///
/// # Panics
///
/// Panics if either input is not rank 1.
pub fn outer(x: &Tensor, y: &Tensor) -> Tensor {
    assert_eq!(x.shape().rank(), 1, "outer lhs must be rank 1");
    assert_eq!(y.shape().rank(), 1, "outer rhs must be rank 1");
    let (m, n) = (x.dims()[0], y.dims()[0]);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = x.as_slice()[i] * y.as_slice()[j];
        }
    }
    Tensor::from_vec(out, [m, n])
}

/// Dot product of two equal-length rank-1 tensors.
///
/// # Panics
///
/// Panics if shapes differ or rank is not 1.
pub fn dot(x: &Tensor, y: &Tensor) -> f32 {
    assert_eq!(x.shape(), y.shape(), "dot shape mismatch");
    assert_eq!(x.shape().rank(), 1, "dot requires rank 1");
    x.iter().zip(y.iter()).map(|(&a, &b)| a * b).sum()
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
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let x = Tensor::from_slice(&[1.0, 0.5, -1.0]);
        let y = matvec(&a, &x);
        assert_eq!(y.as_slice(), &[-1.0, 0.5]);
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
    fn outer_product() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let y = Tensor::from_slice(&[3.0, 4.0, 5.0]);
        let o = outer(&x, &y);
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn dot_product() {
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let y = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(dot(&x, &y), 32.0);
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 3.0, 4.0, 5.0];
        let mut c = [10.0, 0.0, 0.0, 10.0];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [12.0, 3.0, 4.0, 15.0]);
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64, zero_every: usize) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|i| {
                if zero_every > 0 && i % zero_every == 0 {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect();
        Tensor::from_vec(data, [rows, cols])
    }

    #[test]
    fn parallel_gemm_bit_identical_to_serial() {
        // Sizes straddling GEMM_PAR_MIN_FLOPS and the BLOCK edge.
        for &(m, k, n) in &[(2, 64, 256), (65, 65, 65), (128, 32, 100), (1, 300, 300)] {
            let a = rand_mat(m, k, 21, 0);
            let b = rand_mat(k, n, 22, 0);
            let serial = matmul_serial(&a, &b);
            for threads in [1, 2, 3, 8] {
                let par = crate::parallel::with_num_threads(threads, || matmul(&a, &b));
                for (x, y) in par.iter().zip(serial.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn dense_and_skipzero_kernels_agree_bitwise() {
        // Zero-initialized output: skipping 0·b terms cannot change any bit.
        let a = rand_mat(40, 50, 31, 3); // every 3rd entry exactly zero
        let b = rand_mat(50, 60, 32, 0);
        let mut dense = vec![0.0f32; 40 * 60];
        let mut skip = vec![0.0f32; 40 * 60];
        for level in [SimdLevel::Scalar, simd::simd_level()] {
            dense.fill(0.0);
            skip.fill(0.0);
            gemm_band(GemmKernel::Dense, level, 40, 50, 60, a.as_slice(), b.as_slice(), &mut dense);
            gemm_band(
                GemmKernel::SkipZeros,
                level,
                40,
                50,
                60,
                a.as_slice(),
                b.as_slice(),
                &mut skip,
            );
            for (x, y) in dense.iter().zip(skip.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "level={level:?}");
            }
        }
    }

    #[test]
    fn kernel_setting_round_trips_and_auto_samples() {
        // Serialize with the other kernel-mutating tests and start from the
        // unset sentinel: gemm_kernel() must defer to QSNC_GEMM_KERNEL —
        // checked against whatever this test process was launched with so
        // the CI skipzeros leg passes too.
        let _guard = KERNEL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_gemm_kernel_for_tests();
        assert_eq!(gemm_kernel(), env_kernel());
        set_gemm_kernel(GemmKernel::Dense);
        assert_eq!(gemm_kernel(), GemmKernel::Dense);
        set_gemm_kernel(GemmKernel::Auto);
        assert_eq!(gemm_kernel(), GemmKernel::Auto);
        // Restore the "unset" sentinel so other tests see the env default.
        reset_gemm_kernel_for_tests();
        assert_eq!(gemm_kernel(), env_kernel());

        assert!(mostly_zero(&vec![0.0f32; 1000]));
        assert!(!mostly_zero(&vec![1.0f32; 1000]));
        let mixed: Vec<f32> = (0..1000).map(|i| if i % 2 == 0 { 0.0 } else { 1.0 }).collect();
        assert!(mostly_zero(&mixed));
        assert!(!mostly_zero(&[]));
    }

    #[test]
    fn auto_cache_reuses_decision_until_period_expires() {
        // A shape no other test uses, so this slot is ours alone.
        let hash = shape_hash(911, 913, 917, SimdLevel::Scalar);
        let mut samples = 0u32;
        let k1 = auto_cached(hash, || {
            samples += 1;
            true
        });
        assert_eq!(k1, GemmKernel::SkipZeros);
        assert_eq!(samples, 1);
        // Served from cache: the closure must not run again, and the cached
        // decision sticks even if a fresh sample would now disagree.
        for _ in 0..AUTO_RESAMPLE_PERIOD {
            let k = auto_cached(hash, || {
                samples += 1;
                false
            });
            assert_eq!(k, GemmKernel::SkipZeros);
        }
        assert_eq!(samples, 1, "cached calls must not resample");
        // Budget exhausted: the next call resamples.
        let k2 = auto_cached(hash, || {
            samples += 1;
            false
        });
        assert_eq!(k2, GemmKernel::Dense);
        assert_eq!(samples, 2);
        // A different shape (even one colliding into the same slot) always
        // resamples on first sight: its tag cannot match the stored one.
        let other = shape_hash(1911, 1913, 1917, SimdLevel::Scalar);
        assert_ne!(other, hash);
        let mut hit = false;
        auto_cached(other, || {
            hit = true;
            true
        });
        assert!(hit, "unseen shape must sample");
    }

    #[test]
    fn auto_cache_is_keyed_on_simd_level() {
        // Same shape, different ISA tier → different cache identity, so a
        // QSNC_SIMD override mid-process can never be served a decision made
        // under another instruction set.
        let shapes = [(2911, 2913, 2917), (77, 401, 93)];
        for &(m, k, n) in &shapes {
            assert_ne!(
                shape_hash(m, k, n, SimdLevel::Scalar),
                shape_hash(m, k, n, SimdLevel::Avx2),
                "m={m}"
            );
        }
        // End to end: cache a decision under Scalar, then resolve the same
        // shape under another level — the cached Scalar decision must not be
        // served (the closure runs again for the new key).
        let scalar_hash = shape_hash(2911, 2913, 2917, SimdLevel::Scalar);
        let avx_hash = shape_hash(2911, 2913, 2917, SimdLevel::Avx2);
        let mut samples = 0u32;
        assert_eq!(
            auto_cached(scalar_hash, || {
                samples += 1;
                true
            }),
            GemmKernel::SkipZeros
        );
        assert_eq!(
            auto_cached(avx_hash, || {
                samples += 1;
                false
            }),
            GemmKernel::Dense,
            "a level switch must resample, not reuse the other level's choice"
        );
        assert_eq!(samples, 2);
    }

    #[test]
    fn gemm_bt_bit_identical_to_gemm_with_transpose() {
        // Both kernels pinned in turn: the bands advance four columns per
        // pass, so n = 1…9 covers every column-group remainder, and n = 65
        // and 100 cover a partial column block; k = 0 is the empty sum.
        let _guard = KERNEL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut shapes = vec![(1, 400, 10), (65, 65, 65), (128, 32, 100), (4, 0, 6)];
        shapes.extend((1..=9).map(|n| (3, 5, n)));
        for kernel in [GemmKernel::Dense, GemmKernel::SkipZeros] {
            set_gemm_kernel(kernel);
            for &(m, k, n) in &shapes {
                let a = rand_mat(m, k, 41, 3);
                let bt = rand_mat(n, k, 42, 0);
                let b = transpose(&bt);
                let mut via_gemm = vec![0.5f32; m * n];
                let mut via_bt = vec![0.5f32; m * n];
                gemm(m, k, n, a.as_slice(), b.as_slice(), &mut via_gemm);
                gemm_bt(m, k, n, a.as_slice(), bt.as_slice(), &mut via_bt);
                for (x, y) in via_gemm.iter().zip(via_bt.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kernel:?} m={m} k={k} n={n}");
                }
                // And the parallel split is bit-identical too.
                for threads in [2, 3] {
                    let mut par = vec![0.5f32; m * n];
                    crate::parallel::with_num_threads(threads, || {
                        gemm_bt(m, k, n, a.as_slice(), bt.as_slice(), &mut par);
                    });
                    for (x, y) in par.iter().zip(via_bt.iter()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{kernel:?} threads={threads}");
                    }
                }
            }
        }
        reset_gemm_kernel_for_tests();
    }
}
