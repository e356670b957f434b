//! Integer GEMM for quantized inference: packed `i8` weight codes times
//! `i32` spike counts with `i32` accumulation.
//!
//! A deployed network's weights are integer codes on the clustered grid
//! (`|code| ≤ 2^(N−1)`, Eq. 6) and its signals are `M`-bit spike counts, so
//! the synaptic products need no floating point at all. [`PackedCodes`]
//! stores a layer's code matrix transposed once into the `[in, out]` layout
//! the inner loop streams through, and [`igemm`] runs the same cache-blocked
//! loop nest as the `f32` [`crate::gemm`]. Like it, the integer kernels are
//! always dense: a zero term costs less to compute than to test.
//!
//! [`igemm_conv`] runs a convolution on one integer image, lowering the
//! image itself, so no caller ever builds a column matrix.
//!
//! # Two routes per product
//!
//! At [`crate::SimdLevel::Avx2`], when the counts fit `i16`, the
//! micro-kernels in [`crate::simd`] take over; integer accumulation is
//! associative, so the AVX2 route is bit-identical to the scalar loop
//! (`tests/simd_bit_identity.rs` property-tests this). A network's signals
//! are `M`-bit spike counts, at most `2^M − 1`, which fits `i16` for every
//! `M ≤ 15`:
//!
//! - [`igemm`] (FC) widens its row-major count operand into the
//!   `i16 × i16 → i32` `pmaddwd` **dot** kernel.
//! - [`igemm_conv`] writes the pair operand in one pass straight from a
//!   zero-padded copy of the image (adjacent taps packed two `i16` per
//!   word), and the `pmaddwd` **axpy** kernel runs it against the weight
//!   pair panel built at pack time ([`PackedCodes`]) — 16 MACs per
//!   multiply, four output rows blocked per sweep, no column matrix.
//!
//! The scalar tier, and counts past `i16` at either tier, take the scalar
//! route: the exact row-band loop for [`igemm`], the `i32` column matrix
//! and the exact weights-times-pixels loop for [`igemm_conv`]. The scalar
//! route is also the test oracle.

use crate::conv::Conv2dSpec;
use crate::linalg::BLOCK;
use crate::parallel;
use crate::scratch;
use crate::simd::{self, SimdLevel};

/// A layer's weight codes packed for the integer fast path: `i8` entries in
/// `[in, out]` (transposed) layout, prepared once at compile time.
#[derive(Debug, Clone)]
pub struct PackedCodes {
    in_dim: usize,
    out_dim: usize,
    /// `data[i · out_dim + j]` = code of output `j` from input `i`.
    data: Vec<i8>,
    /// The same codes pre-widened to `i16` in row-major `[out, in]` layout
    /// (`rows16[j · in_dim + i]`) — the panel the FC dot kernel streams.
    rows16: Vec<i16>,
    /// Adjacent input pairs packed two-`i16`-per-word in `[out, ceil(in/2)]`
    /// layout (`pairs16[j · kp + kkp]` holds codes `2·kkp` and `2·kkp + 1`
    /// of output `j`, an odd tail padded with zero) — the broadcast operand
    /// of the `pmaddwd` axpy kernel.
    pairs16: Vec<i32>,
}

impl PackedCodes {
    /// Packs a code matrix given in the repo's standard `[out, in]` layout
    /// (as stored by `Conv2d`/`Linear` and produced by weight clustering).
    ///
    /// Returns `None` when any code does not fit in `i8` — possible only at
    /// `N = 8`, whose level bound `2^7 = 128` exceeds `i8::MAX`; callers
    /// fall back to the float path in that case.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != out_dim · in_dim`.
    pub fn try_pack(codes: &[i32], out_dim: usize, in_dim: usize) -> Option<Self> {
        assert_eq!(codes.len(), out_dim * in_dim, "code matrix shape mismatch");
        if codes.iter().any(|&c| i8::try_from(c).is_err()) {
            return None;
        }
        let mut data = vec![0i8; in_dim * out_dim];
        for (j, row) in codes.chunks_exact(in_dim.max(1)).enumerate() {
            for (i, &code) in row.iter().enumerate() {
                data[i * out_dim + j] = code as i8;
            }
        }
        let rows16: Vec<i16> = codes.iter().map(|&c| c as i16).collect();
        let kp = in_dim.div_ceil(2);
        let mut pairs16 = vec![0i32; out_dim * kp];
        for j in 0..out_dim {
            for kkp in 0..kp {
                let w0 = codes[j * in_dim + 2 * kkp] as i16 as u16 as u32;
                let w1 = if 2 * kkp + 1 < in_dim {
                    codes[j * in_dim + 2 * kkp + 1] as i16 as u16 as u32
                } else {
                    0
                };
                pairs16[j * kp + kkp] = (w0 | (w1 << 16)) as i32;
            }
        }
        Some(PackedCodes { in_dim, out_dim, data, rows16, pairs16 })
    }

    /// Input dimension (`k` of the product).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension (`n` of the product).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Recovers the code matrix in the repo's standard `[out, in]` layout —
    /// exactly the slice [`Self::try_pack`] was given. Deployment-artifact
    /// serialization uses this to export a compiled layer's codes; packing
    /// the returned codes again reproduces an identical `PackedCodes`
    /// (packing is deterministic).
    pub fn unpack_codes(&self) -> Vec<i32> {
        // rows16 already holds the codes in `[out, in]` order; every code
        // fits i8 so the i16 → i32 widening is lossless.
        self.rows16.iter().map(|&c| c as i32).collect()
    }

    /// Largest possible `|accumulator|` when the product is driven by
    /// counts in `[0, max_count]`: `max_j Σ_i |code[i,j]| · max_count`.
    /// Deployability checks compare this against `2^24` to guarantee the
    /// float oracle's sums stay exactly representable.
    pub fn max_abs_accum(&self, max_count: u32) -> i64 {
        let mut worst = 0i64;
        for j in 0..self.out_dim {
            let col: i64 = (0..self.in_dim)
                .map(|i| (self.data[i * self.out_dim + j] as i64).abs())
                .sum();
            worst = worst.max(col);
        }
        worst * max_count as i64
    }
}

/// True when every value fits `i16` — the precondition for widening an
/// operand into the `pmaddwd` dot kernel without changing its value.
fn fits_i16(vals: &[i32]) -> bool {
    vals.iter().all(|&v| v >= i16::MIN as i32 && v <= i16::MAX as i32)
}

/// Widens an `i16`-ranged `i32` slice into `dst` (caller checked the range).
fn widen_i16(src: &[i32], dst: &mut [i16]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = s as i16;
    }
}

/// One row band of the integer product: `c[mb×n] += a[mb×k] · B`.
///
/// Mirrors the `f32` `gemm_band` loop nest; per-element accumulation order
/// is ascending `k`, so banding cannot change results (and integer adds are
/// associative regardless).
fn igemm_band(mb: usize, k: usize, n: usize, a: &[i32], b: &[i8], c: &mut [i32]) {
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
                            *cv += aik * bv as i32;
                        }
                    }
                }
            }
        }
    }
}

/// Integer GEMM: `c[m×n] += a[m×k] · b` with `i32` accumulation.
///
/// `a` holds spike counts (row-major `[m, k]`), `b` the packed weight codes.
/// The caller zero-initializes `c` for a pure product. Large products split
/// across the [`crate::parallel`] workers by output row — integer
/// accumulation makes banding trivially exact.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions.
pub fn igemm(m: usize, k: usize, n: usize, a: &[i32], b: &PackedCodes, c: &mut [i32]) {
    assert_eq!(k, b.in_dim, "igemm inner dim disagrees with packed codes");
    assert_eq!(n, b.out_dim, "igemm output dim disagrees with packed codes");
    assert_eq!(a.len(), m * k, "lhs slice length mismatch");
    assert_eq!(c.len(), m * n, "output slice length mismatch");

    let level = simd::simd_level();
    count_call();
    if level != SimdLevel::Scalar && fits_i16(a) {
        // SIMD dot path: counts widened per call, codes pre-widened at pack
        // time; the shared dot kernel streams code rows register-tiled.
        let mut a16 = scratch::take_i16(m * k);
        widen_i16(a, &mut a16);
        if m < 2 || m * k * n < 32 * 1024 || parallel::num_threads() == 1 {
            simd::dot_tiles(level, k, &b.rows16, n, &a16, m, c, n);
        } else {
            let a16 = &a16;
            parallel::par_bands_mut(c, m, n, |row0, rows, c_band| {
                simd::dot_tiles(
                    level,
                    k,
                    &b.rows16,
                    n,
                    &a16[row0 * k..(row0 + rows) * k],
                    rows,
                    c_band,
                    n,
                );
            });
        }
        scratch::put_i16(a16);
        return;
    }
    if m < 2 || m * k * n < 32 * 1024 || parallel::num_threads() == 1 {
        igemm_band(m, k, n, a, &b.data, c);
        return;
    }
    parallel::par_bands_mut(c, m, n, |row0, rows, c_band| {
        igemm_band(rows, k, n, &a[row0 * k..(row0 + rows) * k], &b.data, c_band);
    });
}

/// One output-channel band of the scalar conv product:
/// `c[fb×pix] += W[fb×k] · x` on a `[k, pix]` column matrix.
///
/// `f0` is the first output channel of the band; weight reads go through the
/// packed `[in, out]` layout (`w[f, kk] = data[kk · out + f]`), only
/// `fb · k` scalar loads against `fb · k · pix` streamed MACs.
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot loop call free of struct plumbing
fn wx_band(
    f0: usize,
    fb: usize,
    out_dim: usize,
    k: usize,
    pix: usize,
    w: &[i8],
    x: &[i32],
    c: &mut [i32],
) {
    // Tile pixels and taps so the x tile (BLOCK² · 4 B = 16 KiB) stays in
    // L1 while every output channel of the band reuses it; without the
    // tiling each channel would stream the whole column matrix from memory.
    for p0 in (0..pix).step_by(BLOCK) {
        let p_end = (p0 + BLOCK).min(pix);
        for k0 in (0..k).step_by(BLOCK) {
            let k_end = (k0 + BLOCK).min(k);
            for f in 0..fb {
                let crow = &mut c[f * pix + p0..f * pix + p_end];
                for kk in k0..k_end {
                    let wk = w[kk * out_dim + f0 + f] as i32;
                    let xrow = &x[kk * pix + p0..kk * pix + p_end];
                    for (cv, &xv) in crow.iter_mut().zip(xrow.iter()) {
                        *cv += wk * xv;
                    }
                }
            }
        }
    }
}

/// Counts one integer GEMM entry-point call (`tensor.igemm.calls`).
fn count_call() {
    if qsnc_telemetry::enabled() {
        qsnc_telemetry::counter_add("tensor.igemm.calls", 1);
    }
}

/// True when a weights-times-pixels product is too small to be worth
/// splitting across the [`crate::parallel`] workers.
fn serial_wx(out_dim: usize, k: usize, pix: usize) -> bool {
    out_dim < 2 || out_dim * k * pix < 32 * 1024 || parallel::num_threads() == 1
}

/// `c[out×pix] += W · xpk` with `xpk` the pair-packed `[ceil(k/2), pix]`
/// count operand: the `pmaddwd` axpy kernel, banded across the
/// [`crate::parallel`] workers by output channel when the product is large.
fn axpy_pairs(level: SimdLevel, pix: usize, w: &PackedCodes, xpk: &[i32], c: &mut [i32]) {
    let (out_dim, k) = (w.out_dim, w.in_dim);
    let kp = k.div_ceil(2);
    if serial_wx(out_dim, k, pix) {
        simd::wx_axpy_packed(level, out_dim, kp, pix, &w.pairs16, xpk, c);
        return;
    }
    parallel::par_bands_mut(c, out_dim, pix, |f0, fb, c_band| {
        simd::wx_axpy_packed(level, fb, kp, pix, &w.pairs16[f0 * kp..(f0 + fb) * kp], xpk, c_band);
    });
}

/// Lowers one integer image `[c, h, w]` to the `[c·k·k, oh·ow]` column
/// matrix of the scalar conv route (one row per filter tap, matching the
/// `f32` `im2col` layout). Zero padding is folded in: taps that fall
/// outside the image write 0, so no padded copy is built.
///
/// # Panics
///
/// Panics if `src` or `cols` disagree with the implied geometry.
fn im2col_i32(
    src: &[i32],
    c: usize,
    (h, w): (usize, usize),
    spec: Conv2dSpec,
    cols: &mut [i32],
) {
    let k = spec.kernel;
    let pad = spec.padding;
    let oh = spec.output_size(h);
    let ow = spec.output_size(w);
    let pix = oh * ow;
    assert_eq!(src.len(), c * h * w, "im2col_i32 source length mismatch");
    assert_eq!(cols.len(), c * k * k * pix, "im2col_i32 output length mismatch");

    let mut r = 0;
    for ic in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let dst = &mut cols[r * pix..(r + 1) * pix];
                r += 1;
                for oy in 0..oh {
                    let iy = oy * spec.stride + ky;
                    let drow = &mut dst[oy * ow..(oy + 1) * ow];
                    if iy < pad || iy >= h + pad {
                        drow.fill(0);
                        continue;
                    }
                    let src_row = &src[(ic * h + iy - pad) * w..(ic * h + iy - pad + 1) * w];
                    for (ox, d) in drow.iter_mut().enumerate() {
                        let ix = ox * spec.stride + kx;
                        *d = if ix < pad || ix >= w + pad {
                            0
                        } else {
                            src_row[ix - pad]
                        };
                    }
                }
            }
        }
    }
}

/// Lowers one `[c, h, w]` count image straight into the pair-packed
/// operand [`simd::wx_axpy_packed`] consumes, with no column matrix in
/// between: word `kkp·pix + p` holds filter taps `2·kkp` and `2·kkp + 1`
/// (tap order `(ic, ky, kx)`, as in [`im2col_i32`]) at output pixel `p` in
/// its low and high 16 bits, the high half zero for the odd last tap.
///
/// The counts are first copied once into a zero-padded `i16` plane, so
/// every tap is a fixed offset from the pixel's window origin and a
/// stride-1 output row of one pair is two contiguous reads of that plane.
/// Returns `false`, leaving `xpk` unspecified, when a count does not fit
/// `i16`; the caller then takes the exact scalar route.
fn lower_conv_pairs(
    src: &[i32],
    c: usize,
    (h, w): (usize, usize),
    spec: Conv2dSpec,
    xpk: &mut [i32],
) -> bool {
    let (k, stride, pad) = (spec.kernel, spec.stride, spec.padding);
    let ow = spec.output_size(w);
    let pix = spec.output_size(h) * ow;
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let ckk = c * k * k;
    let mut plane = scratch::take_i16(c * hp * wp);
    let mut wide = false;
    for (row, srow) in src.chunks_exact(w.max(1)).enumerate() {
        let at = ((row / h) * hp + row % h + pad) * wp + pad;
        for (d, &v) in plane[at..at + w].iter_mut().zip(srow) {
            *d = v as i16;
            wide |= v != v as i16 as i32;
        }
    }
    if !wide {
        // Offset of tap `r` from a pixel's window origin in the plane.
        let tap = |r: usize| ((r / (k * k)) * hp + (r / k) % k) * wp + r % k;
        for (kkp, dst) in xpk[..ckk.div_ceil(2) * pix].chunks_exact_mut(pix).enumerate() {
            let lo = tap(2 * kkp);
            let hi = (2 * kkp + 1 < ckk).then(|| tap(2 * kkp + 1));
            for (oy, drow) in dst.chunks_exact_mut(ow).enumerate() {
                let origin = oy * stride * wp;
                if stride == 1 {
                    let b = hi.map(|hi| &plane[origin + hi..origin + hi + ow]);
                    pair_row(&plane[origin + lo..origin + lo + ow], b, drow);
                    continue;
                }
                for (ox, d) in drow.iter_mut().enumerate() {
                    let at = origin + ox * stride;
                    *d = pair(plane[at + lo], hi.map_or(0, |hi| plane[at + hi]));
                }
            }
        }
    }
    scratch::put_i16(plane);
    !wide
}

/// Two `i16` values packed into one `pmaddwd` operand word, `lo` in the low
/// half.
fn pair(lo: i16, hi: i16) -> i32 {
    (lo as u16 as u32 | (hi as u16 as u32) << 16) as i32
}

/// `dst[i] = pair(lo[i], hi[i])` over equal-length rows, the high halves
/// zero when `hi` is `None` — plain zips the compiler vectorizes.
fn pair_row(lo: &[i16], hi: Option<&[i16]>, dst: &mut [i32]) {
    match hi {
        Some(hi) => {
            for ((d, &a), &b) in dst.iter_mut().zip(lo).zip(hi) {
                *d = pair(a, b);
            }
        }
        None => {
            for (d, &a) in dst.iter_mut().zip(lo) {
                *d = pair(a, 0);
            }
        }
    }
}

/// Integer convolution: `c[out×oh·ow] += W · lower(src)` for one
/// `[in_c, h, w]` image, with the lowering chosen from the SIMD level.
///
/// Both routes compute the same exact integer product:
///
/// - **AVX2, counts fit `i16`**: one pass writes the `pmaddwd` pair operand
///   straight from a zero-padded copy of the image and the packed axpy
///   kernel runs on it — no `i32` column matrix is built.
/// - **Scalar, or counts past `i16`**: an `i32` column matrix and the exact
///   weights-times-pixels loop — the scalar route is the test oracle.
///
/// # Panics
///
/// Panics if `src` or `c` disagree with the geometry implied by `spec` and
/// the packed codes (`w.in_dim` must equal `in_c · kernel²`).
pub fn igemm_conv(
    src: &[i32],
    in_c: usize,
    (h, wd): (usize, usize),
    spec: Conv2dSpec,
    w: &PackedCodes,
    c: &mut [i32],
) {
    let ckk = in_c * spec.kernel * spec.kernel;
    let pix = spec.output_size(h) * spec.output_size(wd);
    assert_eq!(ckk, w.in_dim, "igemm_conv taps disagree with packed codes");
    assert_eq!(src.len(), in_c * h * wd, "igemm_conv source length mismatch");
    assert_eq!(c.len(), w.out_dim * pix, "igemm_conv output length mismatch");

    let level = simd::simd_level();
    count_call();
    if level == SimdLevel::Avx2 {
        let mut xpk = scratch::take_i32(ckk.div_ceil(2) * pix);
        let lowered = lower_conv_pairs(src, in_c, (h, wd), spec, &mut xpk);
        if lowered {
            axpy_pairs(level, pix, w, &xpk, c);
        }
        scratch::put_i32(xpk);
        if lowered {
            return;
        }
    }
    let out_dim = w.out_dim;
    let mut cols = scratch::take_i32(ckk * pix);
    im2col_i32(src, in_c, (h, wd), spec, &mut cols);
    if serial_wx(out_dim, ckk, pix) {
        wx_band(0, out_dim, out_dim, ckk, pix, &w.data, &cols, c);
    } else {
        let cols = &cols;
        parallel::par_bands_mut(c, out_dim, pix, |f0, fb, c_band| {
            wx_band(f0, fb, out_dim, ckk, pix, &w.data, cols, c_band);
        });
    }
    scratch::put_i32(cols);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[i32], codes: &[i32]) -> Vec<i32> {
        // codes in [out, in] = [n, k] layout, matching try_pack's input.
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += a[i * k + kk] * codes[j * k + kk];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn pseudo(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *seed >> 33
    }

    #[test]
    fn igemm_matches_naive_on_odd_shapes() {
        let mut seed = 7u64;
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (65, 17, 33), (70, 70, 70), (1, 400, 10)] {
            let a: Vec<i32> = (0..m * k).map(|_| (pseudo(&mut seed) % 16) as i32).collect();
            let codes: Vec<i32> =
                (0..n * k).map(|_| (pseudo(&mut seed) % 17) as i32 - 8).collect();
            let packed = PackedCodes::try_pack(&codes, n, k).expect("codes fit i8");
            let mut c = vec![0i32; m * n];
            igemm(m, k, n, &a, &packed, &mut c);
            assert_eq!(c, naive(m, k, n, &a, &codes), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn band_is_exact_on_sparse_counts() {
        let mut seed = 11u64;
        let (m, k, n) = (40, 50, 60);
        let a: Vec<i32> = (0..m * k)
            .map(|i| if i % 3 == 0 { 0 } else { (pseudo(&mut seed) % 8) as i32 })
            .collect();
        let codes: Vec<i32> = (0..n * k).map(|_| (pseudo(&mut seed) % 5) as i32 - 2).collect();
        let packed = PackedCodes::try_pack(&codes, n, k).unwrap();
        let mut c = vec![0i32; m * n];
        igemm_band(m, k, n, &a, &packed.data, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &codes));
    }

    #[test]
    fn igemm_accumulates_into_c() {
        let codes = vec![1, 0, 0, 1]; // identity, [out=2, in=2]
        let packed = PackedCodes::try_pack(&codes, 2, 2).unwrap();
        let a = vec![2, 3];
        let mut c = vec![10, -10];
        igemm(1, 2, 2, &a, &packed, &mut c);
        assert_eq!(c, vec![12, -7]);
    }

    #[test]
    fn parallel_igemm_identical_to_serial() {
        let mut seed = 13u64;
        let (m, k, n) = (128, 32, 100);
        let a: Vec<i32> = (0..m * k).map(|_| (pseudo(&mut seed) % 16) as i32).collect();
        let codes: Vec<i32> = (0..n * k).map(|_| (pseudo(&mut seed) % 17) as i32 - 8).collect();
        let packed = PackedCodes::try_pack(&codes, n, k).unwrap();
        let mut serial = vec![0i32; m * n];
        crate::parallel::with_num_threads(1, || igemm(m, k, n, &a, &packed, &mut serial));
        for threads in [2, 3, 8] {
            let mut par = vec![0i32; m * n];
            crate::parallel::with_num_threads(threads, || igemm(m, k, n, &a, &packed, &mut par));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn pack_rejects_codes_outside_i8() {
        assert!(PackedCodes::try_pack(&[127, -128], 2, 1).is_some());
        assert!(PackedCodes::try_pack(&[128, 0], 2, 1).is_none());
        assert!(PackedCodes::try_pack(&[0, -129], 2, 1).is_none());
    }

    #[test]
    fn pack_transposes_layout() {
        // [out=2, in=3]: row 0 = [1,2,3], row 1 = [4,5,6].
        let packed = PackedCodes::try_pack(&[1, 2, 3, 4, 5, 6], 2, 3).unwrap();
        // [in, out] layout: data[i*2 + j] = codes[j*3 + i].
        assert_eq!(packed.data, vec![1, 4, 2, 5, 3, 6]);
        assert_eq!(packed.max_abs_accum(1), 15); // col 1: 4+5+6
    }

    #[test]
    fn im2col_i32_matches_f32_im2col() {
        use crate::conv::im2col;
        use crate::tensor::Tensor;
        for &(c, h, w, k, stride, pad) in
            &[(1, 3, 3, 2, 1, 0), (2, 5, 4, 3, 1, 1), (3, 6, 6, 3, 2, 2), (1, 28, 28, 5, 1, 2)]
        {
            let spec = Conv2dSpec::new(k, stride, pad);
            let mut seed = 5u64;
            let src: Vec<i32> = (0..c * h * w).map(|_| (pseudo(&mut seed) % 9) as i32).collect();
            let x = Tensor::from_vec(src.iter().map(|&v| v as f32).collect(), [1, c, h, w]);
            let expect = im2col(&x, spec); // [c·k·k, oh·ow]
            let mut cols = vec![0i32; expect.as_slice().len()];
            im2col_i32(&src, c, (h, w), spec, &mut cols);
            let got: Vec<f32> = cols.iter().map(|&v| v as f32).collect();
            assert_eq!(got, expect.as_slice(), "c={c} h={h} w={w} k={k} s={stride} pad={pad}");
        }
    }

    #[test]
    fn lowered_pairs_match_packed_im2col() {
        for &(c, h, w, k, stride, pad) in &[
            (1, 3, 3, 2, 1, 0),
            (2, 5, 4, 3, 1, 1),
            (3, 6, 7, 3, 2, 2),
            (1, 28, 28, 5, 1, 2),
            (3, 14, 14, 5, 1, 0),
        ] {
            let spec = Conv2dSpec::new(k, stride, pad);
            let mut seed = 9u64;
            let src: Vec<i32> =
                (0..c * h * w).map(|_| (pseudo(&mut seed) % 256) as i32).collect();
            let (ckk, pix) = (c * k * k, spec.output_size(h) * spec.output_size(w));
            let mut cols = vec![0i32; ckk * pix];
            im2col_i32(&src, c, (h, w), spec, &mut cols);
            // Oracle: pair adjacent column-matrix rows into one word per
            // pixel, `(cols[2kkp, p], cols[2kkp+1, p])` in the low/high
            // halves, the high half zero past an odd last row.
            let kp = ckk.div_ceil(2);
            let mut expect = vec![0i32; kp * pix];
            for kkp in 0..kp {
                for p in 0..pix {
                    let a = cols[2 * kkp * pix + p];
                    let b = if 2 * kkp + 1 < ckk { cols[(2 * kkp + 1) * pix + p] } else { 0 };
                    assert!(a == a as i16 as i32 && b == b as i16 as i32, "counts fit i16");
                    expect[kkp * pix + p] =
                        ((a as u32 & 0xFFFF) | ((b as u32 & 0xFFFF) << 16)) as i32;
                }
            }
            let mut got = vec![0i32; expect.len()];
            assert!(lower_conv_pairs(&src, c, (h, w), spec, &mut got));
            assert_eq!(got, expect, "c={c} h={h} w={w} k={k} s={stride} pad={pad}");
        }
        let mut got = vec![0i32; 2];
        let wide = [7, i16::MAX as i32 + 1];
        assert!(!lower_conv_pairs(&wide, 1, (1, 2), Conv2dSpec::new(1, 1, 0), &mut got));
    }
}
