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
//! # One plan per product, on the calling thread
//!
//! A network's signals are `M`-bit spike counts, at most `2^M − 1`, which
//! fits `i16` for every `M ≤ 15`; at [`crate::SimdLevel::Avx2`] the
//! `pmaddwd` micro-kernels in [`crate::simd`] take such counts. Integer
//! accumulation is associative, so every route is bit-identical
//! (`tests/simd_bit_identity.rs` property-tests both entry points against
//! naive loops):
//!
//! - [`igemm`] (FC) widens its row-major count operand into the
//!   `i16 × i16 → i32` **dot** kernel; the scalar tier, and counts past
//!   `i16`, run the exact row-band loop.
//! - [`igemm_conv`] has one plan at both tiers (`ConvPlan`): the image is
//!   copied once into a zero-padded, stride-phase-split plane in which
//!   every filter tap is a fixed offset from the *wide* pixel index
//!   `q = oy·wq + ox`, so a run of output pixels is one contiguous load.
//!   At AVX2, with counts that fit `i16`, one pass pairs each plane word
//!   with its right-hand neighbour and the **pair** kernel runs the
//!   horizontally adjacent weight taps `(kx, kx + 1)` against it, 16 MACs
//!   per multiply. The scalar tier, and counts past `i16` at every level,
//!   run the same plan tap by tap on an `i32` plane. Either way the wide
//!   rows' junk columns `ox ≥ ow` are dropped when the result is added
//!   into the output.
//!
//! Neither entry point uses the [`crate::parallel`] pool. The integer
//! products of a served network are small (one LeNet image's conv2 is
//! 8 × 75 × 100 MACs), and handing them to a second thread cost more than
//! it saved at every shape measured; a server scales with its event loops
//! instead.

use crate::conv::Conv2dSpec;
use crate::linalg::BLOCK;
use crate::scratch;
use crate::simd::{self, SimdLevel, CONV_PAIR_LANES};

/// A layer's weight codes packed for the integer fast path: `i8` entries in
/// `[in, out]` (transposed) layout, prepared once at compile time.
#[derive(Debug, Clone)]
pub struct PackedCodes {
    in_dim: usize,
    out_dim: usize,
    /// `data[i · out_dim + j]` = code of output `j` from input `i`.
    data: Vec<i8>,
    /// The same codes pre-widened to `i16` in row-major `[out, in]` layout
    /// (`rows16[j · in_dim + i]`) — the panel the FC dot kernel streams and
    /// the convolution plan reads its taps from.
    rows16: Vec<i16>,
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
        Some(PackedCodes { in_dim, out_dim, data, rows16 })
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
/// The caller zero-initializes `c` for a pure product. The product runs on
/// the calling thread (see the module docs).
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
        simd::dot_tiles(level, k, &b.rows16, n, &a16, m, c, n);
        scratch::put_i16(a16);
        return;
    }
    igemm_band(m, k, n, a, &b.data, c);
}

/// Counts one integer GEMM entry-point call (`tensor.igemm.calls`).
fn count_call() {
    if qsnc_telemetry::enabled() {
        qsnc_telemetry::counter_add("tensor.igemm.calls", 1);
    }
}

/// Two `i16` values in one `pmaddwd` operand word, `lo` in the low half.
fn pair_word(lo: i16, hi: i16) -> i32 {
    (lo as u16 as u32 | (hi as u16 as u32) << 16) as i32
}

/// The one integer convolution plan, shared by both SIMD tiers.
///
/// The image is copied once into a zero-padded, stride-phase-split plane
/// `[c, s, s, hq, wq]` — column phase outermost, then row phase — with
/// `hq = ⌈hp/s⌉` and `wq = ⌈wp/s⌉` for the padded size `hp × wp`: padded
/// pixel `(Y, X)` of channel `ic` sits in column phase `X mod s`, row phase
/// `Y mod s`, at row `Y div s` and column `X div s`. Tap `(ic, ky, kx)` of
/// output `(oy, ox)` reads padded pixel `(oy·s + ky, ox·s + kx)`, which
/// sits at [`Self::tap`]`(ic, ky, kx) + oy·wq + ox`: a fixed offset per tap
/// from the wide pixel index `q = oy·wq + ox`, so a run of output pixels
/// is one contiguous run of the plane at every stride. Each wide row holds
/// `wq − ow` junk columns, computed but never added into the output. At
/// `s = 1` the plane is the plain padded image.
struct ConvPlan {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    pad: usize,
    hq: usize,
    wq: usize,
    oh: usize,
    ow: usize,
}

impl ConvPlan {
    fn new(c: usize, (h, w): (usize, usize), spec: Conv2dSpec) -> Self {
        let (k, s, pad) = (spec.kernel, spec.stride, spec.padding);
        let (oh, ow) = (spec.output_size(h), spec.output_size(w));
        let (hq, wq) = ((h + 2 * pad).div_ceil(s), (w + 2 * pad).div_ceil(s));
        ConvPlan { c, h, w, k, s, pad, hq, wq, oh, ow }
    }

    /// Words in the plane: `s²` phase blocks of `hq × wq` per channel.
    fn plane_len(&self) -> usize {
        self.c * self.s * self.s * self.hq * self.wq
    }

    /// Wide pixels that reach an output: up to the last output's `q`.
    fn wide_len(&self) -> usize {
        (self.oh - 1) * self.wq + self.ow
    }

    /// Plane offset of tap `(ic, ky, kx)` from a wide pixel index.
    fn tap(&self, ic: usize, ky: usize, kx: usize) -> usize {
        let (s, hq, wq) = (self.s, self.hq, self.wq);
        (((ic * s + kx % s) * s + ky % s) * hq + ky / s) * wq + kx / s
    }

    /// Copies the `[c, h, w]` image `src` into the zeroed `plane` through
    /// `put`, leaving the padding zero. Each source row splits into one run
    /// per column phase, source columns `s` apart; at `s = 1` that is one
    /// contiguous run.
    fn load<T>(&self, src: &[i32], plane: &mut [T], mut put: impl FnMut(i32) -> T) {
        let (s, pad, hq, wq) = (self.s, self.pad, self.hq, self.wq);
        for (row, srow) in src.chunks_exact(self.w.max(1)).enumerate() {
            let (ic, y) = (row / self.h, row % self.h + pad);
            if s == 1 {
                let at = (ic * hq + y) * wq + pad;
                for (d, &v) in plane[at..at + self.w].iter_mut().zip(srow) {
                    *d = put(v);
                }
                continue;
            }
            for phase in 0..s {
                // The first padded column `phase + j0·s` past the padding.
                let j0 = pad.saturating_sub(phase).div_ceil(s);
                let col0 = phase + j0 * s - pad;
                if col0 >= self.w {
                    continue;
                }
                let at = (((ic * s + phase) * s + y % s) * hq + y / s) * wq + j0;
                for (d, &v) in plane[at..].iter_mut().zip(srow[col0..].iter().step_by(s)) {
                    *d = put(v);
                }
            }
        }
    }

    /// `c[f, oy, ox] += wide[f·nqp + oy·wq + ox]` for every output pixel:
    /// the junk columns `ox ≥ ow` of the wide rows are dropped here.
    fn add_valid(&self, wide: &[i32], nqp: usize, c: &mut [i32]) {
        let (ow, wq) = (self.ow, self.wq);
        for (crow, wrow) in c.chunks_exact_mut(self.oh * ow).zip(wide.chunks_exact(nqp)) {
            for (oy, cr) in crow.chunks_exact_mut(ow).enumerate() {
                for (cv, &v) in cr.iter_mut().zip(&wrow[oy * wq..oy * wq + ow]) {
                    *cv = cv.wrapping_add(v);
                }
            }
        }
    }

    /// AVX2 tier: `wide[f·nqp + q] = Σ w · x` through the `pmaddwd` pair
    /// kernel. The image is loaded as `i16`; the range check rides the
    /// copy. Returns `false`, leaving `wide` as it was, when a count does
    /// not fit `i16`.
    fn run_pairs(
        &self,
        level: SimdLevel,
        src: &[i32],
        w: &PackedCodes,
        nqp: usize,
        wide: &mut [i32],
    ) -> bool {
        let len = self.plane_len();
        // One word of slack: the last word's right-hand neighbour.
        let mut x = scratch::take_i16(len + 1);
        // Nonzero once a count changed in the narrowing.
        let mut lost = 0;
        self.load(src, &mut x, |v| {
            lost |= v ^ v as i16 as i32;
            v as i16
        });
        if lost != 0 {
            scratch::put_i16(x);
            return false;
        }
        // `plane[q] = pair(X(Y, X), X(Y, X + 1))` in the same layout, so tap
        // pair `(kx, kx + 1)` sits at `tap(ic, ky, kx)`. Within one channel,
        // column `X + 1` is the next phase block, or for the last phase the
        // first block one word on. The slack lets a 16-lane block run past
        // the last wide pixel.
        let mut plane = scratch::take_i32(len + CONV_PAIR_LANES - 1);
        let block = self.s * self.hq * self.wq;
        for (b, dst) in plane[..len].chunks_exact_mut(block.max(1)).enumerate() {
            let (ic, phase) = (b / self.s, b % self.s);
            let hi = if phase + 1 < self.s { (b + 1) * block } else { (ic * self.s) * block + 1 };
            for ((d, &lo), &hi) in dst.iter_mut().zip(&x[b * block..]).zip(&x[hi..]) {
                *d = pair_word(lo, hi);
            }
        }
        scratch::put_i16(x);
        let (offsets, wpairs) = self.pair_panel(w);
        simd::conv_pairs(level, w.out_dim, &offsets, &wpairs, &plane, nqp, wide);
        scratch::put_i32(wpairs);
        scratch::put_u32(offsets);
        scratch::put_i32(plane);
        true
    }

    /// The kx-paired weight panel, in scratch buffers: each pair's plane
    /// offset, and `np` pairs per filter in ascending `(ic, ky, kx)`, an
    /// odd last tap with a zero high half.
    fn pair_panel(&self, w: &PackedCodes) -> (Vec<u32>, Vec<i32>) {
        let (k, ckk) = (self.k, w.in_dim);
        let np = self.c * k * k.div_ceil(2);
        let mut offsets = scratch::take_u32(np);
        let mut wpairs = scratch::take_i32(w.out_dim * np);
        let mut t = 0;
        for ic in 0..self.c {
            for ky in 0..k {
                for kx in (0..k).step_by(2) {
                    offsets[t] = self.tap(ic, ky, kx) as u32;
                    let at = (ic * k + ky) * k + kx;
                    for (f, row) in w.rows16.chunks_exact(ckk).enumerate() {
                        let hi = if kx + 1 < k { row[at + 1] } else { 0 };
                        wpairs[f * np + t] = pair_word(row[at], hi);
                    }
                    t += 1;
                }
            }
        }
        (offsets, wpairs)
    }

    /// Scalar tier, and counts past `i16` at every level:
    /// `wide[f·nqp + q] += Σ w · x` tap by tap on an `i32` plane.
    fn run_taps(&self, src: &[i32], w: &PackedCodes, nqp: usize, wide: &mut [i32]) {
        let mut x = scratch::take_i32(self.plane_len());
        self.load(src, &mut x, |v| v);
        let (k, ckk, nq) = (self.k, w.in_dim, self.wide_len());
        for (f, wrow) in wide.chunks_exact_mut(nqp).enumerate() {
            let codes = &w.rows16[f * ckk..(f + 1) * ckk];
            let mut t = 0;
            for ic in 0..self.c {
                for ky in 0..k {
                    for kx in 0..k {
                        let (wv, off) = (codes[t] as i32, self.tap(ic, ky, kx));
                        t += 1;
                        for (o, &xv) in wrow[..nq].iter_mut().zip(&x[off..off + nq]) {
                            *o = o.wrapping_add(wv.wrapping_mul(xv));
                        }
                    }
                }
            }
        }
        scratch::put_i32(x);
    }
}

/// Integer convolution: `c[out×oh·ow] += W · lower(src)` for one
/// `[in_c, h, w]` image, through the one [`ConvPlan`] at every SIMD level.
///
/// At AVX2, when the counts fit `i16`, the plan runs the `pmaddwd` pair
/// kernel over a pair plane; otherwise it runs tap by tap on an `i32`
/// plane. Both compute the same exact integer product, on the calling
/// thread.
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
    let plan = ConvPlan::new(in_c, (h, wd), spec);
    assert!(plan.plane_len() < u32::MAX as usize, "igemm_conv image too large");
    let nqp = plan.wide_len().next_multiple_of(CONV_PAIR_LANES);
    let mut wide = scratch::take_i32(w.out_dim * nqp);
    if !(level == SimdLevel::Avx2 && plan.run_pairs(level, src, w, nqp, &mut wide)) {
        plan.run_taps(src, w, nqp, &mut wide);
    }
    plan.add_valid(&wide, nqp, c);
    scratch::put_i32(wide);
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
    fn junk_columns_never_reach_c_and_c_accumulates() {
        // (c, h, w, kernel, stride, padding, out_c): every plan has wide
        // rows longer than the output rows.
        for &(c, h, w, k, s, pad, out_c) in &[
            (2, 6, 9, 3, 1, 1, 5),
            (1, 7, 9, 3, 2, 0, 3),
            (3, 5, 5, 5, 1, 2, 4),
            (2, 9, 10, 2, 3, 0, 6),
        ] {
            let spec = Conv2dSpec::new(k, s, pad);
            let plan = ConvPlan::new(c, (h, w), spec);
            assert!(plan.wq > plan.ow, "no junk columns at c={c} h={h} w={w} k={k} s={s}");
            // Positive counts and codes: any junk read of a pixel is a
            // nonzero junk sum.
            let src: Vec<i32> = (0..c * h * w).map(|i| 1 + (i % 13) as i32).collect();
            let ckk = c * k * k;
            let codes: Vec<i32> = (0..out_c * ckk).map(|i| 1 + (i % 7) as i32).collect();
            let packed = PackedCodes::try_pack(&codes, out_c, ckk).unwrap();
            let (nq, nqp) = (plan.wide_len(), plan.wide_len().next_multiple_of(CONV_PAIR_LANES));
            let pix = plan.oh * plan.ow;

            let mut levels = vec![SimdLevel::Scalar];
            if simd::detected_simd() >= SimdLevel::Avx2 {
                levels.push(SimdLevel::Avx2);
            }
            for level in levels {
                // The wide rows do carry nonzero junk...
                let mut wide = vec![0i32; out_c * nqp];
                if level == SimdLevel::Scalar {
                    plan.run_taps(&src, &packed, nqp, &mut wide);
                } else {
                    assert!(plan.run_pairs(level, &src, &packed, nqp, &mut wide));
                }
                let is_junk = |i: &usize| i % nqp < nq && i % nqp % plan.wq >= plan.ow;
                let junk = (0..out_c * nqp).filter(is_junk);
                assert!(junk.map(|i| wide[i]).any(|v| v != 0), "junk all zero at {level:?}");
                // ...yet `c` gets exactly the wide rows' output columns,
                // added onto what it held, call after call.
                let valid: Vec<i32> = (0..out_c * pix)
                    .map(|i| wide[i / pix * nqp + i % pix / plan.ow * plan.wq + i % plan.ow])
                    .collect();
                let base: Vec<i32> = (0..out_c * pix).map(|i| 3 * i as i32 - 100).collect();
                let mut c_out = base.clone();
                for round in 1..=2 {
                    simd::with_simd_level(level, || {
                        igemm_conv(&src, c, (h, w), spec, &packed, &mut c_out)
                    });
                    let want: Vec<i32> =
                        base.iter().zip(&valid).map(|(&b, &v)| b + round * v).collect();
                    let at = format!("c={c} h={h} w={w} k={k} s={s} p={pad}");
                    assert_eq!(c_out, want, "{level:?} round {round}: {at}");
                }
            }
        }
    }
}
