//! Explicit x86-64 AVX2 micro-kernels behind one-time runtime detection.
//!
//! There are two tiers: AVX2 when the CPU has it, portable scalar Rust
//! otherwise (which the compiler still auto-vectorizes with x86-64's
//! baseline SSE2). Seven kernel families live here, all selected through
//! [`simd_level`]:
//!
//! - **Integer dot tiles** (`dot_tiles`): `i16 × i16 → i32` dot products
//!   over row-major operand panels, register-blocked four rows at a time and
//!   accumulated with `pmaddwd` pairwise multiply-adds
//!   (`_mm256_madd_epi16`). This is the FC product of the quantized fast
//!   path: spike counts widen losslessly to `i16`, weight codes are
//!   `i8`-ranged, and every intermediate stays exact (see the overflow
//!   analysis on `dot_tiles`), so the SIMD result is **bit-identical** to
//!   the scalar loop.
//! - **Integer pair-plane convolution** (`conv_pairs`): the conv product at
//!   AVX2, `pmaddwd` over a plane whose words pair each image pixel with
//!   its right-hand neighbour, against the horizontally adjacent weight
//!   taps `(kx, kx + 1)` broadcast across 16 contiguous wide pixels, four
//!   filters per block and a const-generic block for the remaining one to
//!   three — exact for the same reason. The scalar tier runs the same
//!   plan tap by tap in [`crate::igemm`].
//! - **`f32` GEMM tiles** (`gemm_tile_f32`): a 4-row × 8-lane register tile
//!   that keeps each output element's accumulation order identical to the
//!   scalar kernel — ascending `k`, separate multiply then add, never FMA —
//!   so the vectorized product is bit-identical to the serial scalar
//!   oracle, not merely close.
//! - **`f32` convolution weight-gradient chains**
//!   (`conv_weight_grad_image`): one output per chain, advanced pixel by
//!   pixel in the GEMM's order, with the vector lanes over the `kx` taps of
//!   one kernel row at both tiers; a filter's row chains run in blocks of
//!   up to eight with its bias chain beside them — bit-identical at both
//!   tiers for the same reason.
//! - **`f32` convolution forward chains** (`ConvForward`): one chain per
//!   eight consecutive output pixels of one row, advanced tap by tap in
//!   ascending `(ic, ky, kx)` from `+0.0`, eight chains in flight, each
//!   group run through every filter; the vector lanes run over the output
//!   pixels at both tiers, so the forward is bit-identical to the product
//!   `W · im2col(x)`.
//! - **`f32` convolution input-gradient chains** (`ConvInputGrad`): one
//!   accumulator per sixteen input columns of one stride phase, adding
//!   each tap's ascending-`f` chain in descending `(ky, kx)` from `+0.0`,
//!   four taps in flight, so the input gradient is bit-identical to
//!   `col2im(Wᵀ · g)`.
//! - **Integer engine epilogue** ([`ifc_counts`], [`max_pool`]): the IFC
//!   and counter as a branch-free compare chain, eight counts per register
//!   advanced by `cmpgt` against each of one filter's thresholds, with the
//!   spike and saturation tallies summed in lanes in the same pass; then
//!   an `i32` max-pool that takes the elementwise maximum over a window's
//!   rows and then over its columns, for every window and stride. Integer
//!   compares and maxima are exact, so both are bit-identical at every
//!   level. When the count was sized (1728 neurons, 15 thresholds, a
//!   LeNet conv1 shape), the per-neuron `partition_point` search it
//!   replaces took 3.5–6.4 µs, the chain auto-vectorized with SSE2
//!   3.4–4.3 µs and the AVX2 register chain 1.2 µs.
//!
//! # Dispatch
//!
//! The effective [`SimdLevel`] is resolved per kernel call from, in order:
//! a scoped [`with_simd_level`] override on the calling thread, the
//! process-wide [`set_simd_level`] value, and the `QSNC_SIMD` environment
//! variable (`off`/`avx2`, read once per process) — always clamped to what
//! `is_x86_feature_detected!` reports (cached in a `OnceLock`), so
//! requesting AVX2 on a machine without it silently degrades rather than
//! faulting. Non-x86-64 targets always resolve to [`SimdLevel::Scalar`].

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Instruction-set tier the kernels may use, ordered weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar Rust only (the tier off x86-64 and on x86-64 CPUs
    /// without AVX2).
    Scalar,
    /// 256-bit AVX2 kernels, used only when runtime detection confirms them.
    Avx2,
}

/// Process-wide override from [`set_simd_level`]; [`LEVEL_UNSET`] defers to
/// the `QSNC_SIMD` environment default.
static LEVEL_OVERRIDE: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// Sentinel meaning "no [`set_simd_level`] call yet".
const LEVEL_UNSET: u8 = u8::MAX;

std::thread_local! {
    /// Scoped per-thread override installed by [`with_simd_level`].
    static TL_LEVEL: std::cell::Cell<u8> = const { std::cell::Cell::new(LEVEL_UNSET) };
}

fn level_from_u8(v: u8) -> SimdLevel {
    match v {
        0 => SimdLevel::Scalar,
        _ => SimdLevel::Avx2,
    }
}

/// What the hardware supports, probed once per process.
pub fn detected_simd() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Scalar
        }
    })
}

/// `QSNC_SIMD` environment default, read once per process. Unrecognized
/// values (including `auto`) mean "use everything detected".
fn env_level() -> SimdLevel {
    static ENV: OnceLock<SimdLevel> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("QSNC_SIMD").map(|v| v.trim().to_ascii_lowercase()).as_deref() {
            Ok("off") | Ok("scalar") | Ok("none") => SimdLevel::Scalar,
            Ok("avx2") => SimdLevel::Avx2,
            _ => detected_simd(),
        }
    })
}

/// Sets (or with `None` clears) the process-wide [`SimdLevel`] cap,
/// overriding the `QSNC_SIMD` environment default. Requests above what the
/// machine supports are clamped at use, never trusted.
pub fn set_simd_level(level: Option<SimdLevel>) {
    let v = match level {
        None => LEVEL_UNSET,
        Some(SimdLevel::Scalar) => 0,
        Some(SimdLevel::Avx2) => 1,
    };
    LEVEL_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Runs `f` with the SIMD level pinned to `level` on the calling thread.
///
/// The override only affects kernel calls made from this thread while `f`
/// runs (restored even on panic), which lets concurrent tests pin different
/// levels without interfering through the global setting. Worker threads
/// spawned by [`crate::parallel`] do **not** inherit it — kernels resolve
/// the level once per call, before fanning out, precisely so one call uses
/// one level everywhere.
pub fn with_simd_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_LEVEL.with(|c| c.set(self.0));
        }
    }
    let v = match level {
        SimdLevel::Scalar => 0,
        SimdLevel::Avx2 => 1,
    };
    let _guard = Restore(TL_LEVEL.with(|c| c.replace(v)));
    f()
}

/// Effective SIMD level for kernel calls on this thread right now: scoped
/// override, else process-wide [`set_simd_level`], else `QSNC_SIMD`, else
/// full detection — clamped to [`detected_simd`] in every case.
pub fn simd_level() -> SimdLevel {
    let requested = {
        let tl = TL_LEVEL.with(std::cell::Cell::get);
        if tl != LEVEL_UNSET {
            level_from_u8(tl)
        } else {
            let global = LEVEL_OVERRIDE.load(Ordering::Relaxed);
            if global != LEVEL_UNSET {
                level_from_u8(global)
            } else {
                env_level()
            }
        }
    };
    requested.min(detected_simd())
}

// ---------------------------------------------------------------------------
// Integer dot-product tiles
// ---------------------------------------------------------------------------

/// Scalar reference for the [`dot_tiles`] contract; also the dispatch target
/// at [`SimdLevel::Scalar`] and off x86-64.
fn dot_tiles_scalar(k: usize, fast: &[i16], nf: usize, slow: &[i16], ns: usize, c: &mut [i32], stride: usize) {
    for s in 0..ns {
        let srow = &slow[s * k..(s + 1) * k];
        let crow = &mut c[s * stride..s * stride + nf];
        for (f, cv) in crow.iter_mut().enumerate() {
            let frow = &fast[f * k..(f + 1) * k];
            let mut acc = 0i32;
            for (&sv, &fv) in srow.iter().zip(frow.iter()) {
                acc = acc.wrapping_add(sv as i32 * fv as i32);
            }
            *cv = cv.wrapping_add(acc);
        }
    }
}

/// `c[s·stride + f] += dot(fast[f], slow[s])` over row-major `i16` panels:
/// `fast` holds `nf` rows of length `k`, `slow` holds `ns` rows, and the
/// `fast` index is the unit-stride (register-tiled) output dimension.
///
/// The row-major `igemm` runs it with `fast` = weight-code rows, `slow` =
/// spike-count rows and `stride = n`.
///
/// **Exactness.** Every product `|fast·slow| ≤ 32767 · 32767` fits `i32`,
/// and `pmaddwd`'s pairwise sums stay exact whenever one operand family is
/// `i8`-ranged (the packed weight codes: `|w| ≤ 127 ⇒ |pair| < 2³³⁄₂⁹ < 2³¹`).
/// Lane accumulation and the horizontal reduction use wrapping `i32` adds —
/// associative and commutative mod 2³² — so the result equals the scalar
/// ascending-`k` loop bit for bit. Callers keep true magnitudes below `2³¹`
/// (the engine proves `< 2²⁴` at compile time), making the wrapping
/// unobservable.
///
/// # Panics
///
/// Panics if a panel slice or `c` is shorter than the stated geometry
/// implies (`fast ≥ nf·k`, `slow ≥ ns·k`, `c ≥ (ns−1)·stride + nf` when
/// `ns > 0`, `stride ≥ nf`).
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot kernel call free of struct plumbing
pub(crate) fn dot_tiles(
    level: SimdLevel,
    k: usize,
    fast: &[i16],
    nf: usize,
    slow: &[i16],
    ns: usize,
    c: &mut [i32],
    stride: usize,
) {
    assert!(fast.len() >= nf * k, "dot_tiles fast panel too short");
    assert!(slow.len() >= ns * k, "dot_tiles slow panel too short");
    assert!(stride >= nf, "dot_tiles stride narrower than fast rows");
    if ns > 0 {
        assert!(c.len() >= (ns - 1) * stride + nf, "dot_tiles output too short");
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: slice geometry was checked above; the target features are
        // guaranteed by `level`, which is always clamped to `detected_simd`.
        SimdLevel::Avx2 => unsafe { x86::dot_tiles_avx2(k, fast, nf, slow, ns, c, stride) },
        _ => dot_tiles_scalar(k, fast, nf, slow, ns, c, stride),
    }
}

// ---------------------------------------------------------------------------
// Integer convolution over a pair plane
// ---------------------------------------------------------------------------

/// Wide pixels one [`conv_pairs`] block covers: two AVX2 vectors of eight
/// `i32` lanes. The wide pixel count handed to the kernel is a multiple of
/// it.
pub(crate) const CONV_PAIR_LANES: usize = 16;

/// `pmaddwd` convolution over a pair plane:
/// `out[f·nqp + q] = Σ_t madd(plane[offsets[t] + q], wpairs[f·np + t])`
/// for every filter `f < nf` and wide pixel `q < nqp`, with
/// `np = offsets.len()`. Both sides hold two `i16` values per `i32` word:
/// `plane` word `q` pairs an image pixel with its right-hand neighbour
/// (the conv plan in [`crate::igemm`]), and weight pair `t` holds the
/// horizontally adjacent taps `(kx, kx + 1)` of one kernel row, so tap
/// pair `t` of a run of output pixels is one contiguous load at
/// `offsets[t]`. One multiply covers two taps of eight pixels, 16 MACs.
///
/// **Exactness.** Each `pmaddwd` pair sum is exact because the weight side
/// is `i8`-ranged (`|w| ≤ 128 ⇒ |pair sum| ≤ 2·32768·128 = 2²³`); lane
/// accumulation uses wrapping `i32` adds, associative and commutative
/// mod 2³², so the result equals the scalar tap-by-tap loop bit for bit.
///
/// # Panics
///
/// Panics if `nqp` is not a multiple of [`CONV_PAIR_LANES`], a slice is
/// shorter than the stated geometry (`wpairs ≥ nf·np`, `out ≥ nf·nqp`,
/// `plane ≥ offsets[t] + nqp` for every `t`), or `level` is below AVX2:
/// below it, [`crate::igemm_conv`] runs the plan tap by tap instead.
pub(crate) fn conv_pairs(
    level: SimdLevel,
    nf: usize,
    offsets: &[u32],
    wpairs: &[i32],
    plane: &[i32],
    nqp: usize,
    out: &mut [i32],
) {
    assert_eq!(nqp % CONV_PAIR_LANES, 0, "conv_pairs wide pixels not whole blocks");
    assert!(wpairs.len() >= nf * offsets.len(), "conv_pairs weight panel too short");
    assert!(out.len() >= nf * nqp, "conv_pairs output too short");
    assert!(
        offsets.iter().all(|&o| o as usize + nqp <= plane.len()),
        "conv_pairs tap pair reads past the plane"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: slice geometry was checked above; AVX2 is guaranteed by
        // `level`, which is always clamped to `detected_simd`.
        SimdLevel::Avx2 => unsafe { x86::conv_pairs_avx2(nf, offsets, wpairs, plane, nqp, out) },
        _ => unreachable!("the pair-plane convolution runs only at AVX2"),
    }
}

// ---------------------------------------------------------------------------
// f32 GEMM register tiles
// ---------------------------------------------------------------------------

/// Scalar reference for the [`gemm_tile_f32`] contract: for every output
/// element, ascending-`k` accumulation with separate multiply then add —
/// the exact operation sequence of the blocked scalar kernel in `linalg`.
///
/// # Safety
///
/// `a` must be valid for reads at `i·lda + kk` (`i < mb`, `kk < k`), `b` at
/// `kk·ldb + j` (`j < nb`), and `c` valid for reads and writes at
/// `i·ldc + j`, with no element of that `c` index set aliased by any other
/// concurrently running tile.
#[allow(clippy::too_many_arguments)] // flat pointer+stride form matches the dispatching callers
unsafe fn gemm_tile_f32_scalar(
    mb: usize,
    k: usize,
    nb: usize,
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
) {
    for i in 0..mb {
        for j in 0..nb {
            let mut acc = *c.add(i * ldc + j);
            for kk in 0..k {
                acc += *a.add(i * lda + kk) * *b.add(kk * ldb + j);
            }
            *c.add(i * ldc + j) = acc;
        }
    }
}

/// Dense `f32` GEMM tile: `c[mb×nb] += a[mb×k] · b[k×nb]` on strided panels,
/// register-tiled 4 rows × 8 lanes at AVX2, dispatched on `level`.
///
/// Each output element accumulates in ascending `k` with a separate IEEE
/// multiply and add per term (never FMA), which is the identical operation
/// sequence the scalar kernel performs — so the result is **bit-identical**
/// to the scalar oracle at every level, and disjoint tiles may compute
/// concurrently without affecting any bit of the output.
///
/// # Safety
///
/// `a` must be valid for reads at `i·lda + kk` for all `i < mb`, `kk < k`;
/// `b` for reads at `kk·ldb + j` for all `j < nb`; `c` for reads and writes
/// at `i·ldc + j`. When tiles run concurrently, their `c` index sets must be
/// disjoint (the parallel layer partitions the output grid to guarantee
/// this).
#[allow(clippy::too_many_arguments)] // flat pointer+stride form keeps the hot kernel free of view structs
pub(crate) unsafe fn gemm_tile_f32(
    level: SimdLevel,
    mb: usize,
    k: usize,
    nb: usize,
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
) {
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: forwarded caller contract; `level` is clamped to detection.
        SimdLevel::Avx2 => x86::gemm_tile_f32_avx2(mb, k, nb, a, lda, b, ldb, c, ldc),
        _ => gemm_tile_f32_scalar(mb, k, nb, a, lda, b, ldb, c, ldc),
    }
}

// ---------------------------------------------------------------------------
// f32 convolution weight-gradient chains
// ---------------------------------------------------------------------------

/// Taps one weight-gradient chain covers, one per lane, at both tiers:
/// consecutive `kx` of one kernel row.
pub(crate) const WGRAD_LANES: usize = 8;

/// Most weight-gradient row chains one block keeps in registers. Each term
/// costs a chain one multiply and one add, so four chains already keep
/// AVX2's two vector ports busy behind the add latency; eight leave room
/// in the sixteen registers for the broadcast term, a product and the bias
/// chain. A filter with more rows splits into blocks of near-equal size.
const WGRAD_CHAINS: usize = 8;

/// Calls `$kernel::<N>(args)` for the runtime chain count `$n` in `1..=8`.
macro_rules! with_chain_count {
    ($n:expr, $kernel:ident($($arg:expr),* $(,)?)) => {
        match $n {
            1 => $kernel::<1>($($arg),*),
            2 => $kernel::<2>($($arg),*),
            3 => $kernel::<3>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            5 => $kernel::<5>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            7 => $kernel::<7>($($arg),*),
            8 => $kernel::<8>($($arg),*),
            n => unreachable!("{n} chains in one block"),
        }
    };
}

/// Geometry of one zero-padded convolution input and its output map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvGeom {
    /// Input channels.
    pub c: usize,
    /// Square kernel edge.
    pub k: usize,
    /// Padded input height.
    pub hp: usize,
    /// Padded input width.
    pub wp: usize,
    /// Output map height.
    pub oh: usize,
    /// Output map width.
    pub ow: usize,
    /// Convolution stride.
    pub stride: usize,
}

/// One accumulation chain of the convolution kernels: its origin `x` in the
/// padded image, its first output `out`, and how many of its lanes are real
/// (the rest are computed, never stored).
#[derive(Debug, Clone, Copy, Default)]
struct ConvChain {
    x: usize,
    out: usize,
    lanes: usize,
}

/// One nonzero weight-gradient term: the gradient `g` of an output pixel
/// and the offset `x` of its window in the padded image.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GradTerm {
    g: f32,
    x: u32,
}

/// Workspace of [`conv_weight_grad_image`], shared by the images of one
/// geometry: each output pixel's window offset, and a filter's compacted
/// terms.
#[derive(Debug)]
pub(crate) struct WgradScratch {
    offsets: Vec<u32>,
    terms: Vec<GradTerm>,
}

impl WgradScratch {
    /// The workspace for `geom`.
    ///
    /// # Panics
    ///
    /// Panics if a window offset of the padded image overflows `u32`.
    pub(crate) fn new(geom: ConvGeom) -> Self {
        let ConvGeom {
            c,
            hp,
            wp,
            oh,
            ow,
            stride,
            ..
        } = geom;
        assert!(
            u32::try_from(c * hp * wp).is_ok(),
            "wgrad window offsets overflow u32"
        );
        let offsets = (0..oh)
            .flat_map(|oy| (0..ow).map(move |ox| ((oy * wp + ox) * stride) as u32))
            .collect();
        WgradScratch {
            offsets,
            terms: vec![GradTerm::default(); oh * ow],
        }
    }
}

/// Adds one image's contribution to a convolution's weight and bias
/// gradients: `dw[fi, ic, ky, kx] += g[fi, p] · x[ic, oy·s + ky, ox·s + kx]`
/// and `db[fi] += g[fi, p]` for every output pixel `p = (oy, ox)` in
/// ascending order, with a separate multiply and add per term (never FMA).
///
/// `g` is the image's `[f, oh·ow]` output gradient, `x` its zero-padded
/// `[c, hp, wp]` input followed by at least `WGRAD_LANES − 1` floats of
/// slack, `dw` the `[f, c, k, k]` and `db` the `[f]` accumulator, and
/// `scratch` the workspace built for `geom`. Each output element is one
/// chain loaded from `dw` or `db`, advanced pixel by pixel and stored back,
/// so called image by image this is the ascending-`k` chain of the product
/// `g · im2col(x)ᵀ`, and of `g` times a column of ones, bit for bit, at
/// both tiers.
///
/// Pixels where `g` is zero are skipped. **Finite operands only:** such a
/// term adds `0 · x`, which is `±0` for finite `x`, to a chain that starts
/// at `+0.0`; a chain of `+0.0` plus products is never `−0.0`, so adding
/// `±0` changes no bit. A zero gradient over an infinite or NaN pixel
/// would add NaN in the product and nothing here.
///
/// Each filter's nonzero terms are compacted without a branch (every
/// pixel's term is written, and the end advances by `g ≠ 0`; the AVX2 tier
/// packs four pixels per step). Its row chains, one per `(ic, ky)` and
/// chunk of `WGRAD_LANES` taps along `kx`, then run over them in blocks of
/// at most `WGRAD_CHAINS`, with no idle slots; the first block also
/// advances the bias chain. Lanes past `k` are computed and never stored.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `geom`.
pub(crate) fn conv_weight_grad_image(
    level: SimdLevel,
    geom: ConvGeom,
    g: &[f32],
    x: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
    scratch: &mut WgradScratch,
) {
    let ConvGeom { c, k, hp, wp, oh, ow, stride } = geom;
    let level = level.min(detected_simd());
    let f = db.len();
    assert_eq!(dw.len(), f * c * k * k, "wgrad output length mismatch");
    assert_eq!(g.len(), f * oh * ow, "wgrad gradient length mismatch");
    // The furthest read is the last lane at the last window of the last
    // row of the last channel: `c·hp·wp − 1 + WGRAD_LANES − 1`.
    assert!(
        x.len() + 1 >= c * hp * wp + WGRAD_LANES,
        "wgrad input lacks lane slack"
    );
    assert!(
        (oh - 1) * stride + k <= hp && (ow - 1) * stride + k <= wp,
        "wgrad window overruns the padded image"
    );

    let chunks = k.div_ceil(WGRAD_LANES);
    let rows = c * k * chunks;
    let blocks = rows.div_ceil(WGRAD_CHAINS);
    let WgradScratch { offsets, terms } = scratch;
    assert!(
        offsets.len() == oh * ow && terms.len() == oh * ow,
        "wgrad workspace of another geometry"
    );
    for (fi, plane) in g.chunks_exact(oh * ow).enumerate() {
        let live = match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `plane`, `offsets` and `terms` have the same length;
            // `level` is clamped to detection.
            SimdLevel::Avx2 => unsafe { x86::compact_terms_avx2(plane, offsets, terms) },
            _ => compact_terms(plane, offsets, terms),
        };
        if live == 0 {
            continue;
        }
        let mut row = 0;
        for b in 0..blocks {
            let len = rows / blocks + usize::from(b < rows % blocks);
            let mut block = [ConvChain::default(); WGRAD_CHAINS];
            for (chain, r) in block.iter_mut().zip(row..row + len) {
                let (ic_ky, kx0) = (r / chunks, r % chunks * WGRAD_LANES);
                *chain = ConvChain {
                    x: ((ic_ky / k) * hp + ic_ky % k) * wp + kx0,
                    out: (fi * c * k + ic_ky) * k + kx0,
                    lanes: WGRAD_LANES.min(k - kx0),
                };
            }
            row += len;
            // Every block runs the bias chain; only the first one's is kept.
            let mut spare = db[fi];
            let bias = if b == 0 { &mut db[fi] } else { &mut spare };
            // SAFETY: the asserts above bound every window row, read
            // `WGRAD_LANES` wide from any term's origin, inside `x`, for
            // every chain built here; `level` is clamped to detection.
            unsafe {
                with_chain_count!(
                    len,
                    run_wgrad_block(level, &block, &terms[..live], x, dw, bias)
                )
            };
        }
    }
}

/// Writes `(g[p], offsets[p])` for every `p` with `g[p] ≠ 0` to the front
/// of `terms`, in ascending `p`, and returns how many: every pixel's term is
/// written, and the end advances by `g ≠ 0` (NaN counts as nonzero).
fn compact_terms(g: &[f32], offsets: &[u32], terms: &mut [GradTerm]) -> usize {
    let mut live = 0;
    for (&gv, &x) in g.iter().zip(offsets) {
        terms[live] = GradTerm { g: gv, x };
        live += usize::from(gv != 0.0);
    }
    live
}

/// Runs the first `N` chains of `block` and the bias chain `db` over
/// `terms` at `level`.
///
/// # Safety
///
/// For each of the first `N` chains and each term, `x` must hold
/// `WGRAD_LANES` floats from `chain.x + term.x`, and `level` must not
/// exceed [`detected_simd`].
unsafe fn run_wgrad_block<const N: usize>(
    level: SimdLevel,
    block: &[ConvChain; WGRAD_CHAINS],
    terms: &[GradTerm],
    x: &[f32],
    dw: &mut [f32],
    db: &mut f32,
) {
    let chains: &[ConvChain; N] = block[..N].try_into().expect("block holds N chains");
    assert!(
        chains
            .iter()
            .all(|ch| ch.lanes <= WGRAD_LANES && ch.out + ch.lanes <= dw.len()),
        "wgrad chain outputs overrun dw"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: forwarded caller contract; the outputs were checked above.
        SimdLevel::Avx2 => x86::wgrad_block_avx2(chains, terms, x.as_ptr(), dw, db),
        // SAFETY: as above.
        _ => wgrad_block_scalar(chains, terms, x.as_ptr(), dw, db),
    }
}

/// Scalar tier of the weight-gradient block: the same chains of
/// `WGRAD_LANES` lanes, in portable Rust, windows read through pointers.
///
/// # Safety
///
/// As [`run_wgrad_block`], and every chain's `lanes` outputs lie in `dw`.
unsafe fn wgrad_block_scalar<const N: usize>(
    chains: &[ConvChain; N],
    terms: &[GradTerm],
    x: *const f32,
    dw: &mut [f32],
    db: &mut f32,
) {
    let mut acc = [[0.0f32; WGRAD_LANES]; N];
    for (a, ch) in acc.iter_mut().zip(chains) {
        a[..ch.lanes].copy_from_slice(&dw[ch.out..ch.out + ch.lanes]);
    }
    let xp = chains.map(|ch| x.add(ch.x));
    let mut bias = *db;
    for &GradTerm { g: gv, x: xo } in terms {
        for (a, p) in acc.iter_mut().zip(xp) {
            // SAFETY: the caller contract puts this window inside `x`.
            let xs = &*(p.add(xo as usize) as *const [f32; WGRAD_LANES]);
            for (av, &xv) in a.iter_mut().zip(xs) {
                *av += gv * xv;
            }
        }
        bias += gv;
    }
    for (a, ch) in acc.iter().zip(chains) {
        dw[ch.out..ch.out + ch.lanes].copy_from_slice(&a[..ch.lanes]);
    }
    *db = bias;
}

// ---------------------------------------------------------------------------
// f32 convolution forward chains
// ---------------------------------------------------------------------------

/// Output pixels one forward chain covers, one per lane, at both tiers:
/// consecutive `ox` of one output row.
const CONV_LANES: usize = 8;

/// Forward chains one group keeps in flight: eight vector accumulators,
/// enough independent adds to hide their latency on AVX2.
const CONV_CHAINS: usize = 8;

/// A convolution forward prepared once per call and shared by all its
/// images: the kernel's input layout, the plan that copies an image into
/// it, and each filter's nonzero terms.
///
/// The input is the image zero padded and phase split, `[c, hp, s, wq]`
/// with `wq = ⌈wp/s⌉`: padded column `X` of a row sits at phase `X mod s`,
/// index `X div s`, and `CONV_LANES − 1` floats of slack follow. Tap
/// `(ic, ky, kx)` of output `(oy, ox)` reads padded pixel
/// `(oy·s + ky, ox·s + kx)`, so it sits at row `oy·s + ky`, phase
/// `kx mod s`, index `ox + kx div s`: a chain origin plus a per-tap
/// offset, with consecutive `ox` adjacent at every stride. At stride 1 the
/// input is the plain padded image.
pub(crate) struct ConvForward {
    geom: ConvGeom,
    /// Zero padding on every border.
    pad: usize,
    /// `(w[fi, ic, ky, kx], offset)` for every nonzero weight, filter-major,
    /// in ascending `(ic, ky, kx)`.
    terms: Vec<(f32, usize)>,
    /// `terms[ends[fi − 1]..ends[fi]]` are filter `fi`'s terms.
    ends: Vec<usize>,
    /// Floats a chain reads from its origin: the furthest tap offset plus
    /// `CONV_LANES`.
    reach: usize,
    /// One run per stride phase: `(first index in the row's phase
    /// block, first source column, count)`, source columns `s` apart.
    runs: Vec<(usize, usize, usize)>,
}

impl ConvForward {
    /// Prepares the forward of the `f` filters `weights` `[f, c, k, k]` over
    /// images padded by `pad` to `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` disagrees with `geom` or a window overruns the
    /// padded image.
    pub(crate) fn new(geom: ConvGeom, pad: usize, f: usize, weights: &[f32]) -> Self {
        let ConvGeom { c, k, hp, wp, oh, ow, stride: s } = geom;
        assert!(
            (oh - 1) * s + k <= hp && (ow - 1) * s + k <= wp && hp >= 2 * pad && wp >= 2 * pad,
            "conv forward window overruns the padded image"
        );
        let (w, wq) = (wp - 2 * pad, wp.div_ceil(s));
        let mut offsets = Vec::with_capacity(c * k * k);
        for ic in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    offsets.push(((ic * hp + ky) * s + kx % s) * wq + kx / s);
                }
            }
        }
        assert_eq!(weights.len(), f * offsets.len(), "conv weight length mismatch");
        let mut terms = Vec::with_capacity(weights.len());
        let mut ends = Vec::with_capacity(f);
        for fi in 0..f {
            let filter = &weights[fi * offsets.len()..(fi + 1) * offsets.len()];
            let nonzero = filter.iter().zip(&offsets).filter(|(&wv, _)| wv != 0.0);
            terms.extend(nonzero.map(|(&wv, &t)| (wv, t)));
            ends.push(terms.len());
        }
        let runs = (0..s)
            .filter_map(|phase| {
                let j0 = pad.saturating_sub(phase).div_ceil(s);
                let col0 = phase + j0 * s - pad;
                (col0 < w).then(|| (phase * wq + j0, col0, (w - col0).div_ceil(s)))
            })
            .collect();
        let reach = offsets.iter().max().map_or(0, |&t| t + CONV_LANES);
        ConvForward { geom, pad, terms, ends, reach, runs }
    }

    /// Length of the kernel's input, slack included.
    pub(crate) fn input_len(&self) -> usize {
        let ConvGeom { c, hp, wp, stride: s, .. } = self.geom;
        c * hp * s * wp.div_ceil(s) + CONV_LANES - 1
    }

    /// Copies one `[c, h, w]` image into `x`, the kernel's input. Padding
    /// and slack are left as they are, so a zeroed buffer serves every
    /// image of a call.
    ///
    /// # Panics
    ///
    /// Panics if `img` or `x` is shorter than the geometry implies.
    pub(crate) fn load(&self, img: &[f32], x: &mut [f32]) {
        let ConvGeom { hp, wp, stride: s, .. } = self.geom;
        let (h, w, wq) = (hp - 2 * self.pad, wp - 2 * self.pad, wp.div_ceil(s));
        for (ic, plane) in img.chunks_exact(h * w).enumerate() {
            for (y, src) in plane.chunks_exact(w).enumerate() {
                let base = (ic * hp + y + self.pad) * s * wq;
                for &(d0, col0, cnt) in &self.runs {
                    let dst = &mut x[base + d0..base + d0 + cnt];
                    if s == 1 {
                        dst.copy_from_slice(src);
                    } else {
                        for (m, d) in dst.iter_mut().enumerate() {
                            *d = src[col0 + m * s];
                        }
                    }
                }
            }
        }
    }

    /// Filter count.
    fn filters(&self) -> usize {
        self.ends.len()
    }

    /// Filter `fi`'s terms.
    fn filter(&self, fi: usize) -> &[(f32, usize)] {
        let start = if fi == 0 { 0 } else { self.ends[fi - 1] };
        &self.terms[start..self.ends[fi]]
    }

    /// One image of the forward: `out[fi, oy, ox] = Σ w · x`, then plus
    /// `bias[fi]`, from `x` filled by [`Self::load`] into the `[f, oh·ow]`
    /// output `out`.
    ///
    /// Each output is one lane of a chain that starts at `+0.0` and adds
    /// `w · x` tap by tap in ascending `(ic, ky, kx)`, a separate multiply
    /// and add per term (never FMA), then the bias: the operation sequence
    /// of the product `W · im2col(x)` plus bias, so the result is
    /// bit-identical to it at both tiers. Zero weights are skipped.
    /// **Finite operands only:** such a term adds `0 · x`, which is `±0` for
    /// finite `x`, to a chain that starts at `+0.0`; a chain of `+0.0` plus
    /// products is never `−0.0`, so adding ±0 to it changes no bit. A zero
    /// weight over an infinite or NaN pixel would add NaN in the product
    /// and nothing here. A chain's lanes are eight
    /// consecutive `ox` of one output row; the chains run eight at a time,
    /// each group through every filter in turn, and lanes past the row end
    /// are computed but not stored.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the geometry.
    pub(crate) fn run(&self, level: SimdLevel, bias: Option<&[f32]>, x: &[f32], out: &mut [f32]) {
        let ConvGeom { wp, oh, ow, stride: s, .. } = self.geom;
        let level = level.min(detected_simd());
        let wq = wp.div_ceil(s);
        assert_eq!(out.len(), self.filters() * oh * ow, "conv forward output length mismatch");
        assert!(bias.is_none_or(|b| b.len() == self.filters()), "conv forward bias length mismatch");
        // The furthest read is the last lane of the last chain at the last
        // tap: inside the layout because every window fits the padded image
        // (checked in `new`), since `(ow − 1)·s + k ≤ wp` gives
        // `ow − 1 + (k − 1) div s < ⌈wp/s⌉`.
        assert!(x.len() >= self.input_len(), "conv forward input lacks lane slack");

        let mut group = [ConvChain::default(); CONV_CHAINS];
        let mut len = 0;
        for oy in 0..oh {
            for ox0 in (0..ow).step_by(CONV_LANES) {
                group[len] = ConvChain {
                    x: oy * s * s * wq + ox0,
                    out: oy * ow + ox0,
                    lanes: CONV_LANES.min(ow - ox0),
                };
                len += 1;
                if len == CONV_CHAINS {
                    // SAFETY: the asserts here and in `new` keep every lane
                    // of every chain built here, at every term's offset,
                    // inside `x`; `level` is clamped to detection.
                    unsafe { run_forward_group(level, &group, len, self, bias, x, out) };
                    len = 0;
                }
            }
        }
        if len > 0 {
            // SAFETY: as above.
            unsafe { run_forward_group(level, &group, len, self, bias, x, out) };
        }
    }
}

/// Runs the first `len` chains of `group` through every filter; the unused
/// slots repeat chain 0 and are not stored.
///
/// # Safety
///
/// For each of the first `len` chains and each term `(w, t)`, `x` must hold
/// `CONV_LANES` floats from `chain.x + t`, and `level` must not exceed
/// [`detected_simd`].
unsafe fn run_forward_group(
    level: SimdLevel,
    group: &[ConvChain; CONV_CHAINS],
    len: usize,
    fwd: &ConvForward,
    bias: Option<&[f32]>,
    x: &[f32],
    out: &mut [f32],
) {
    let mut chains = *group;
    for slot in &mut chains[len..] {
        *slot = ConvChain { lanes: 0, ..group[0] };
    }
    let pix = fwd.geom.oh * fwd.geom.ow;
    for fi in 0..fwd.filters() {
        let (fterms, b) = (fwd.filter(fi), bias.map(|b| b[fi]));
        let out_f = &mut out[fi * pix..(fi + 1) * pix];
        match level {
            // SAFETY: forwarded caller contract (the unused slots repeat
            // chain 0's reads); `out_f` is bounds-checked inside.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => x86::forward8_avx2(&chains, fterms, b, x.as_ptr(), out_f),
            _ => forward8_scalar(&chains, fterms, fwd.reach, b, x, out_f),
        }
    }
}

/// Scalar tier of the forward chains: the same eight chains of
/// `CONV_LANES` lanes, in portable Rust.
///
/// Each window is read through a pointer, bounded up front by one check
/// per chain (its origin plus `reach` lies inside `x`) and one per term
/// (its offset plus `CONV_LANES` lies inside `reach`). A bounds check per
/// read inside the loop made LeNet conv1 and conv2 a third slower at this
/// tier on a 2-vCPU x86-64 host, and perfbench `train_deploy` 8% slower.
fn forward8_scalar(
    chains: &[ConvChain; CONV_CHAINS],
    terms: &[(f32, usize)],
    reach: usize,
    bias: Option<f32>,
    x: &[f32],
    out: &mut [f32],
) {
    assert!(chains.iter().all(|ch| ch.x + reach <= x.len()), "forward chain window overruns the input");
    assert!(terms.iter().all(|&(_, t)| t + CONV_LANES <= reach), "forward term past the chain window");
    let xp = chains.map(|ch| x[ch.x..].as_ptr());
    let mut acc = [[0.0f32; CONV_LANES]; CONV_CHAINS];
    for &(wv, t) in terms {
        for (a, p) in acc.iter_mut().zip(xp) {
            // SAFETY: `ch.x + t + CONV_LANES ≤ ch.x + reach ≤ x.len()` by
            // the two asserts, so the window lies inside `x`.
            let xs = unsafe { &*(p.add(t) as *const [f32; CONV_LANES]) };
            for (av, &xv) in a.iter_mut().zip(xs) {
                *av += wv * xv;
            }
        }
    }
    for (a, ch) in acc.iter_mut().zip(chains) {
        if let Some(b) = bias {
            for av in a.iter_mut() {
                *av += b;
            }
        }
        out[ch.out..ch.out + ch.lanes].copy_from_slice(&a[..ch.lanes]);
    }
}

// ---------------------------------------------------------------------------
// f32 convolution input-gradient chains
// ---------------------------------------------------------------------------

/// Input columns one input-gradient accumulator covers, one per lane, at
/// both tiers: consecutive columns of one stride phase of one input row,
/// two AVX2 vectors.
const DX_LANES: usize = 16;

/// Tap contributions one input-gradient block computes at once. Each is a
/// chain of `f` adds two vectors wide, so four in flight hide the add
/// latency, and each weight broadcast serves both vectors of its chain.
const DX_CHAINS: usize = 4;

/// One tap contribution of the input-gradient kernel: the tap's weights
/// `wt[w..w + f]`, the origin `g` of its window in each filter plane of the
/// bordered gradient copy, and the accumulator `acc` it is added to.
#[derive(Debug, Clone, Copy)]
struct DxSlot {
    w: usize,
    g: usize,
    acc: usize,
}

/// A convolution input gradient prepared once per call and shared by all
/// its images: the weights tap-major, the layout of the bordered gradient
/// copy it reads, and the program of tap contributions every image runs.
///
/// The copy is `[f, oh, gw]`: gradient row `oy` of filter `fi` sits at
/// columns `border ..< border + ow` of its row, with `border = (k − 1) div s`
/// zero columns on its left and zeros up to `gw` on its right. Padded input
/// column `X = φ + j·s` (stride phase `φ`) takes tap `kx = φ + t·s` from
/// output column `ox = j − t`, so `DX_LANES` consecutive `j` of one phase
/// read as many adjacent gradient columns, and `ox` outside `[0, ow)` reads
/// zero.
pub(crate) struct ConvInputGrad {
    geom: ConvGeom,
    /// Filter count.
    f: usize,
    /// `Wᵀ` `[c·k² + 1, f]`: each tap's filter weights side by side, then
    /// a zero row for the padding slots.
    wt: Vec<f32>,
    /// Zero columns left of each gradient row.
    border: usize,
    /// Row width of the bordered copy.
    gw: usize,
    /// Every accumulator's contributions in descending `(ky, kx)`, padded
    /// with zero-weight slots into a spare accumulator to a whole number of
    /// blocks.
    slots: Vec<DxSlot>,
    /// Per accumulator: its first `dx` index and live lanes (`s` apart).
    stores: Vec<(usize, usize)>,
}

impl ConvInputGrad {
    /// Prepares the input gradient of the `f` filters `weights`
    /// `[f, c, k, k]` over images padded by `pad` to `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` disagrees with `geom` or a window overruns the
    /// padded image.
    pub(crate) fn new(geom: ConvGeom, pad: usize, f: usize, weights: &[f32]) -> Self {
        let ConvGeom {
            c,
            k,
            hp,
            wp,
            oh,
            ow,
            stride: s,
        } = geom;
        assert!(
            (oh - 1) * s + k <= hp && (ow - 1) * s + k <= wp && hp >= 2 * pad && wp >= 2 * pad,
            "conv input gradient window overruns the padded image"
        );
        let ckk = c * k * k;
        assert_eq!(weights.len(), f * ckk, "conv weight length mismatch");
        let mut wt = vec![0.0f32; (ckk + 1) * f];
        for (r, taps) in wt.chunks_exact_mut(f).take(ckk).enumerate() {
            for (fi, t) in taps.iter_mut().enumerate() {
                *t = weights[fi * ckk + r];
            }
        }
        // The last lane of the last accumulator of a row reads column
        // `border + j + DX_LANES − 1` with `j < ⌈wp/s⌉`.
        let border = (k - 1) / s;
        let gw = border + wp.div_ceil(s) + DX_LANES - 1;
        let (h, w) = (hp - 2 * pad, wp - 2 * pad);
        let mut slots = Vec::new();
        let mut stores = Vec::new();
        for ic in 0..c {
            for y in 0..h {
                let (jy, row_phase) = ((y + pad) / s, (y + pad) % s);
                for phase in 0..s {
                    // Interior columns of this phase: `x0, x0 + s, …`, the
                    // first at phase index `j0`.
                    let j0 = pad.saturating_sub(phase).div_ceil(s);
                    let x0 = phase + j0 * s - pad;
                    if x0 >= w {
                        continue;
                    }
                    let cols = (w - x0).div_ceil(s);
                    let first = stores.len();
                    for q in 0..cols.div_ceil(DX_LANES) {
                        let out = (ic * h + y) * w + x0 + q * DX_LANES * s;
                        stores.push((out, DX_LANES.min(cols - q * DX_LANES)));
                    }
                    for ky in (row_phase..k).step_by(s).rev() {
                        let Some(oy) = jy.checked_sub(ky / s).filter(|&oy| oy < oh) else {
                            continue;
                        };
                        for kx in (phase..k).step_by(s).rev() {
                            let origin = oy * gw + border + j0 - kx / s;
                            for (q, acc) in (first..stores.len()).enumerate() {
                                let w = ((ic * k + ky) * k + kx) * f;
                                slots.push(DxSlot {
                                    w,
                                    g: origin + q * DX_LANES,
                                    acc,
                                });
                            }
                        }
                    }
                }
            }
        }
        let spare = DxSlot {
            w: ckk * f,
            g: 0,
            acc: stores.len(),
        };
        slots.resize(slots.len().next_multiple_of(DX_CHAINS), spare);
        ConvInputGrad {
            geom,
            f,
            wt,
            border,
            gw,
            slots,
            stores,
        }
    }

    /// Length of the bordered gradient copy.
    pub(crate) fn grad_len(&self) -> usize {
        self.f * self.geom.oh * self.gw
    }

    /// Copies one image's `[f, oh, ow]` output gradient into `gpad`, the
    /// bordered copy. The borders are left as they are, so a zeroed buffer
    /// serves every image of a call.
    ///
    /// # Panics
    ///
    /// Panics if `g` or `gpad` is shorter than the geometry implies.
    pub(crate) fn load(&self, g: &[f32], gpad: &mut [f32]) {
        let ow = self.geom.ow;
        for (row, src) in g.chunks_exact(ow).enumerate() {
            let dst = row * self.gw + self.border;
            gpad[dst..dst + ow].copy_from_slice(src);
        }
    }

    /// One image of the input gradient: `dx` `[c, h, w]` from the bordered
    /// gradient `gpad` filled by [`Self::load`], with `acc` workspace.
    ///
    /// Element `(ic, y, x)` is the padded element `(Y, X) = (y + pad,
    /// x + pad)` of `col2im(Wᵀ · g)`. That element starts at `+0.0` and
    /// receives, in ascending output pixel order, the contribution of each
    /// output `(oy, ox)` whose window covers it: the tap `(ky, kx) =
    /// (Y − oy·s, X − ox·s)` row of `Wᵀ · g`, an ascending-`f` chain from
    /// `+0.0`. Ascending `(oy, ox)` is descending `(ky, kx)`. Here each
    /// element is one lane of an accumulator that starts at `+0.0` and adds
    /// the contribution of every tap in its phase (`ky ≡ Y`, `kx ≡ X`
    /// mod `s`) in descending `(ky, kx)`, each computed as that chain with
    /// a separate multiply and add per term (never FMA): the product's
    /// operation sequence, so the result is bit-identical to it at both
    /// tiers. Taps whose `oy` is outside the map are skipped; taps whose
    /// `ox` is outside it read the zero border and contribute `+0.0`.
    /// **Finite operands only:** that contribution is `+0.0` for finite
    /// weights, and an accumulator that starts at `+0.0` is never `−0.0`,
    /// so adding it changes no bit.
    ///
    /// An accumulator is `DX_LANES` consecutive columns of one phase of one
    /// input row; the program runs its `(tap, accumulator)` contributions
    /// `DX_CHAINS` at a time, and lanes past the row end are computed but
    /// not stored.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the geometry.
    pub(crate) fn run(
        &self,
        level: SimdLevel,
        gpad: &[f32],
        dx: &mut [f32],
        acc: &mut Vec<[f32; DX_LANES]>,
    ) {
        let ConvGeom { oh, stride: s, .. } = self.geom;
        let level = level.min(detected_simd());
        assert_eq!(
            gpad.len(),
            self.grad_len(),
            "conv input gradient copy length mismatch"
        );
        acc.clear();
        acc.resize(self.stores.len() + 1, [0.0; DX_LANES]);
        let plane = oh * self.gw;
        // SAFETY: `new` builds every slot with `w + f ≤ wt.len()`, a
        // gradient window `fi·plane + g + DX_LANES ≤ f·plane` for every
        // `fi < f` (`oy < oh`, `kx div s ≤ border`, and the last lane of a
        // row stays below `gw`; the spare slot reads the first window), and
        // `acc` below `stores.len() + 1`; `level` is clamped to detection.
        unsafe {
            match level {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => {
                    x86::dx_blocks_avx2(&self.slots, self.f, plane, &self.wt, gpad, acc)
                }
                _ => dx_blocks_scalar(&self.slots, self.f, plane, &self.wt, gpad, acc),
            }
        }
        for (a, &(out, lanes)) in acc.iter().zip(&self.stores) {
            for (d, &v) in dx[out..].iter_mut().step_by(s).zip(&a[..lanes]) {
                *d = v;
            }
        }
    }
}

/// Scalar tier of the input-gradient program: each block of `DX_CHAINS`
/// slots computes its contributions, the ascending-`fi` chains of
/// `wt[w + fi] · g[fi·plane + slot.g ..][lane]` from `+0.0`, then adds them
/// to their accumulators in slot order; in portable Rust, read through
/// pointers. The contributions are independent, so the block runs them two
/// at a time, which keeps them in the sixteen SSE registers.
///
/// # Safety
///
/// `slots.len()` must be a multiple of `DX_CHAINS`, and for every slot `wt`
/// must hold `f` floats from `w`, `g` must hold `DX_LANES` floats from
/// `fi·plane + slot.g` for every `fi < f`, and `slot.acc` must index `acc`.
unsafe fn dx_blocks_scalar(
    slots: &[DxSlot],
    f: usize,
    plane: usize,
    wt: &[f32],
    g: &[f32],
    acc: &mut [[f32; DX_LANES]],
) {
    let (wt, g) = (wt.as_ptr(), g.as_ptr());
    assert_eq!(
        slots.len() % DX_CHAINS,
        0,
        "input gradient program ends in a partial block"
    );
    for pair in slots.chunks_exact(2) {
        let mut sums = [[0.0f32; DX_LANES]; 2];
        for fi in 0..f {
            let gf = g.add(fi * plane);
            for (sum, slot) in sums.iter_mut().zip(pair) {
                let wv = *wt.add(slot.w + fi);
                // SAFETY: the caller contract puts this window inside `g`.
                let gs = &*(gf.add(slot.g) as *const [f32; DX_LANES]);
                for (s, &gv) in sum.iter_mut().zip(gs) {
                    *s += wv * gv;
                }
            }
        }
        for (sum, slot) in sums.iter().zip(pair) {
            let a = &mut *acc.as_mut_ptr().add(slot.acc);
            for (av, &v) in a.iter_mut().zip(sum) {
                *av += v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// IFC counting and the integer max-pool (the integer engine's epilogue)
// ---------------------------------------------------------------------------

/// Neurons per step of the AVX2 count tier (two registers of eight).
const IFC_STEP: usize = 16;

/// Neurons per call of a count tier: a tally lane then sums at most
/// `IFC_BLOCK / 8` counts of at most `u16::MAX` each, and the eight lanes
/// together stay below `2³¹`, so the `i32` tallies never wrap.
const IFC_BLOCK: usize = 1 << 15;

/// Scalar tier of [`ifc_counts`] over a multiple of eight neurons: each
/// block of eight counts starts at `thresholds.len()` and is lowered by
/// `t > y` for every threshold, so the compiler runs the block as one
/// baseline-SSE2 compare-and-subtract chain; the tallies add in eight
/// lanes.
fn ifc_counts_scalar(acc: &[i32], thresholds: &[i32], counts: &mut [i32]) -> (u64, u64) {
    let top = thresholds.len() as i32;
    let (mut spikes, mut saturated) = ([0i32; 8], [0i32; 8]);
    for (y8, c8) in acc.chunks_exact(8).zip(counts.chunks_exact_mut(8)) {
        let y8: &[i32; 8] = y8.try_into().expect("chunks_exact(8) yields 8 neurons");
        let mut n = [top; 8];
        for &t in thresholds {
            for (nv, &y) in n.iter_mut().zip(y8) {
                *nv -= (t > y) as i32;
            }
        }
        c8.copy_from_slice(&n);
        for ((s, z), &v) in spikes.iter_mut().zip(&mut saturated).zip(&n) {
            *s += v;
            *z += (v == top) as i32;
        }
    }
    let sum = |lanes: [i32; 8]| lanes.iter().map(|&v| v as u64).sum();
    (sum(spikes), sum(saturated))
}

/// The IFC-and-counter of one filter: `counts[i]` becomes the number of
/// the ascending `thresholds` at or below `acc[i]`, and the return value is
/// `(Σ counts, #{i : counts[i] = thresholds.len()})`, the spike and
/// saturation tallies of the same pass.
///
/// The integer engine passes one filter's accumulator row and that
/// filter's thresholds (`i32::MAX` where a count is unreachable). The
/// neurons run sixteen per step without a branch: every threshold is
/// compared against every accumulator. The AVX2 tier holds eight counts in
/// one register, starts them at `thresholds.len()` and adds `cmpgt(t, y)`
/// (−1 where the threshold lies above the accumulator) for each broadcast
/// threshold. The comparison is exact on all of `i32`, so no threshold
/// needs an offset or a guard. The last neurons of a row, fewer than a
/// step, take a binary search each, which gives the same counts for
/// ascending thresholds, so the result is the same at every level.
///
/// # Panics
///
/// Panics if `counts` and `acc` differ in length or `thresholds` holds more
/// than `u16::MAX` entries (a counter has at most 16 bits).
// Inlined: the engine calls it once per FC neuron, whose row is one
// neuron long, and a call's setup would cost more than the search.
#[inline]
pub fn ifc_counts(
    level: SimdLevel,
    acc: &[i32],
    thresholds: &[i32],
    counts: &mut [i32],
) -> (u64, u64) {
    assert_eq!(acc.len(), counts.len(), "ifc_counts output length");
    assert!(thresholds.len() <= u16::MAX as usize, "ifc_counts counter wider than 16 bits");
    let top = thresholds.len() as i32;
    let whole = acc.len() - acc.len() % IFC_STEP;
    let (mut spikes, mut saturated) = (0u64, 0u64);
    let blocks = acc[..whole].chunks(IFC_BLOCK).zip(counts[..whole].chunks_mut(IFC_BLOCK));
    for (a, c) in blocks {
        let (s, z) = match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 is guaranteed by `level`, which is always clamped
            // to `detected_simd`; the lengths were checked above and are
            // multiples of `IFC_STEP`.
            SimdLevel::Avx2 => unsafe { x86::ifc_counts_avx2(a, thresholds, c) },
            _ => ifc_counts_scalar(a, thresholds, c),
        };
        spikes += s;
        saturated += z;
    }
    // The last neurons, fewer than a step (every neuron of an FC row, which
    // is one neuron long), are searched one at a time.
    for (&y, c) in acc[whole..].iter().zip(&mut counts[whole..]) {
        *c = thresholds.partition_point(|&t| t <= y) as i32;
        spikes += *c as u64;
        saturated += (*c == top) as u64;
    }
    (spikes, saturated)
}

/// Scalar tier of [`max_pool`]'s row step: `rows[x]` becomes the maximum
/// of `first[ky·w + x]` over the window's rows `ky < window`.
fn max_rows_scalar(rows: &mut [i32], first: &[i32], w: usize, window: usize) {
    let span = rows.len();
    rows.copy_from_slice(&first[..span]);
    for ky in 1..window {
        for (r, &v) in rows.iter_mut().zip(&first[ky * w..ky * w + span]) {
            *r = (*r).max(v);
        }
    }
}

/// Scalar tier of [`max_pool`]'s column step, in place and ascending:
/// `rows[x] = max(rows[x .. x + window])` for every `x` a window can start
/// at. Each window reads only entries not yet overwritten.
fn max_cols_scalar(rows: &mut [i32], window: usize) {
    for x in 0..=rows.len() - window {
        rows[x] = rows[x..x + window].iter().copied().fold(i32::MIN, i32::max);
    }
}

/// Max-pools `planes` row-major `h × w` planes of `src` with a square
/// `window` at `stride` and no padding, into `planes` planes of
/// `oh × ow = ((h − window)/stride + 1) × ((w − window)/stride + 1)` in
/// `dst`.
///
/// Each output row takes the elementwise maximum over its window's input
/// rows into a row buffer, then the maximum over the window's columns at
/// every column a window can start at, and keeps every `stride`-th of
/// those. One routine serves every window and stride; the tiers differ only
/// in the two elementwise steps (`vpmaxsd` over eight lanes at AVX2). The
/// maximum is exact, so every level gives the same result. The row buffer
/// comes from the [`crate::scratch`] arena.
///
/// # Panics
///
/// Panics if `window` or `stride` is 0, a plane is smaller than the window,
/// or `src` and `dst` do not hold exactly `planes` input and output planes.
pub fn max_pool(
    level: SimdLevel,
    src: &[i32],
    planes: usize,
    (h, w): (usize, usize),
    window: usize,
    stride: usize,
    dst: &mut [i32],
) {
    assert!(window > 0 && stride > 0, "max_pool window and stride must be positive");
    assert!(h >= window && w >= window, "max_pool plane smaller than its window");
    let (oh, ow) = ((h - window) / stride + 1, (w - window) / stride + 1);
    assert_eq!(src.len(), planes * h * w, "max_pool input length");
    assert_eq!(dst.len(), planes * oh * ow, "max_pool output length");
    // The input columns any window reads; the row buffer has room for
    // whole eight-lane stores past them.
    let span = (ow - 1) * stride + window;
    let mut rows = crate::scratch::take_i32(span + 7);
    for (plane, out) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(oh * ow)) {
        for (oy, orow) in out.chunks_exact_mut(ow).enumerate() {
            // The window's input rows, from the first column to the last
            // one read.
            let start = oy * stride * w;
            let first = &plane[start..start + (window - 1) * w + span];
            match level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: AVX2 is guaranteed by `level`, which is always
                // clamped to `detected_simd`; `first` holds every row the
                // window reads, `span ≥ window` and `rows` holds `span + 7`.
                SimdLevel::Avx2 => unsafe {
                    x86::max_rows_avx2(&mut rows, span, first, w, window);
                    x86::max_cols_avx2(&mut rows, span, window);
                },
                _ => {
                    max_rows_scalar(&mut rows[..span], first, w, window);
                    max_cols_scalar(&mut rows[..span], window);
                }
            }
            for (o, &m) in orow.iter_mut().zip(rows.iter().step_by(stride)) {
                *o = m;
            }
        }
    }
    crate::scratch::put_i32(rows);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernel bodies. Every function here is `unsafe` on two
    //! axes: the raw-slice geometry its caller already validated, and the
    //! `#[target_feature]` contract that the CPU supports the instruction
    //! set — upheld because dispatch clamps to `detected_simd()`.

    use std::arch::x86_64::*;

    /// Reduces four 8-lane `i32` accumulators to their four lane sums.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum4_avx2(a: __m256i, b: __m256i, c: __m256i, d: __m256i) -> [i32; 4] {
        let t01 = _mm256_hadd_epi32(a, b);
        let t23 = _mm256_hadd_epi32(c, d);
        let t = _mm256_hadd_epi32(t01, t23);
        let lo = _mm256_castsi256_si128(t);
        let hi = _mm256_extracti128_si256(t, 1);
        let s = _mm_add_epi32(lo, hi);
        let mut out = [0i32; 4];
        _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, s);
        out
    }

    /// Reduces one 8-lane `i32` accumulator to its lane sum.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum1_avx2(a: __m256i) -> i32 {
        let lo = _mm256_castsi256_si128(a);
        let hi = _mm256_extracti128_si256(a, 1);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// AVX2 [`super::dot_tiles`]: 16 `i16` lanes per step, four `fast` rows
    /// per register tile sharing each `slow`-row load.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and the slice geometry checked by the safe dispatcher
    /// (`fast ≥ nf·k`, `slow ≥ ns·k`, `c ≥ (ns−1)·stride + nf`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_tiles_avx2(
        k: usize,
        fast: &[i16],
        nf: usize,
        slow: &[i16],
        ns: usize,
        c: &mut [i32],
        stride: usize,
    ) {
        let fp = fast.as_ptr();
        let sp = slow.as_ptr();
        let cp = c.as_mut_ptr();
        for s in 0..ns {
            let srow = sp.add(s * k);
            let crow = cp.add(s * stride);
            let mut f = 0;
            while f + 4 <= nf {
                let r0 = fp.add(f * k);
                let r1 = fp.add((f + 1) * k);
                let r2 = fp.add((f + 2) * k);
                let r3 = fp.add((f + 3) * k);
                let mut acc0 = _mm256_setzero_si256();
                let mut acc1 = _mm256_setzero_si256();
                let mut acc2 = _mm256_setzero_si256();
                let mut acc3 = _mm256_setzero_si256();
                let mut kk = 0;
                while kk + 16 <= k {
                    let sv = _mm256_loadu_si256(srow.add(kk) as *const __m256i);
                    acc0 = _mm256_add_epi32(
                        acc0,
                        _mm256_madd_epi16(sv, _mm256_loadu_si256(r0.add(kk) as *const __m256i)),
                    );
                    acc1 = _mm256_add_epi32(
                        acc1,
                        _mm256_madd_epi16(sv, _mm256_loadu_si256(r1.add(kk) as *const __m256i)),
                    );
                    acc2 = _mm256_add_epi32(
                        acc2,
                        _mm256_madd_epi16(sv, _mm256_loadu_si256(r2.add(kk) as *const __m256i)),
                    );
                    acc3 = _mm256_add_epi32(
                        acc3,
                        _mm256_madd_epi16(sv, _mm256_loadu_si256(r3.add(kk) as *const __m256i)),
                    );
                    kk += 16;
                }
                let mut sums = hsum4_avx2(acc0, acc1, acc2, acc3);
                while kk < k {
                    let sv = *srow.add(kk) as i32;
                    sums[0] = sums[0].wrapping_add(sv * *r0.add(kk) as i32);
                    sums[1] = sums[1].wrapping_add(sv * *r1.add(kk) as i32);
                    sums[2] = sums[2].wrapping_add(sv * *r2.add(kk) as i32);
                    sums[3] = sums[3].wrapping_add(sv * *r3.add(kk) as i32);
                    kk += 1;
                }
                for (t, &sum) in sums.iter().enumerate() {
                    let cv = crow.add(f + t);
                    *cv = (*cv).wrapping_add(sum);
                }
                f += 4;
            }
            while f < nf {
                let row = fp.add(f * k);
                let mut acc = _mm256_setzero_si256();
                let mut kk = 0;
                while kk + 16 <= k {
                    let sv = _mm256_loadu_si256(srow.add(kk) as *const __m256i);
                    let fv = _mm256_loadu_si256(row.add(kk) as *const __m256i);
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(sv, fv));
                    kk += 16;
                }
                let mut sum = hsum1_avx2(acc);
                while kk < k {
                    sum = sum.wrapping_add(*srow.add(kk) as i32 * *row.add(kk) as i32);
                    kk += 1;
                }
                let cv = crow.add(f);
                *cv = (*cv).wrapping_add(sum);
                f += 1;
            }
        }
    }

    /// AVX2 [`super::conv_pairs`]: filters in blocks of four, then one
    /// block of the remaining one to three.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and the slice geometry checked by the safe dispatcher.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_pairs_avx2(
        nf: usize,
        offsets: &[u32],
        wpairs: &[i32],
        plane: &[i32],
        nqp: usize,
        out: &mut [i32],
    ) {
        let np = offsets.len();
        let (wp, cp) = (wpairs.as_ptr(), out.as_mut_ptr());
        let mut f = 0;
        while f + 4 <= nf {
            conv_pairs_block::<4>(offsets, wp.add(f * np), plane.as_ptr(), nqp, cp.add(f * nqp));
            f += 4;
        }
        let (w, c) = (wp.add(f * np), cp.add(f * nqp));
        match nf - f {
            3 => conv_pairs_block::<3>(offsets, w, plane.as_ptr(), nqp, c),
            2 => conv_pairs_block::<2>(offsets, w, plane.as_ptr(), nqp, c),
            1 => conv_pairs_block::<1>(offsets, w, plane.as_ptr(), nqp, c),
            _ => {}
        }
    }

    /// `R` filters of [`conv_pairs_avx2`]: each 16-pixel block keeps
    /// `2·R` accumulators in registers across every tap pair, and each
    /// pair costs two plane loads shared by the `R` filters plus one
    /// broadcast, two `pmaddwd` and two adds per filter. Zero weight pairs
    /// are multiplied like any other: testing them costs more than the
    /// exact zero they add.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `w` must be valid for `R·np` reads, `out` for
    /// `R·nqp` writes, and `plane` for 16 reads from `offsets[t] + q` at
    /// every block start `q < nqp`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn conv_pairs_block<const R: usize>(
        offsets: &[u32],
        w: *const i32,
        plane: *const i32,
        nqp: usize,
        out: *mut i32,
    ) {
        let np = offsets.len();
        for q in (0..nqp).step_by(super::CONV_PAIR_LANES) {
            let mut acc = [[_mm256_setzero_si256(); 2]; R];
            for (t, &off) in offsets.iter().enumerate() {
                let base = plane.add(off as usize + q);
                let v0 = _mm256_loadu_si256(base as *const __m256i);
                let v1 = _mm256_loadu_si256(base.add(8) as *const __m256i);
                for (r, a) in acc.iter_mut().enumerate() {
                    let pair = _mm256_set1_epi32(*w.add(r * np + t));
                    a[0] = _mm256_add_epi32(a[0], _mm256_madd_epi16(v0, pair));
                    a[1] = _mm256_add_epi32(a[1], _mm256_madd_epi16(v1, pair));
                }
            }
            for (r, a) in acc.iter().enumerate() {
                let o = out.add(r * nqp + q);
                _mm256_storeu_si256(o as *mut __m256i, a[0]);
                _mm256_storeu_si256(o.add(8) as *mut __m256i, a[1]);
            }
        }
    }

    /// AVX2 [`super::gemm_tile_f32`]: 4-row × 8-lane register tile, each
    /// element accumulating ascending `k` with separate multiply then add
    /// (bit-identical to the scalar kernel).
    ///
    /// # Safety
    ///
    /// Same pointer/stride contract as [`super::gemm_tile_f32`]; requires
    /// AVX2.
    #[allow(clippy::too_many_arguments)] // flat pointer+stride form keeps the hot kernel call free of view structs
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_tile_f32_avx2(
        mb: usize,
        k: usize,
        nb: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        const LANES: usize = 8;
        let mut j = 0;
        while j + LANES <= nb {
            let mut i = 0;
            while i + 4 <= mb {
                let c0 = c.add(i * ldc + j);
                let c1 = c.add((i + 1) * ldc + j);
                let c2 = c.add((i + 2) * ldc + j);
                let c3 = c.add((i + 3) * ldc + j);
                let mut acc0 = _mm256_loadu_ps(c0);
                let mut acc1 = _mm256_loadu_ps(c1);
                let mut acc2 = _mm256_loadu_ps(c2);
                let mut acc3 = _mm256_loadu_ps(c3);
                for kk in 0..k {
                    let bv = _mm256_loadu_ps(b.add(kk * ldb + j));
                    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(*a.add(i * lda + kk)), bv));
                    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(*a.add((i + 1) * lda + kk)), bv));
                    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(*a.add((i + 2) * lda + kk)), bv));
                    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(*a.add((i + 3) * lda + kk)), bv));
                }
                _mm256_storeu_ps(c0, acc0);
                _mm256_storeu_ps(c1, acc1);
                _mm256_storeu_ps(c2, acc2);
                _mm256_storeu_ps(c3, acc3);
                i += 4;
            }
            while i < mb {
                let cr = c.add(i * ldc + j);
                let mut acc = _mm256_loadu_ps(cr);
                for kk in 0..k {
                    let bv = _mm256_loadu_ps(b.add(kk * ldb + j));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(*a.add(i * lda + kk)), bv));
                }
                _mm256_storeu_ps(cr, acc);
                i += 1;
            }
            j += LANES;
        }
        if j < nb {
            // Column tail: scalar, same ascending-k mul-then-add order.
            gemm_tail_cols(mb, k, j, nb, a, lda, b, ldb, c, ldc);
        }
    }

    /// Lane `l` of a masked load or store is live when `l < lanes`: the
    /// mask is the window `[8 − lanes, 16 − lanes)` of eight all-ones words
    /// then eight zeros.
    const MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// The lane mask for a chain with `lanes` (at most 8) live lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `lanes ≤ 8`.
    #[target_feature(enable = "avx2")]
    unsafe fn lane_mask(lanes: usize) -> __m256i {
        _mm256_loadu_si256(MASKS.as_ptr().add(8 - lanes) as *const __m256i)
    }

    /// For each 4-bit mask of kept pixels, the 32-bit lanes that move each
    /// kept `(g, offset)` pair to the front, in order.
    const PACK_PAIRS: [[u32; 8]; 16] = {
        let mut table = [[0u32; 8]; 16];
        let mut mask = 0;
        while mask < 16 {
            let (mut kept, mut j) = (0, 0);
            while j < 4 {
                if mask >> j & 1 == 1 {
                    table[mask][2 * kept] = 2 * j as u32;
                    table[mask][2 * kept + 1] = 2 * j as u32 + 1;
                    kept += 1;
                }
                j += 1;
            }
            mask += 1;
        }
        table
    };

    /// AVX2 [`super::compact_terms`]: four pixels per step, their
    /// `(g, offset)` pairs interleaved into one vector, the kept pairs
    /// permuted to the front and stored whole, the end advanced by the
    /// kept count; the last `len mod 4` pixels run the scalar loop.
    ///
    /// # Safety
    ///
    /// `g`, `offsets` and `terms` must have the same length; the CPU must
    /// support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn compact_terms_avx2(
        g: &[f32],
        offsets: &[u32],
        terms: &mut [super::GradTerm],
    ) -> usize {
        assert!(
            g.len() == offsets.len() && g.len() == terms.len(),
            "compaction length mismatch"
        );
        let out = terms.as_mut_ptr() as *mut f32;
        let mut live = 0;
        let quads = g.len() / 4;
        for q in 0..quads {
            let gv = _mm_loadu_ps(g.as_ptr().add(4 * q));
            let xv = _mm_castsi128_ps(_mm_loadu_si128(
                offsets.as_ptr().add(4 * q) as *const __m128i
            ));
            let pairs = _mm256_set_m128(_mm_unpackhi_ps(gv, xv), _mm_unpacklo_ps(gv, xv));
            let mask = _mm_movemask_ps(_mm_cmp_ps::<_CMP_NEQ_UQ>(gv, _mm_setzero_ps())) as usize;
            let perm = _mm256_loadu_si256(PACK_PAIRS[mask].as_ptr() as *const __m256i);
            // `live ≤ 4q`, so the four pairs stored end by `4q + 4 ≤ len`.
            _mm256_storeu_ps(out.add(2 * live), _mm256_permutevar8x32_ps(pairs, perm));
            live += mask.count_ones() as usize;
        }
        let tail = 4 * quads;
        live + super::compact_terms(&g[tail..], &offsets[tail..], &mut terms[live..])
    }

    /// AVX2 weight-gradient block: the `N` row chains of
    /// [`super::conv_weight_grad_image`] over one filter's terms, one
    /// 8-lane vector each, and the bias chain. Lane `l` of chain `j`
    /// accumulates `gv · x[x_j + xo + l]` for each term `(gv, xo)`; the
    /// bias chain accumulates `gv`.
    ///
    /// # Safety
    ///
    /// For every chain and term, `x` must be readable 8 floats wide at
    /// `x_j + xo`, and the chain's first `lanes` (at most 8) outputs must
    /// lie inside `dw`; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn wgrad_block_avx2<const N: usize>(
        chains: &[super::ConvChain; N],
        terms: &[super::GradTerm],
        x: *const f32,
        dw: &mut [f32],
        db: &mut f32,
    ) {
        let outs = chains.map(|ch| dw.as_mut_ptr().add(ch.out));
        let xp = chains.map(|ch| x.add(ch.x));
        let mut masks = [_mm256_setzero_si256(); N];
        let mut acc = [_mm256_setzero_ps(); N];
        for (((m, a), ch), &out) in masks.iter_mut().zip(&mut acc).zip(chains).zip(&outs) {
            *m = lane_mask(ch.lanes);
            *a = _mm256_maskload_ps(out, *m);
        }
        let mut bias = *db;
        for &super::GradTerm { g: gv, x: xo } in terms {
            let gb = _mm256_set1_ps(gv);
            for (a, p) in acc.iter_mut().zip(xp) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(gb, _mm256_loadu_ps(p.add(xo as usize))));
            }
            bias += gv;
        }
        for ((a, m), out) in acc.into_iter().zip(masks).zip(outs) {
            _mm256_maskstore_ps(out, m, a);
        }
        *db = bias;
    }

    /// AVX2 input-gradient program: [`super::dx_blocks_scalar`] with each
    /// block's four contributions in two vectors each, both multiplied by
    /// one weight broadcast. Lane `l` of contribution `j` accumulates
    /// `wt[w_j + fi] · g[fi·plane + g_j + l]` for `fi` ascending from
    /// `+0.0`.
    ///
    /// # Safety
    ///
    /// As [`super::dx_blocks_scalar`]; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dx_blocks_avx2(
        slots: &[super::DxSlot],
        f: usize,
        plane: usize,
        wt: &[f32],
        g: &[f32],
        acc: &mut [[f32; super::DX_LANES]],
    ) {
        const N: usize = super::DX_CHAINS;
        let (wt, g) = (wt.as_ptr(), g.as_ptr());
        for block in slots.chunks_exact(N) {
            let block: &[super::DxSlot; N] = block.try_into().expect("whole block");
            let wp = block.map(|sl| wt.add(sl.w));
            let gp = block.map(|sl| g.add(sl.g));
            let mut lo = [_mm256_setzero_ps(); N];
            let mut hi = [_mm256_setzero_ps(); N];
            for fi in 0..f {
                let off = fi * plane;
                for (((l, h), w), p) in lo.iter_mut().zip(&mut hi).zip(wp).zip(gp) {
                    let wb = _mm256_set1_ps(*w.add(fi));
                    *l = _mm256_add_ps(*l, _mm256_mul_ps(wb, _mm256_loadu_ps(p.add(off))));
                    *h = _mm256_add_ps(*h, _mm256_mul_ps(wb, _mm256_loadu_ps(p.add(off + 8))));
                }
            }
            for ((l, h), slot) in lo.into_iter().zip(hi).zip(block) {
                let a = acc.as_mut_ptr().add(slot.acc) as *mut f32;
                _mm256_storeu_ps(a, _mm256_add_ps(_mm256_loadu_ps(a), l));
                _mm256_storeu_ps(a.add(8), _mm256_add_ps(_mm256_loadu_ps(a.add(8)), h));
            }
        }
    }

    /// AVX2 forward chains: the eight chains of
    /// [`super::ConvForward::run`] over one filter's terms, one 8-lane
    /// vector each. Lane `l` of chain `j` accumulates `w · x[x_j + t + l]`
    /// for each term `(w, t)`, then adds the bias.
    ///
    /// # Safety
    ///
    /// For every chain and term, `x` must be readable 8 floats wide at
    /// `x_j + t`, and the chain's first `lanes` outputs must lie inside
    /// `out`; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward8_avx2(
        chains: &[super::ConvChain; super::CONV_CHAINS],
        terms: &[(f32, usize)],
        bias: Option<f32>,
        x: *const f32,
        out: &mut [f32],
    ) {
        let xp = chains.map(|ch| x.add(ch.x));
        let mut acc = [_mm256_setzero_ps(); super::CONV_CHAINS];
        for &(wv, t) in terms {
            let wb = _mm256_set1_ps(wv);
            for (a, p) in acc.iter_mut().zip(xp) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(wb, _mm256_loadu_ps(p.add(t))));
            }
        }
        for (a, ch) in acc.into_iter().zip(chains) {
            let a = match bias {
                Some(b) => _mm256_add_ps(a, _mm256_set1_ps(b)),
                None => a,
            };
            assert!(ch.lanes <= 8 && ch.out + ch.lanes <= out.len(), "forward store overruns");
            if ch.lanes == 8 {
                _mm256_storeu_ps(out.as_mut_ptr().add(ch.out), a);
            } else {
                _mm256_maskstore_ps(out.as_mut_ptr().add(ch.out), lane_mask(ch.lanes), a);
            }
        }
    }

    /// Scalar column tail of the f32 tile: columns `j0..nb`, every
    /// row, ascending `k`, separate multiply then add.
    ///
    /// # Safety
    ///
    /// Same pointer/stride contract as [`super::gemm_tile_f32`].
    #[allow(clippy::too_many_arguments)] // flat pointer+stride form matches its callers
    unsafe fn gemm_tail_cols(
        mb: usize,
        k: usize,
        j0: usize,
        nb: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        for i in 0..mb {
            for j in j0..nb {
                let cv = c.add(i * ldc + j);
                let mut acc = *cv;
                for kk in 0..k {
                    acc += *a.add(i * lda + kk) * *b.add(kk * ldb + j);
                }
                *cv = acc;
            }
        }
    }

    /// AVX2 [`super::ifc_counts`] over a multiple of sixteen neurons, at
    /// most `super::IFC_BLOCK`: eight counts per register, two registers
    /// per step sharing each threshold's broadcast. Every count starts at
    /// `thresholds.len()` and is advanced by `cmpgt(t, y)` for each
    /// threshold; the tallies add in vector lanes in the same pass.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `counts.len() == acc.len() ≤ IFC_BLOCK`, `acc.len()`
    /// a multiple of 16 and `thresholds.len() ≤ u16::MAX`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ifc_counts_avx2(
        acc: &[i32],
        thresholds: &[i32],
        counts: &mut [i32],
    ) -> (u64, u64) {
        let top = _mm256_set1_epi32(thresholds.len() as i32);
        let (ap, cp) = (acc.as_ptr(), counts.as_mut_ptr());
        let mut spikes = _mm256_setzero_si256();
        let mut saturated = _mm256_setzero_si256();
        for i in (0..acc.len()).step_by(super::IFC_STEP) {
            let y0 = _mm256_loadu_si256(ap.add(i) as *const __m256i);
            let y1 = _mm256_loadu_si256(ap.add(i + 8) as *const __m256i);
            let (mut c0, mut c1) = (top, top);
            for &t in thresholds {
                let tv = _mm256_set1_epi32(t);
                c0 = _mm256_add_epi32(c0, _mm256_cmpgt_epi32(tv, y0));
                c1 = _mm256_add_epi32(c1, _mm256_cmpgt_epi32(tv, y1));
            }
            _mm256_storeu_si256(cp.add(i) as *mut __m256i, c0);
            _mm256_storeu_si256(cp.add(i + 8) as *mut __m256i, c1);
            spikes = _mm256_add_epi32(spikes, _mm256_add_epi32(c0, c1));
            let full = _mm256_add_epi32(_mm256_cmpeq_epi32(c0, top), _mm256_cmpeq_epi32(c1, top));
            saturated = _mm256_sub_epi32(saturated, full);
        }
        (hsum1_avx2(spikes) as u64, hsum1_avx2(saturated) as u64)
    }

    /// AVX2 [`super::max_rows_scalar`] over `rows[..span]`: eight columns
    /// per step, the `vpmaxsd` of the window's rows, stored whole. The
    /// last step masks its loads to the lanes before `span` and stores
    /// past it into the buffer's slack: the column step's overlapping
    /// loads then read plain stores back (with a masked last store the
    /// LeNet pool measured about 20% slower).
    ///
    /// # Safety
    ///
    /// Requires AVX2, `window ≥ 1`, `rows.len() ≥ span + 7` and
    /// `first.len() ≥ (window − 1)·w + span`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn max_rows_avx2(
        rows: &mut [i32],
        span: usize,
        first: &[i32],
        w: usize,
        window: usize,
    ) {
        let (rp, sp) = (rows.as_mut_ptr(), first.as_ptr());
        let mut x = 0;
        while x < span {
            let mask = lane_mask((span - x).min(8));
            let mut m = _mm256_maskload_epi32(sp.add(x), mask);
            for ky in 1..window {
                m = _mm256_max_epi32(m, _mm256_maskload_epi32(sp.add(ky * w + x), mask));
            }
            _mm256_storeu_si256(rp.add(x) as *mut __m256i, m);
            x += 8;
        }
    }

    /// AVX2 [`super::max_cols_scalar`] over `rows[..span]`: eight window
    /// starts per step, the `vpmaxsd` of `window` unaligned loads, stored
    /// over the first of them. Lanes past the last start compute from and
    /// into the buffer's slack, which nothing reads; ascending steps read
    /// only entries no earlier step wrote.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `1 ≤ window ≤ span` and `rows.len() ≥ span + 7`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn max_cols_avx2(rows: &mut [i32], span: usize, window: usize) {
        let starts = span - window + 1;
        let p = rows.as_mut_ptr();
        let mut x = 0;
        while x < starts {
            let mut m = _mm256_loadu_si256(p.add(x) as *const __m256i);
            for kx in 1..window {
                m = _mm256_max_epi32(m, _mm256_loadu_si256(p.add(x + kx) as *const __m256i));
            }
            _mm256_storeu_si256(p.add(x) as *mut __m256i, m);
            x += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *seed >> 33
    }

    #[test]
    fn level_order_and_clamp() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        // A scoped request above detection clamps instead of faulting.
        with_simd_level(SimdLevel::Avx2, || {
            assert_eq!(simd_level(), SimdLevel::Avx2.min(detected_simd()));
        });
        with_simd_level(SimdLevel::Scalar, || {
            assert_eq!(simd_level(), SimdLevel::Scalar);
        });
    }

    #[test]
    fn with_simd_level_scopes_and_restores() {
        let outer = simd_level();
        let inner = with_simd_level(SimdLevel::Scalar, simd_level);
        assert_eq!(inner, SimdLevel::Scalar);
        assert_eq!(simd_level(), outer);
        let caught = std::panic::catch_unwind(|| {
            with_simd_level(SimdLevel::Scalar, || panic!("boom"))
        });
        assert!(caught.is_err());
        assert_eq!(simd_level(), outer);
    }

    #[test]
    fn dot_tiles_matches_scalar_at_every_level() {
        let mut seed = 3u64;
        for &(k, nf, ns) in &[(0, 1, 1), (1, 1, 1), (7, 3, 2), (16, 4, 4), (33, 9, 5), (48, 13, 3)] {
            let fast: Vec<i16> =
                (0..nf * k).map(|_| (pseudo(&mut seed) % 255) as i16 - 127).collect();
            let slow: Vec<i16> = (0..ns * k).map(|_| (pseudo(&mut seed) % 256) as i16).collect();
            let stride = nf + 2; // wider-than-nf stride must be respected
            let init: Vec<i32> =
                (0..ns * stride).map(|_| (pseudo(&mut seed) % 100) as i32 - 50).collect();
            let mut want = init.clone();
            dot_tiles_scalar(k, &fast, nf, &slow, ns, &mut want, stride);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                let level = level.min(detected_simd());
                let mut got = init.clone();
                dot_tiles(level, k, &fast, nf, &slow, ns, &mut got, stride);
                assert_eq!(got, want, "level={level:?} k={k} nf={nf} ns={ns}");
            }
        }
    }

    #[test]
    fn gemm_tile_matches_scalar_bitwise_at_every_level() {
        let mut seed = 11u64;
        for &(m, k, n) in &[(1, 1, 1), (4, 16, 8), (5, 17, 11), (9, 3, 21), (3, 40, 4)] {
            let a: Vec<f32> =
                (0..m * k).map(|_| (pseudo(&mut seed) % 2000) as f32 / 900.0 - 1.0).collect();
            let b: Vec<f32> =
                (0..k * n).map(|_| (pseudo(&mut seed) % 2000) as f32 / 900.0 - 1.0).collect();
            let init: Vec<f32> = (0..m * n).map(|_| (pseudo(&mut seed) % 7) as f32).collect();
            let mut want = init.clone();
            // SAFETY: dense panels, strides equal the row lengths.
            unsafe {
                gemm_tile_f32_scalar(m, k, n, a.as_ptr(), k, b.as_ptr(), n, want.as_mut_ptr(), n);
            }
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                let level = level.min(detected_simd());
                let mut got = init.clone();
                // SAFETY: dense panels, strides equal the row lengths.
                unsafe {
                    gemm_tile_f32(level, m, k, n, a.as_ptr(), k, b.as_ptr(), n, got.as_mut_ptr(), n);
                }
                for (x, y) in got.iter().zip(want.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "level={level:?} m={m} k={k} n={n}");
                }
            }
        }
    }

    /// The engine's count before the kernel: a binary search over one
    /// filter's ascending thresholds.
    fn partition_point_counts(acc: &[i32], thresholds: &[i32]) -> (Vec<i32>, u64, u64) {
        let counts: Vec<i32> =
            acc.iter().map(|&y| thresholds.partition_point(|&t| t <= y) as i32).collect();
        let spikes = counts.iter().map(|&c| c as u64).sum();
        let saturated = counts.iter().filter(|&&c| c as usize >= thresholds.len()).count() as u64;
        (counts, spikes, saturated)
    }

    #[test]
    fn ifc_counts_matches_partition_point_at_every_level() {
        let mut seed = 17u64;
        // The engine's accumulators lie in ±`max_abs_accum`; its thresholds
        // inside that range or at the `i32::MAX` "unreachable" sentinel.
        let bound = 1000i32;
        for max_level in [3usize, 15, 255] {
            // 1..=17 covers the tail alone and one step plus a tail; 47 is
            // two steps and the longest tail.
            for len in (1..=17usize).chain([32, 47]) {
                for trial in 0..4 {
                    // Coarse values repeat, so rows carry duplicate thresholds;
                    // about half of them are negative.
                    let mut thresholds: Vec<i32> = (0..max_level)
                        .map(|_| (pseudo(&mut seed) % 41) as i32 * 50 - bound)
                        .collect();
                    thresholds.sort_unstable();
                    let unreachable = trial * max_level / 4;
                    for t in thresholds.iter_mut().rev().take(unreachable) {
                        *t = i32::MAX;
                    }
                    let mut acc: Vec<i32> = (0..len)
                        .map(|_| (pseudo(&mut seed) % (2 * bound as u64 + 1)) as i32 - bound)
                        .collect();
                    // Pin the range ends and values on and just below a
                    // threshold.
                    let t = thresholds[(pseudo(&mut seed) as usize) % max_level];
                    let pins = [bound, -bound, t, t.saturating_sub(1)];
                    for (a, &p) in acc.iter_mut().zip(&pins) {
                        *a = p;
                    }
                    let (want, spikes, saturated) = partition_point_counts(&acc, &thresholds);
                    for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                        let level = level.min(detected_simd());
                        let mut got = vec![-7; len];
                        let tally = ifc_counts(level, &acc, &thresholds, &mut got);
                        let ctx = format!("level={level:?} M={max_level} len={len} trial={trial}");
                        assert_eq!(got, want, "{ctx}");
                        assert_eq!(tally, (spikes, saturated), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn ifc_counts_tallies_rows_longer_than_a_block() {
        // Every neuron saturates: the largest tally a row of this length
        // can carry, across the `IFC_BLOCK` split.
        let thresholds: Vec<i32> = (0..255).map(|c| c * 3 - 300).collect();
        let len = IFC_BLOCK + 11;
        let acc = vec![1 << 23; len];
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let level = level.min(detected_simd());
            let mut got = vec![0; len];
            let tally = ifc_counts(level, &acc, &thresholds, &mut got);
            assert!(got.iter().all(|&c| c == 255), "level={level:?}");
            assert_eq!(tally, (255 * len as u64, len as u64), "level={level:?}");
        }
    }

    /// The engine's max-pool before the kernel: every window scanned
    /// element by element.
    fn window_loop_pool(
        src: &[i32],
        planes: usize,
        (h, w): (usize, usize),
        window: usize,
        stride: usize,
    ) -> Vec<i32> {
        let (oh, ow) = ((h - window) / stride + 1, (w - window) / stride + 1);
        let mut out = vec![0; planes * oh * ow];
        for ch in 0..planes {
            let plane = &src[ch * h * w..(ch + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = i32::MIN;
                    for ky in 0..window {
                        for kx in 0..window {
                            best = best.max(plane[(oy * stride + ky) * w + ox * stride + kx]);
                        }
                    }
                    out[(ch * oh + oy) * ow + ox] = best;
                }
            }
        }
        out
    }

    #[test]
    fn max_pool_matches_window_loop_at_every_level() {
        let mut seed = 23u64;
        for &(h, w) in &[(1, 1), (2, 2), (5, 5), (6, 6), (7, 4), (9, 13), (24, 24), (8, 25)] {
            for &(window, stride) in &[(1, 1), (2, 2), (3, 2), (2, 1), (3, 3), (3, 1), (4, 3)] {
                if h < window || w < window {
                    continue;
                }
                for planes in [1usize, 3] {
                    let src: Vec<i32> = (0..planes * h * w)
                        .map(|i| match pseudo(&mut seed) % 16 {
                            0 => i32::MIN,
                            1 => i32::MAX,
                            // Few distinct values, so windows hold ties.
                            _ => (pseudo(&mut seed) % 9) as i32 - 4 + (i % 3) as i32,
                        })
                        .collect();
                    let want = window_loop_pool(&src, planes, (h, w), window, stride);
                    for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                        let level = level.min(detected_simd());
                        let mut got = vec![0; want.len()];
                        max_pool(level, &src, planes, (h, w), window, stride, &mut got);
                        let ctx =
                            format!("{h}x{w} window={window} stride={stride} planes={planes}");
                        assert_eq!(got, want, "level={level:?} {ctx}");
                    }
                }
            }
        }
    }
}
