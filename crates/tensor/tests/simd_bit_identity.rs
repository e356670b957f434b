//! Bit-identity of every SIMD micro-kernel against the scalar serial oracle.
//!
//! The SIMD dispatch contract is absolute: whatever [`SimdLevel`] resolves —
//! forced scalar or AVX2 — the integer GEMMs produce the
//! same `i32` words and the f32 GEMM the same bit patterns, at any thread
//! count. These properties drive adversarial shapes (0, 1, and
//! non-multiples of the 8/16-lane widths), operands at the i8 coding
//! extremes ±127, spike counts at the saturation ceiling 255, counts past
//! `i16::MAX` (exercising the widening fallback), and deliberately
//! unaligned subslices, and pin every available level against a scalar
//! single-threaded run of the same entry point. The integer convolution,
//! whose tiers share one plan, is pinned against a direct-conv loop
//! instead.

use proptest::prelude::*;
use qsnc_tensor::{
    gemm, gemm_serial, igemm, igemm_conv, parallel, simd, Conv2dSpec, PackedCodes, SimdLevel,
};
use rand::{Rng, SeedableRng};

/// SIMD levels above scalar that this machine can actually execute.
fn hw_levels() -> Vec<SimdLevel> {
    let top = simd::detected_simd();
    [SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= top)
        .collect()
}

/// Spike-count matrix in `0..=255` with the extremes forced into the
/// leading slots, so every run covers the saturation ceiling and zero.
fn counts(len: usize, rng: &mut rand::rngs::StdRng) -> Vec<i32> {
    let mut v: Vec<i32> = (0..len).map(|_| rng.gen_range(0..=255)).collect();
    if len > 0 {
        v[0] = 255;
    }
    if len > 1 {
        v[1] = 0;
    }
    v
}

/// Weight codes in `-127..=127` with both extremes forced in.
fn codes(len: usize, rng: &mut rand::rngs::StdRng) -> Vec<i32> {
    let mut v: Vec<i32> = (0..len).map(|_| rng.gen_range(-127..=127)).collect();
    if len > 0 {
        v[0] = 127;
    }
    if len > 1 {
        v[1] = -127;
    }
    v
}

/// Copies `data` into a fresh buffer at byte offset `1 × size_of::<T>()`
/// from the allocation start, returning the buffer; slicing `[1..]` yields
/// a view that is guaranteed not to share the Vec's natural alignment
/// phase, so the kernels' unaligned loads/stores are actually exercised.
fn offset_copy<T: Copy + Default>(data: &[T]) -> Vec<T> {
    let mut buf = vec![T::default(); data.len() + 1];
    buf[1..].copy_from_slice(data);
    buf
}

/// The convolution by its definition, independent of every lowering:
/// `out[f, oy, ox] = Σ w[f, ic, ky, kx] · x[ic, oy·s + ky − p, ox·s + kx − p]`
/// over the taps inside the image, as `[out_c, oh·ow]`.
fn direct_conv(
    src: &[i32],
    c: usize,
    (h, w): (usize, usize),
    spec: Conv2dSpec,
    codes: &[i32],
    out_c: usize,
) -> Vec<i32> {
    let (k, s, pad) = (spec.kernel, spec.stride, spec.padding);
    let (oh, ow) = (spec.output_size(h), spec.output_size(w));
    let mut out = vec![0i32; out_c * oh * ow];
    for f in 0..out_c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0;
                for ic in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let (y, x) = (oy * s + ky, ox * s + kx);
                            if y < pad || y >= h + pad || x < pad || x >= w + pad {
                                continue;
                            }
                            let wv = codes[((f * c + ic) * k + ky) * k + kx];
                            acc += wv * src[(ic * h + y - pad) * w + x - pad];
                        }
                    }
                }
                out[(f * oh + oy) * ow + ox] = acc;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn igemm_matches_scalar_at_every_level_and_thread_count(
        // Spans 0, 1, and non-multiples of the 8- and 16-lane widths.
        m in 0usize..35, k in 0usize..35, n in 0usize..19,
        seed in 0u64..10_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = counts(m * k, &mut rng);
        let w = codes(n * k, &mut rng);
        let packed = PackedCodes::try_pack(&w, n, k).expect("codes fit i8");

        let mut oracle = vec![0i32; m * n];
        simd::with_simd_level(SimdLevel::Scalar, || {
            parallel::with_num_threads(1, || igemm(m, k, n, &a, &packed, &mut oracle));
        });

        for level in hw_levels() {
            for threads in [1usize, 4] {
                let mut c = vec![0i32; m * n];
                simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || {
                        igemm(m, k, n, &a, &packed, &mut c)
                    });
                });
                prop_assert_eq!(
                    &c, &oracle,
                    "igemm diverged at {:?} x {} threads (m={} k={} n={})",
                    level, threads, m, k, n
                );
            }
        }
    }

    /// Every level, the scalar tier included, against the direct-conv
    /// oracle: kernels 1–5, strides 1–3 and padding 0–2 (so the plan's
    /// stride-phase split meets every phase count it serves), and 1–9
    /// filters, so every remainder block of the four-filter AVX2 kernel
    /// runs. Counts reach 255, `i16::MAX`, or one past it, which the plan
    /// must run tap by tap at every level.
    #[test]
    fn igemm_conv_matches_scalar_at_every_level(
        in_c in 1usize..=4, h in 1usize..=11, w in 1usize..=11,
        kernel in 1usize..=5, stride in 1usize..=3, padding in 0usize..=2,
        out_c in 1usize..=9,
        magnitude in 0usize..3,
        seed in 0u64..10_000,
    ) {
        prop_assume!(h + 2 * padding >= kernel && w + 2 * padding >= kernel);
        let max_count = [255, i16::MAX as i32, i16::MAX as i32 + 1][magnitude];
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let pix = spec.output_size(h) * spec.output_size(w);
        let ckk = in_c * kernel * kernel;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut src: Vec<i32> = (0..in_c * h * w).map(|_| rng.gen_range(0..=max_count)).collect();
        src[0] = max_count;
        let wcodes = codes(out_c * ckk, &mut rng);
        let packed = PackedCodes::try_pack(&wcodes, out_c, ckk).expect("codes fit i8");
        let oracle = direct_conv(&src, in_c, (h, w), spec, &wcodes, out_c);

        for level in std::iter::once(SimdLevel::Scalar).chain(hw_levels()) {
            for threads in [1usize, 4] {
                let mut c = vec![0i32; out_c * pix];
                simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || {
                        igemm_conv(&src, in_c, (h, w), spec, &packed, &mut c)
                    });
                });
                prop_assert_eq!(
                    &c, &oracle,
                    "igemm_conv diverged at {:?} x {} threads ({}x{}x{} k{} s{} p{} max {})",
                    level, threads, in_c, h, w, kernel, stride, padding, max_count
                );
            }
        }
    }

    #[test]
    fn counts_past_i16_fall_back_bit_identically(
        // Values beyond i16::MAX cannot take the widened SIMD path; the
        // kernels must detect that per call and the scalar fallback must
        // agree with the forced-scalar oracle exactly.
        m in 1usize..8, k in 1usize..8, n in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a: Vec<i32> = (0..m * k).map(|_| rng.gen_range(0..=40_000)).collect();
        a[0] = 40_000; // definitely > i16::MAX
        let w = codes(n * k, &mut rng);
        let packed = PackedCodes::try_pack(&w, n, k).expect("codes fit i8");

        let mut oracle = vec![0i32; m * n];
        simd::with_simd_level(SimdLevel::Scalar, || {
            igemm(m, k, n, &a, &packed, &mut oracle)
        });
        for level in hw_levels() {
            let mut c = vec![0i32; m * n];
            simd::with_simd_level(level, || igemm(m, k, n, &a, &packed, &mut c));
            prop_assert_eq!(&c, &oracle, "i16 fallback diverged at {:?}", level);
        }

        // The same counts as an `[k, 3, 3]` image under a 1×1 conv with
        // padding 1: the conv plan must detect the wide counts too.
        let spec = Conv2dSpec::new(1, 1, 1);
        let img: Vec<i32> = (0..k * 9).map(|i| a[i % a.len()]).collect();
        let pix = spec.output_size(3) * spec.output_size(3);
        let mut conv_oracle = vec![0i32; n * pix];
        simd::with_simd_level(SimdLevel::Scalar, || {
            igemm_conv(&img, k, (3, 3), spec, &packed, &mut conv_oracle)
        });
        for level in hw_levels() {
            let mut c = vec![0i32; n * pix];
            simd::with_simd_level(level, || {
                igemm_conv(&img, k, (3, 3), spec, &packed, &mut c)
            });
            prop_assert_eq!(&c, &conv_oracle, "conv i16 fallback diverged at {:?}", level);
        }
    }

    #[test]
    fn unaligned_subslices_are_bit_identical(
        m in 1usize..20, k in 1usize..40, n in 1usize..20,
        seed in 0u64..10_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = counts(m * k, &mut rng);
        let w = codes(n * k, &mut rng);
        let packed = PackedCodes::try_pack(&w, n, k).expect("codes fit i8");

        let mut oracle = vec![0i32; m * n];
        simd::with_simd_level(SimdLevel::Scalar, || {
            igemm(m, k, n, &a, &packed, &mut oracle)
        });

        // Shift the count matrix and the output off the Vec's natural
        // alignment: the kernels take arbitrary slices and must not assume
        // 16/32-byte alignment anywhere.
        let a_buf = offset_copy(&a);
        for level in hw_levels() {
            let mut c_buf = vec![0i32; m * n + 1];
            simd::with_simd_level(level, || {
                igemm(m, k, n, &a_buf[1..], &packed, &mut c_buf[1..])
            });
            prop_assert_eq!(&c_buf[1..], &oracle[..], "unaligned igemm diverged at {:?}", level);
        }
    }

    #[test]
    fn f32_gemm_is_bitwise_identical_across_levels_and_threads(
        m in 0usize..22, k in 0usize..22, n in 0usize..22,
        seed in 0u64..10_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();

        let mut oracle = vec![0.0f32; m * n];
        simd::with_simd_level(SimdLevel::Scalar, || {
            parallel::with_num_threads(1, || gemm(m, k, n, &a, &b, &mut oracle));
        });

        for level in hw_levels() {
            for threads in [1usize, 3] {
                let mut c = vec![0.0f32; m * n];
                simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || gemm(m, k, n, &a, &b, &mut c));
                });
                for (i, (&x, &y)) in c.iter().zip(oracle.iter()).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "gemm[{}] diverged at {:?} x {} threads: {} vs {}",
                        i, level, threads, x, y
                    );
                }
            }
            // The serial entry point shares the same micro-kernels.
            let mut c = vec![0.0f32; m * n];
            simd::with_simd_level(level, || gemm_serial(m, k, n, &a, &b, &mut c));
            for (&x, &y) in c.iter().zip(oracle.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

/// The `f32` GEMM has no zero-skip branch: on a left operand that is
/// mostly exact zeros (quantized ReLU activations) every `0 · b` term is
/// still added. From a `+0.0` output that changes no bit, so every level and
/// thread count must match both the scalar single-thread run and a
/// reference loop that skips those terms. The shapes are the LeNet fully
/// connected products of a batch-32 training step (forward, weight and
/// input gradient), which cross the parallel split, plus odd edges; the
/// right operand is signed, so skipped terms would have been `±0`.
#[test]
fn f32_gemm_on_mostly_zero_lhs_matches_scalar_bitwise() {
    let shapes =
        [(32, 200, 42), (42, 32, 200), (32, 42, 200), (32, 42, 10), (7, 13, 9), (1, 70, 5)];
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for &(m, k, n) in &shapes {
        // Two-thirds exact zeros, whole zero rows included; the rest signed.
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                if i / k % 5 == 4 || rng.gen_range(0..3) > 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect();
        let zeros = a.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros * 10 >= a.len() * 6 && a.iter().any(|&v| v < 0.0), "m={m} k={k}");
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();

        let mut skipped = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let av = a[i * k + kk];
                    if av != 0.0 {
                        acc += av * b[kk * n + j];
                    }
                }
                skipped[i * n + j] = acc;
            }
        }
        let mut oracle = vec![0.0f32; m * n];
        simd::with_simd_level(SimdLevel::Scalar, || {
            parallel::with_num_threads(1, || gemm(m, k, n, &a, &b, &mut oracle));
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&oracle), bits(&skipped), "zero terms moved a bit (m={m} k={k} n={n})");

        for level in std::iter::once(SimdLevel::Scalar).chain(hw_levels()) {
            for threads in [1usize, 2, 3] {
                let mut c = vec![0.0f32; m * n];
                simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || gemm(m, k, n, &a, &b, &mut c));
                });
                assert_eq!(
                    bits(&c),
                    bits(&oracle),
                    "gemm diverged at {level:?} x {threads} threads (m={m} k={k} n={n})"
                );
            }
        }
    }
}

/// Deterministic spot check that every SIMD level computes the direct
/// convolution, accumulating into a non-zero output (the GEMMs add into
/// `c`). The geometries are the served LeNet's two conv layers — wide
/// rows of many 16-pixel blocks, which the small proptest planes reach
/// only a few of — plus a stride-2 case for the phase-split plane.
#[test]
fn conv_simd_accumulates_like_scalar() {
    // (in_c, h, w, out_c, kernel, stride, padding)
    let geometries = [
        (1usize, 28usize, 28usize, 3usize, 5usize, 1usize, 2usize),
        (3, 14, 14, 8, 5, 1, 0),
        (3, 17, 12, 16, 5, 2, 2),
    ];
    for (in_c, h, w, out_c, kernel, stride, padding) in geometries {
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let pix = spec.output_size(h) * spec.output_size(w);
        let ckk = in_c * kernel * kernel;

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let src = counts(in_c * h * w, &mut rng);
        let wcodes = codes(out_c * ckk, &mut rng);
        let packed = PackedCodes::try_pack(&wcodes, out_c, ckk).expect("codes fit i8");

        // Non-zero starting accumulator: both paths must add, not overwrite.
        let bias: Vec<i32> = (0..out_c * pix).map(|i| (i as i32 % 97) - 48).collect();

        let direct = direct_conv(&src, in_c, (h, w), spec, &wcodes, out_c);
        let oracle: Vec<i32> = bias.iter().zip(&direct).map(|(&b, &d)| b + d).collect();
        for level in std::iter::once(SimdLevel::Scalar).chain(hw_levels()) {
            let mut c = bias.clone();
            simd::with_simd_level(level, || {
                igemm_conv(&src, in_c, (h, w), spec, &packed, &mut c)
            });
            assert_eq!(
                c, oracle,
                "accumulating conv diverged at {level:?} ({in_c}x{h}x{w} k{kernel} s{stride} p{padding})"
            );
        }
    }
}
