//! Explicit SSE2/AVX2 span implementations (`simd` feature,
//! `x86_64` only).
//!
//! Each function computes the *identical operation sequence* as the
//! scalar spans in [`super::scalar`], lane-parallel:
//!
//! * `add`/`sub`/`mul`/`div`/`sqrt` are IEEE correctly rounded per lane,
//!   so any lane width produces the scalar bits for elementwise code.
//! * `math::fmin(a, b)` = `if b < a { b } else { a }` is exactly
//!   `minps(b, a)` (the hardware op returns its *second* operand when
//!   either input is NaN or both are ±0 — operand-swapped, that is the
//!   select-form semantics). Same for `fmax`/`maxps`.
//! * `f32::abs` is the bitwise and with `0x7FFF_FFFF`.
//! * Scalar `if p < mn { a } else { b }` becomes an ordered-quiet
//!   compare (`cmplt`/`_CMP_LT_OQ`: NaN → false, matching the scalar
//!   branch) plus a bitwise select.
//! * FMA is **never** used: `#[target_feature(enable = "avx2")]` does not
//!   enable `fma`, and contraction would change the rounding.
//!
//! Remainder elements (span length not a multiple of the lane width) run
//! through the scalar span, which computes the same bits.

use super::scalar;

/// Generates one full span backend at a given lane width. The algorithm
/// bodies are written once; the SSE2/AVX2 modules differ only in the
/// intrinsic names, lane count and compare spelling supplied here.
macro_rules! span_backend {
    (
        $modname:ident, $backend:ident, $feat:literal, $vec:ty, $lanes:expr,
        $loadu:ident, $storeu:ident, $set1:ident,
        $add:ident, $sub:ident, $mul:ident, $div:ident, $sqrt:ident,
        $min:ident, $max:ident, $and:ident, $or:ident, $andnot:ident,
        $set1i:ident, $casti:ident,
        { $($cmp_helpers:tt)* }
    ) => {
        pub(crate) mod $modname {
            use core::arch::x86_64::*;

            use super::scalar;

            $($cmp_helpers)*

            /// The backend these spans implement, as the span dispatch
            /// reaches it.
            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn backend() -> super::super::Backend {
                super::super::Backend::$backend
            }

            /// `f32::abs` per lane: clear the sign bit.
            #[target_feature(enable = $feat)]
            fn vabs(v: $vec) -> $vec {
                $and(v, $casti($set1i(0x7FFF_FFFF)))
            }

            /// Bitwise select: mask lanes of all-ones pick `a`, zeros `b`.
            #[target_feature(enable = $feat)]
            fn vselect(mask: $vec, a: $vec, b: $vec) -> $vec {
                $or($and(mask, a), $andnot(mask, b))
            }

            /// `math::fmin` per lane (operand-swapped `minps`).
            #[target_feature(enable = $feat)]
            fn vfmin(a: $vec, b: $vec) -> $vec {
                $min(b, a)
            }

            /// `math::fmax` per lane (operand-swapped `maxps`).
            #[target_feature(enable = $feat)]
            fn vfmax(a: $vec, b: $vec) -> $vec {
                $max(b, a)
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn sobel_span(
                r0: &[f32],
                r1: &[f32],
                r2: &[f32],
                out: &mut [f32],
            ) {
                let n = out.len();
                let (r0, r1, r2) = (&r0[..n + 2], &r1[..n + 2], &r2[..n + 2]);
                let two = $set1(2.0);
                let mut i = 0;
                while i + $lanes <= n {
                    // SAFETY: i + $lanes + 2 <= n + 2 bounds every row
                    // load; `out` holds $lanes elements at `i`.
                    unsafe {
                        let a0 = $loadu(r0.as_ptr().add(i));
                        let a1 = $loadu(r1.as_ptr().add(i));
                        let a2 = $loadu(r2.as_ptr().add(i));
                        let b0 = $loadu(r0.as_ptr().add(i + 1));
                        let b2 = $loadu(r2.as_ptr().add(i + 1));
                        let c0 = $loadu(r0.as_ptr().add(i + 2));
                        let c1 = $loadu(r1.as_ptr().add(i + 2));
                        let c2 = $loadu(r2.as_ptr().add(i + 2));
                        let gx = $sub(
                            $add($add(c0, $mul(two, c1)), c2),
                            $add($add(a0, $mul(two, a1)), a2),
                        );
                        let gy = $sub(
                            $add($add(a2, $mul(two, b2)), c2),
                            $add($add(a0, $mul(two, b0)), c0),
                        );
                        $storeu(out.as_mut_ptr().add(i), $add(vabs(gx), vabs(gy)));
                    }
                    i += $lanes;
                }
                scalar::sobel_span(&r0[i..], &r1[i..], &r2[i..], &mut out[i..]);
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn sub_span(a: &[f32], b: &[f32], out: &mut [f32]) {
                let n = out.len();
                let (a, b) = (&a[..n], &b[..n]);
                let mut i = 0;
                while i + $lanes <= n {
                    // SAFETY: i + $lanes <= n bounds all three accesses.
                    unsafe {
                        let va = $loadu(a.as_ptr().add(i));
                        let vb = $loadu(b.as_ptr().add(i));
                        $storeu(out.as_mut_ptr().add(i), $sub(va, vb));
                    }
                    i += $lanes;
                }
                scalar::sub_span(&a[i..], &b[i..], &mut out[i..]);
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn add_assign_span(acc: &mut [f32], row: &[f32]) {
                let n = acc.len();
                let row = &row[..n];
                let mut i = 0;
                while i + $lanes <= n {
                    // SAFETY: i + $lanes <= n bounds both accesses.
                    unsafe {
                        let s = $loadu(acc.as_ptr().add(i));
                        let v = $loadu(row.as_ptr().add(i));
                        $storeu(acc.as_mut_ptr().add(i), $add(s, v));
                    }
                    i += $lanes;
                }
                scalar::add_assign_span(&mut acc[i..], &row[i..]);
            }

            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn preliminary_half(
                up: &[f32],
                pe: &[f32],
                perr: &[f32],
                out: &mut [f32],
                denom: f32,
                gain: f32,
                s_max: f32,
            ) {
                let n = out.len();
                let (up, pe, perr) = (&up[..n], &pe[..n], &perr[..n]);
                let vdenom = $set1(denom);
                let vgain = $set1(gain);
                let vsmax = $set1(s_max);
                let vzero = $set1(0.0);
                let mut i = 0;
                while i + $lanes <= n {
                    // SAFETY: i + $lanes <= n bounds every access.
                    unsafe {
                        let u = $loadu(up.as_ptr().add(i));
                        let e = $loadu(pe.as_ptr().add(i));
                        let err = $loadu(perr.as_ptr().add(i));
                        let x = $div(e, vdenom);
                        let s = vfmin(vfmax($mul(vgain, $sqrt(x)), vzero), vsmax);
                        $storeu(out.as_mut_ptr().add(i), $add(u, $mul(s, err)));
                    }
                    i += $lanes;
                }
                scalar::preliminary_half(
                    &up[i..],
                    &pe[i..],
                    &perr[i..],
                    &mut out[i..],
                    denom,
                    gain,
                    s_max,
                );
            }

            /// Min/max fold of the 3×3 window columns `i..i+3`, same
            /// order as `math::minmax3x3`.
            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            fn minmax9(
                a0: $vec, b0: $vec, c0: $vec,
                a1: $vec, b1: $vec, c1: $vec,
                a2: $vec, b2: $vec, c2: $vec,
            ) -> ($vec, $vec) {
                let mut mn = a0;
                let mut mx = a0;
                for v in [b0, c0, a1, b1, c1, a2, b2, c2] {
                    mn = vfmin(mn, v);
                    mx = vfmax(mx, v);
                }
                (mn, mx)
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn overshoot_span(
                r0: &[f32],
                r1: &[f32],
                r2: &[f32],
                prelim: &[f32],
                out: &mut [f32],
                params: &crate::params::SharpnessParams,
            ) {
                let n = out.len();
                let (r0, r1, r2) = (&r0[..n + 2], &r1[..n + 2], &r2[..n + 2]);
                let prelim_s = &prelim[..n];
                let vosc = $set1(params.osc);
                let vzero = $set1(0.0);
                let v255 = $set1(255.0);
                let mut i = 0;
                while i + $lanes <= n {
                    // SAFETY: i + $lanes + 2 <= n + 2 bounds the row
                    // loads; prelim/out hold $lanes elements at `i`.
                    unsafe {
                        let a0 = $loadu(r0.as_ptr().add(i));
                        let b0 = $loadu(r0.as_ptr().add(i + 1));
                        let c0 = $loadu(r0.as_ptr().add(i + 2));
                        let a1 = $loadu(r1.as_ptr().add(i));
                        let b1 = $loadu(r1.as_ptr().add(i + 1));
                        let c1 = $loadu(r1.as_ptr().add(i + 2));
                        let a2 = $loadu(r2.as_ptr().add(i));
                        let b2 = $loadu(r2.as_ptr().add(i + 1));
                        let c2 = $loadu(r2.as_ptr().add(i + 2));
                        let (mn, mx) = minmax9(a0, b0, c0, a1, b1, c1, a2, b2, c2);
                        let p = $loadu(prelim_s.as_ptr().add(i));
                        let above = vfmin($add(mx, $mul(vosc, $sub(p, mx))), v255);
                        let below = vfmax($sub(mn, $mul(vosc, $sub(mn, p))), vzero);
                        let inside = vfmin(vfmax(p, vzero), v255);
                        let low = vselect(vlt(p, mn), below, inside);
                        $storeu(out.as_mut_ptr().add(i), vselect(vgt(p, mx), above, low));
                    }
                    i += $lanes;
                }
                scalar::overshoot_span(
                    &r0[i..],
                    &r1[i..],
                    &r2[i..],
                    &prelim_s[i..],
                    &mut out[i..],
                    params,
                );
            }

            #[target_feature(enable = $feat)]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn fused_half(
                r0: &[f32],
                r1: &[f32],
                r2: &[f32],
                up_row: &[f32],
                pe_row: &[f32],
                out_row: &mut [f32],
                denom: f32,
                gain: f32,
                s_max: f32,
                osc: f32,
            ) {
                let n = out_row.len();
                let (r0, r1, r2) = (&r0[..n + 2], &r1[..n + 2], &r2[..n + 2]);
                let (up_row, pe_row) = (&up_row[..n], &pe_row[..n]);
                let vdenom = $set1(denom);
                let vgain = $set1(gain);
                let vsmax = $set1(s_max);
                let vosc = $set1(osc);
                let vzero = $set1(0.0);
                let v255 = $set1(255.0);
                let mut i = 0;
                while i + $lanes <= n {
                    // SAFETY: i + $lanes + 2 <= n + 2 bounds the row
                    // loads; up/pe/out hold $lanes elements at `i`.
                    unsafe {
                        let a0 = $loadu(r0.as_ptr().add(i));
                        let b0 = $loadu(r0.as_ptr().add(i + 1));
                        let c0 = $loadu(r0.as_ptr().add(i + 2));
                        let a1 = $loadu(r1.as_ptr().add(i));
                        let b1 = $loadu(r1.as_ptr().add(i + 1));
                        let c1 = $loadu(r1.as_ptr().add(i + 2));
                        let a2 = $loadu(r2.as_ptr().add(i));
                        let b2 = $loadu(r2.as_ptr().add(i + 1));
                        let c2 = $loadu(r2.as_ptr().add(i + 2));
                        let (mn, mx) = minmax9(a0, b0, c0, a1, b1, c1, a2, b2, c2);
                        let u = $loadu(up_row.as_ptr().add(i));
                        let e = $loadu(pe_row.as_ptr().add(i));
                        let err = $sub(b1, u);
                        let x = $div(e, vdenom);
                        let s = vfmin(vfmax($mul(vgain, $sqrt(x)), vzero), vsmax);
                        let prelim = $add(u, $mul(s, err));
                        let above = vfmin($add(mx, $mul(vosc, $sub(prelim, mx))), v255);
                        let below = vfmax($sub(mn, $mul(vosc, $sub(mn, prelim))), vzero);
                        let inside = vfmin(vfmax(prelim, vzero), v255);
                        let low = vselect(vlt(prelim, mn), below, inside);
                        $storeu(
                            out_row.as_mut_ptr().add(i),
                            vselect(vgt(prelim, mx), above, low),
                        );
                    }
                    i += $lanes;
                }
                scalar::fused_half(
                    &r0[i..],
                    &r1[i..],
                    &r2[i..],
                    &up_row[i..],
                    &pe_row[i..],
                    &mut out_row[i..],
                    denom,
                    gain,
                    s_max,
                    osc,
                );
            }

            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn lerp_span(
                i0: f32,
                i1: f32,
                tops: &[f32],
                bots: &[f32],
                out: &mut [f32],
            ) {
                let n = out.len();
                let (tops, bots) = (&tops[..n], &bots[..n]);
                let v0 = $set1(i0);
                let v1 = $set1(i1);
                let mut i = 0;
                while i + $lanes <= n {
                    // SAFETY: i + $lanes <= n bounds all three accesses.
                    unsafe {
                        let t = $loadu(tops.as_ptr().add(i));
                        let b = $loadu(bots.as_ptr().add(i));
                        $storeu(
                            out.as_mut_ptr().add(i),
                            $add($mul(v0, t), $mul(v1, b)),
                        );
                    }
                    i += $lanes;
                }
                scalar::lerp_span(i0, i1, &tops[i..], &bots[i..], &mut out[i..]);
            }
        }
    };
}

span_backend!(
    sse2,
    Sse2,
    "sse2",
    __m128,
    4,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_set1_ps,
    _mm_add_ps,
    _mm_sub_ps,
    _mm_mul_ps,
    _mm_div_ps,
    _mm_sqrt_ps,
    _mm_min_ps,
    _mm_max_ps,
    _mm_and_ps,
    _mm_or_ps,
    _mm_andnot_ps,
    _mm_set1_epi32,
    _mm_castsi128_ps,
    {
        /// Scalar `a < b` per lane (ordered, quiet: NaN → false).
        #[target_feature(enable = "sse2")]
        fn vlt(a: __m128, b: __m128) -> __m128 {
            _mm_cmplt_ps(a, b)
        }

        /// Scalar `a > b` per lane (ordered, quiet: NaN → false).
        #[target_feature(enable = "sse2")]
        fn vgt(a: __m128, b: __m128) -> __m128 {
            _mm_cmpgt_ps(a, b)
        }
    }
);

span_backend!(
    avx2,
    Avx2,
    "avx2",
    __m256,
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_add_ps,
    _mm256_sub_ps,
    _mm256_mul_ps,
    _mm256_div_ps,
    _mm256_sqrt_ps,
    _mm256_min_ps,
    _mm256_max_ps,
    _mm256_and_ps,
    _mm256_or_ps,
    _mm256_andnot_ps,
    _mm256_set1_epi32,
    _mm256_castsi256_ps,
    {
        /// Scalar `a < b` per lane (`_CMP_LT_OQ`: NaN → false).
        #[target_feature(enable = "avx2")]
        fn vlt(a: __m256, b: __m256) -> __m256 {
            _mm256_cmp_ps::<_CMP_LT_OQ>(a, b)
        }

        /// Scalar `a > b` per lane (`_CMP_GT_OQ`: NaN → false).
        #[target_feature(enable = "avx2")]
        fn vgt(a: __m256, b: __m256) -> __m256 {
            _mm256_cmp_ps::<_CMP_GT_OQ>(a, b)
        }
    }
);
