//! Host-SIMD span backends for the hot kernel inner loops.
//!
//! The kernels (and the CPU reference stages) route their branch-free row
//! spans through the dispatchers in this module. Three backends compute
//! the *identical operation sequence*:
//!
//! * [`Backend::Autovec`] — the scalar spans in [`scalar`], written in
//!   layout-friendly form so rustc autovectorizes them. These are the
//!   source of truth; the default build ships only these.
//! * [`Backend::Sse2`] / [`Backend::Avx2`] — explicit `std::arch`
//!   intrinsics behind the `simd` cargo feature (see `x86.rs`), selected
//!   at runtime with `is_x86_feature_detected!`.
//!
//! **Bit-exactness contract.** Simulated seconds are commit-order
//! accounting and never observe the host execution strategy, but pixels
//! must also be bit-identical across backends (tests/simd.rs sweeps all
//! 64 opt configs). That holds because every span is elementwise
//! independent and uses only operations that IEEE 754 defines as
//! correctly rounded per lane (`add`/`sub`/`mul`/`div`/`sqrt`), plus
//! bitwise `abs` and the select-form `math::fmin`/`math::fmax`
//! (`if b < a { b } else { a }`), which map 1:1 onto `minps`/`maxps`
//! with swapped operands and ordered-quiet compares + bitwise selects.
//! FMA is never used — it would contract `a*b + c` into a differently
//! rounded result. `powf` (gamma ≠ 0.5) stays scalar; the gamma == 0.5
//! fast path uses `sqrt`, pinned against `powf(0.5)` by the math tests.
//!
//! This module never touches `GroupCtx` or the cost model: spans operate
//! on plain slices, and a dispatch's cost is its kernel's closed-form
//! access declaration, fixed before any span runs. `std::arch` stays in
//! this module (`scripts/lint_invariants.sh` rule 4).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::math;
use crate::params::{SharpnessParams, INTERP, SCALE};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86;

/// Which span implementation executes on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// Scalar spans compiled for the baseline target (autovectorized).
    Autovec = 0,
    /// Explicit 128-bit SSE2 intrinsics (`simd` feature only).
    Sse2 = 1,
    /// Explicit 256-bit AVX2 intrinsics (`simd` feature only).
    Avx2 = 2,
}

impl Backend {
    /// Short lowercase label for reports and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Autovec => "autovec",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    fn from_u8(v: u8) -> Option<Backend> {
        match v {
            0 => Some(Backend::Autovec),
            1 => Some(Backend::Sse2),
            2 => Some(Backend::Avx2),
            _ => None,
        }
    }
}

/// Sentinel meaning "no forced override".
const FORCE_UNSET: u8 = u8::MAX;

static FORCED: AtomicU8 = AtomicU8::new(FORCE_UNSET);

/// Forces a specific backend (`Some`) or restores runtime detection
/// (`None`). The CLI `--no-simd` flag and the equivalence tests use this;
/// a forced backend that the feature set cannot honour (e.g. `Avx2`
/// without the `simd` feature) silently degrades to [`Backend::Autovec`].
pub fn set_backend(b: Option<Backend>) {
    FORCED.store(b.map_or(FORCE_UNSET, |b| b as u8), Ordering::Relaxed);
}

/// The backend the span dispatchers will use right now: the forced
/// override if set, otherwise the detected-and-cached best backend.
pub fn active_backend() -> Backend {
    let forced = FORCED.load(Ordering::Relaxed);
    match Backend::from_u8(forced) {
        Some(b) => available(b),
        None => detected(),
    }
}

/// Clamps a requested backend to what this build/host can execute.
fn available(b: Backend) -> Backend {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        match b {
            Backend::Avx2 if is_x86_feature_detected!("avx2") => Backend::Avx2,
            Backend::Avx2 | Backend::Sse2 => Backend::Sse2,
            Backend::Autovec => Backend::Autovec,
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = b;
        Backend::Autovec
    }
}

/// Runtime-detected best backend, resolved once. The `SHARPEN_SIMD` env
/// var overrides detection: `scalar`/`autovec`/`off` force the scalar
/// spans, `sse2`/`avx2` request that tier (clamped to what the host
/// supports). Unknown values fall through to detection.
fn detected() -> Backend {
    static DETECTED: OnceLock<Backend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if let Some(req) = backend_from_env(std::env::var("SHARPEN_SIMD").ok().as_deref()) {
            return available(req);
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx2") {
                return Backend::Avx2;
            }
            // SSE2 is part of the x86_64 baseline.
            return Backend::Sse2;
        }
        #[allow(unreachable_code)]
        Backend::Autovec
    })
}

/// Parses the `SHARPEN_SIMD` env override (pure, for testability).
fn backend_from_env(v: Option<&str>) -> Option<Backend> {
    match v {
        Some("scalar") | Some("autovec") | Some("off") => Some(Backend::Autovec),
        Some("sse2") => Some(Backend::Sse2),
        Some("avx2") => Some(Backend::Avx2),
        _ => None,
    }
}

/// Whether the explicit-intrinsics backends were compiled in at all.
pub fn simd_compiled() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64"))
}

/// Detected host CPU SIMD features (always available, independent of the
/// `simd` feature), for bench baselines and `--profile` output.
pub fn host_features() -> &'static str {
    static FEATURES: OnceLock<String> = OnceLock::new();
    FEATURES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let mut have = vec!["sse2"]; // x86_64 baseline
            for (name, on) in [
                ("sse4.2", is_x86_feature_detected!("sse4.2")),
                ("avx", is_x86_feature_detected!("avx")),
                ("avx2", is_x86_feature_detected!("avx2")),
                ("fma", is_x86_feature_detected!("fma")),
                ("avx512f", is_x86_feature_detected!("avx512f")),
            ] {
                if on {
                    have.push(name);
                }
            }
            have.join("+")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            format!("non-x86 ({})", std::env::consts::ARCH)
        }
    })
}

/// The scalar span implementations — the source of truth every other
/// backend must match bit-for-bit. Written branch-free over the span so
/// rustc's autovectorizer handles the default build.
pub(crate) mod scalar {
    use super::{math, Backend, SharpnessParams, INTERP, SCALE};

    /// The backend these spans implement, as the span dispatch reaches it.
    pub fn backend() -> Backend {
        Backend::Autovec
    }

    /// Sobel over a row span: `r0`/`r1`/`r2` start one column left of the
    /// first output pixel and extend one past the last (pixel `i` reads
    /// columns `i..i+3`).
    pub fn sobel_span(r0: &[f32], r1: &[f32], r2: &[f32], out: &mut [f32]) {
        for i in 0..out.len() {
            let gx = (r0[i + 2] + 2.0 * r1[i + 2] + r2[i + 2]) - (r0[i] + 2.0 * r1[i] + r2[i]);
            let gy = (r2[i] + 2.0 * r2[i + 1] + r2[i + 2]) - (r0[i] + 2.0 * r0[i + 1] + r0[i + 2]);
            out[i] = gx.abs() + gy.abs();
        }
    }

    /// Elementwise `out[i] = a[i] - b[i]` (the pError stage).
    pub fn sub_span(a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..out.len() {
            out[i] = a[i] - b[i];
        }
    }

    /// Elementwise `acc[i] += row[i]` (the reduction add-during-load pass).
    pub fn add_assign_span(acc: &mut [f32], row: &[f32]) {
        for (s, &v) in acc.iter_mut().zip(row) {
            *s += v;
        }
    }

    /// `preliminary` for the default gamma == 0.5: the body of
    /// `math::strength`/`math::preliminary` inlined with `denom` hoisted
    /// (same value every pixel, so bit-identical).
    pub fn preliminary_half(
        up: &[f32],
        pe: &[f32],
        perr: &[f32],
        out: &mut [f32],
        denom: f32,
        gain: f32,
        s_max: f32,
    ) {
        for i in 0..out.len() {
            let x = pe[i] / denom;
            let s = math::fmin(math::fmax(gain * x.sqrt(), 0.0), s_max);
            out[i] = up[i] + s * perr[i];
        }
    }

    /// `preliminary` for arbitrary gamma: per-pixel shared math (`powf`
    /// has no lane-exact vector form, so this path never vectorizes).
    pub fn preliminary_general(
        up: &[f32],
        pe: &[f32],
        perr: &[f32],
        out: &mut [f32],
        mean: f32,
        params: &SharpnessParams,
    ) {
        for i in 0..out.len() {
            out[i] = math::preliminary(up[i], pe[i], perr[i], mean, params);
        }
    }

    /// Overshoot clamp over a row span of body pixels: the 9-element
    /// min/max fold runs in the same order as [`math::minmax3x3`] and the
    /// select chain matches [`math::overshoot`] exactly.
    pub fn overshoot_span(
        r0: &[f32],
        r1: &[f32],
        r2: &[f32],
        prelim: &[f32],
        out: &mut [f32],
        params: &SharpnessParams,
    ) {
        for i in 0..out.len() {
            let mut mn = r0[i];
            let mut mx = r0[i];
            for v in [
                r0[i + 1],
                r0[i + 2],
                r1[i],
                r1[i + 1],
                r1[i + 2],
                r2[i],
                r2[i + 1],
                r2[i + 2],
            ] {
                mn = math::fmin(mn, v);
                mx = math::fmax(mx, v);
            }
            let p = prelim[i];
            let above = math::fmin(mx + params.osc * (p - mx), 255.0);
            let below = math::fmax(mn - params.osc * (mn - p), 0.0);
            let inside = math::fmin(math::fmax(p, 0.0), 255.0);
            let low = if p < mn { below } else { inside };
            out[i] = if p > mx { above } else { low };
        }
    }

    /// Fused sharpness (gamma == 0.5) over a row span of body pixels.
    #[allow(clippy::too_many_arguments)]
    pub fn fused_half(
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
        for i in 0..out_row.len() {
            let mut mn = r0[i];
            let mut mx = r0[i];
            for v in [
                r0[i + 1],
                r0[i + 2],
                r1[i],
                r1[i + 1],
                r1[i + 2],
                r2[i],
                r2[i + 1],
                r2[i + 2],
            ] {
                mn = math::fmin(mn, v);
                mx = math::fmax(mx, v);
            }
            let err = r1[i + 1] - up_row[i];
            let x = pe_row[i] / denom;
            let s = math::fmin(math::fmax(gain * x.sqrt(), 0.0), s_max);
            let prelim = up_row[i] + s * err;
            let above = math::fmin(mx + osc * (prelim - mx), 255.0);
            let below = math::fmax(mn - osc * (mn - prelim), 0.0);
            let inside = math::fmin(math::fmax(prelim, 0.0), 255.0);
            let low = if prelim < mn { below } else { inside };
            out_row[i] = if prelim > mx { above } else { low };
        }
    }

    /// Fused sharpness for arbitrary gamma: per-pixel shared math.
    #[allow(clippy::too_many_arguments)]
    pub fn fused_general(
        r0: &[f32],
        r1: &[f32],
        r2: &[f32],
        up_row: &[f32],
        pe_row: &[f32],
        out_row: &mut [f32],
        mean: f32,
        params: &SharpnessParams,
    ) {
        for i in 0..out_row.len() {
            let mut mn = r0[i];
            let mut mx = r0[i];
            for v in [
                r0[i + 1],
                r0[i + 2],
                r1[i],
                r1[i + 1],
                r1[i + 2],
                r2[i],
                r2[i + 1],
                r2[i + 2],
            ] {
                mn = math::fmin(mn, v);
                mx = math::fmax(mx, v);
            }
            let err = r1[i + 1] - up_row[i];
            let prelim = math::preliminary(up_row[i], pe_row[i], err, mean, params);
            out_row[i] = math::overshoot(prelim, mn, mx, params);
        }
    }

    /// Upscale column interpolants: `out[4k + c] = INTERP[c][0] * src[k] +
    /// INTERP[c][1] * src[k+1]` for every downscaled window `k`
    /// (`out.len() == 4 * (src.len() - 1)`).
    pub fn interp4_span(src: &[f32], out: &mut [f32]) {
        for k in 0..src.len() - 1 {
            for c in 0..SCALE {
                out[SCALE * k + c] = INTERP[c][0] * src[k] + INTERP[c][1] * src[k + 1];
            }
        }
    }

    /// Row lerp: `out[j] = i0 * tops[j] + i1 * bots[j]` (the inner loop of
    /// the upscale-center fast path).
    pub fn lerp_span(i0: f32, i1: f32, tops: &[f32], bots: &[f32], out: &mut [f32]) {
        for j in 0..out.len() {
            out[j] = i0 * tops[j] + i1 * bots[j];
        }
    }
}

/// Dispatch macro: forced/detected backend → intrinsic or scalar span.
/// With the `simd` feature off the match collapses to the scalar call.
macro_rules! dispatch {
    ($name:ident ( $($arg:expr),* )) => {{
        match active_backend() {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            // SAFETY: `active_backend` only returns Sse2/Avx2 when the
            // feature is compiled in and the host supports it (SSE2 is
            // the x86_64 baseline; Avx2 is runtime-detected).
            Backend::Avx2 => unsafe { x86::avx2::$name($($arg),*) },
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Backend::Sse2 => unsafe { x86::sse2::$name($($arg),*) },
            _ => scalar::$name($($arg),*),
        }
    }};
}

/// The backend whose spans the dispatch reaches right now. Each
/// backend's span module answers for itself through the same dispatch
/// every span goes through, so this reports what runs, not what was
/// requested.
pub fn dispatched_backend() -> Backend {
    dispatch!(backend())
}

/// Sobel over a row span of body pixels (see [`scalar::sobel_span`]).
#[inline]
pub fn sobel_span(r0: &[f32], r1: &[f32], r2: &[f32], out: &mut [f32]) {
    dispatch!(sobel_span(r0, r1, r2, out))
}

/// Elementwise subtraction span (the pError stage).
#[inline]
pub fn sub_span(a: &[f32], b: &[f32], out: &mut [f32]) {
    dispatch!(sub_span(a, b, out))
}

/// Elementwise accumulate span (the reduction add-during-load pass).
#[inline]
pub fn add_assign_span(acc: &mut [f32], row: &[f32]) {
    dispatch!(add_assign_span(acc, row))
}

/// Strength + preliminary over a row span. Dispatches to the vector
/// backends only for the default gamma == 0.5 (`sqrt` is lane-exact;
/// `powf` is not and stays scalar).
#[inline]
pub fn preliminary_span(
    up: &[f32],
    pe: &[f32],
    perr: &[f32],
    out: &mut [f32],
    mean: f32,
    params: &SharpnessParams,
) {
    if params.gamma == 0.5 {
        let denom = mean + params.eps;
        let (gain, s_max) = (params.gain, params.s_max);
        dispatch!(preliminary_half(up, pe, perr, out, denom, gain, s_max))
    } else {
        scalar::preliminary_general(up, pe, perr, out, mean, params)
    }
}

/// Overshoot clamp over a row span of body pixels.
#[inline]
pub fn overshoot_span(
    r0: &[f32],
    r1: &[f32],
    r2: &[f32],
    prelim: &[f32],
    out: &mut [f32],
    params: &SharpnessParams,
) {
    dispatch!(overshoot_span(r0, r1, r2, prelim, out, params))
}

/// Fused sharpness over a row span of body pixels. As with
/// [`preliminary_span`], only gamma == 0.5 dispatches to the vector
/// backends.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn fused_span(
    r0: &[f32],
    r1: &[f32],
    r2: &[f32],
    up_row: &[f32],
    pe_row: &[f32],
    out_row: &mut [f32],
    mean: f32,
    params: &SharpnessParams,
) {
    if params.gamma == 0.5 {
        let denom = mean + params.eps;
        let (gain, s_max, osc) = (params.gain, params.s_max, params.osc);
        dispatch!(fused_half(
            r0, r1, r2, up_row, pe_row, out_row, denom, gain, s_max, osc
        ))
    } else {
        scalar::fused_general(r0, r1, r2, up_row, pe_row, out_row, mean, params)
    }
}

/// Upscale column interpolants (see [`scalar::interp4_span`]). The
/// interleaved 4-phase store pattern is a shuffle, not a lane op, so this
/// stays on the scalar/autovec path for every backend.
#[inline]
pub fn interp4_span(src: &[f32], out: &mut [f32]) {
    scalar::interp4_span(src, out)
}

/// Row lerp for the upscale-center fast path.
#[inline]
pub fn lerp_span(i0: f32, i1: f32, tops: &[f32], bots: &[f32], out: &mut [f32]) {
    dispatch!(lerp_span(i0, i1, tops, bots, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_parses_known_values() {
        assert_eq!(backend_from_env(Some("scalar")), Some(Backend::Autovec));
        assert_eq!(backend_from_env(Some("autovec")), Some(Backend::Autovec));
        assert_eq!(backend_from_env(Some("off")), Some(Backend::Autovec));
        assert_eq!(backend_from_env(Some("sse2")), Some(Backend::Sse2));
        assert_eq!(backend_from_env(Some("avx2")), Some(Backend::Avx2));
        assert_eq!(backend_from_env(Some("bogus")), None);
        assert_eq!(backend_from_env(None), None);
    }

    #[test]
    fn forced_backend_wins_and_degrades_to_available() {
        set_backend(Some(Backend::Autovec));
        assert_eq!(active_backend(), Backend::Autovec);
        set_backend(Some(Backend::Avx2));
        let got = active_backend();
        if simd_compiled() {
            assert!(matches!(got, Backend::Avx2 | Backend::Sse2));
        } else {
            assert_eq!(got, Backend::Autovec);
        }
        set_backend(None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Backend::Autovec.label(), "autovec");
        assert_eq!(Backend::Sse2.label(), "sse2");
        assert_eq!(Backend::Avx2.label(), "avx2");
    }

    #[test]
    fn host_features_reports_baseline() {
        assert!(host_features().contains("sse2") || !cfg!(target_arch = "x86_64"));
    }

    /// Every dispatched span must agree bit-for-bit with the scalar
    /// reference on ragged lengths (vector main loop + scalar tail).
    #[test]
    fn spans_match_scalar_bitwise_on_ragged_lengths() {
        let params = SharpnessParams::default();
        let mean = 37.25f32;
        let denom = mean + params.eps;
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let r0: Vec<f32> = (0..n + 2)
                .map(|i| (i as f32 * 1.7).sin() * 120.0 + 90.0)
                .collect();
            let r1: Vec<f32> = (0..n + 2)
                .map(|i| (i as f32 * 0.9).cos() * 110.0 + 100.0)
                .collect();
            let r2: Vec<f32> = (0..n + 2)
                .map(|i| (i as f32 * 2.3).sin() * 80.0 + 70.0)
                .collect();
            let up: Vec<f32> = (0..n)
                .map(|i| (i as f32 * 1.1).cos() * 100.0 + 100.0)
                .collect();
            let pe: Vec<f32> = (0..n)
                .map(|i| (i as f32 * 0.7).sin().abs() * 60.0)
                .collect();
            let perr: Vec<f32> = (0..n).map(|i| (i as f32 * 1.9).sin() * 25.0).collect();

            let mut want = vec![0.0f32; n];
            let mut got = vec![0.0f32; n];

            scalar::sobel_span(&r0, &r1, &r2, &mut want);
            sobel_span(&r0, &r1, &r2, &mut got);
            assert_eq!(bits(&want), bits(&got), "sobel n={n}");

            scalar::sub_span(&r1[..n], &up, &mut want);
            sub_span(&r1[..n], &up, &mut got);
            assert_eq!(bits(&want), bits(&got), "sub n={n}");

            scalar::preliminary_half(&up, &pe, &perr, &mut want, denom, params.gain, params.s_max);
            preliminary_span(&up, &pe, &perr, &mut got, mean, &params);
            assert_eq!(bits(&want), bits(&got), "preliminary n={n}");

            scalar::overshoot_span(&r0, &r1, &r2, &up, &mut want, &params);
            overshoot_span(&r0, &r1, &r2, &up, &mut got, &params);
            assert_eq!(bits(&want), bits(&got), "overshoot n={n}");

            scalar::fused_half(
                &r0,
                &r1,
                &r2,
                &up,
                &pe,
                &mut want,
                denom,
                params.gain,
                params.s_max,
                params.osc,
            );
            fused_span(&r0, &r1, &r2, &up, &pe, &mut got, mean, &params);
            assert_eq!(bits(&want), bits(&got), "fused n={n}");

            let mut acc_a: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
            let mut acc_b = acc_a.clone();
            scalar::add_assign_span(&mut acc_a, &perr);
            add_assign_span(&mut acc_b, &perr);
            assert_eq!(bits(&acc_a), bits(&acc_b), "add_assign n={n}");

            scalar::lerp_span(0.75, 0.25, &r0[..n], &r1[..n], &mut want);
            lerp_span(0.75, 0.25, &r0[..n], &r1[..n], &mut got);
            assert_eq!(bits(&want), bits(&got), "lerp n={n}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
