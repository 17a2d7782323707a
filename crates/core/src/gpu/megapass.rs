//! Cache-blocked megapass scheduling: the banded frame executor.
//!
//! The monolithic schedule runs each kernel over the whole frame, so every
//! intermediate matrix (down, up, pEdge, prelim, final) streams through
//! host caches once per kernel — at 4096² each strided matrix is 64 MiB,
//! far beyond L3, and every pass pays full memory bandwidth. The megapass
//! executor runs the *same kernels* band-by-band over horizontal row bands
//! sized to the host's last-level cache, so a band's intermediates stay
//! cache-resident from downscale through the sharpening tail.
//!
//! The schedule is two-phase around the one global data dependency, the
//! pEdge mean (Section V-C):
//!
//! * **Phase A** per band: downscale, Sobel and (when the reduction runs
//!   on the device) reduction stage-1 slices — everything that only reads
//!   the uploaded source. The stage-1 cursor trails the Sobel cursor so
//!   every pEdge element a stage-1 group sums already exists.
//! * The upscale border and center then run off the (tiny, cache-resident)
//!   downscaled matrix, and the mean is resolved exactly as the monolithic
//!   schedule does (CPU sum, or committed stage 1 + stage 2).
//! * **Phase B** per band: the sharpening tail slices, which read the
//!   now-complete source, `up` and pEdge matrices plus the mean. With
//!   fusion off, the pError → preliminary → overshoot chain runs
//!   band-by-band so each band's intermediates stay cache-resident.
//!
//! **Charge equivalence.** Each slice declares the [`CostCounters`] of its
//! group range through the kernel's closed-form access constructor;
//! sliced dispatches merge those declarations into a [`SlicedDispatch`]
//! accumulator and record *nothing*; the executor commits each kernel
//! once per frame via [`CommandQueue::commit_sliced`], which audits and
//! charges the merged totals. Counter merging is a sum (plus max for the
//! occupancy fields), and every constructor declares any partition of a
//! grid so that it folds to the whole-grid counters bit for bit; simulated
//! kernel time is a pure function of those counters — the committed
//! record is bit-identical to the monolithic one. Host, transfer
//! and sync commands are emitted by the same shared [`GpuPipeline`]
//! helpers at call sites with the same pending-work status, and commits
//! are ordered to reproduce the monolithic record stream exactly (the
//! virtual clock sums record durations in order, and floating-point
//! addition is not associative — a reordered stream could drift by an
//! ulp). This module therefore never charges cost itself: all kernel cost
//! is the kernels' own declarations, and host-side charges stay in the
//! pipeline's host stages (lint-enforced).
//!
//! [`CostCounters`]: simgpu::cost::CostCounters
//! [`CommandQueue::commit_sliced`]: simgpu::queue::CommandQueue::commit_sliced

use imagekit::ImageF32;
use simgpu::error::Result as SimResult;
use simgpu::queue::{CommandQueue, SlicedDispatch};
use simgpu::span::SpanKind;
use simgpu::timing::KernelTime;

use crate::gpu::kernels::downscale::downscale_launch;
use crate::gpu::kernels::perror::perror_launch;
use crate::gpu::kernels::reduction::{
    reduction_stage1_sliced, stage1_desc, stage1_groups, ELEMS_PER_GROUP,
};
use crate::gpu::kernels::sharpen::{
    overshoot_launch, preliminary_launch, sharpness_fused_launch, sharpness_fused_vec4_launch,
};
use crate::gpu::kernels::sobel::{sobel_scalar_launch, sobel_vec4_launch};
use crate::gpu::kernels::upscale::{
    upscale_border_gpu, upscale_center_scalar_launch, upscale_center_vec4_launch,
};
use crate::gpu::kernels::{grid2d, KernelTuning, Launch, GROUP_2D};
use crate::gpu::opts::OptConfig;
use crate::gpu::pipeline::{FrameResources, GpuPipeline};
use crate::params::{device_stride, SCALE};

/// Image rows covered by one work-group row of the 2-D kernels.
const GROUP_ROWS: usize = GROUP_2D[1];

/// How a frame's kernels are scheduled over the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One whole-grid dispatch per kernel (the paper's schedule).
    #[default]
    Monolithic,
    /// Cache-blocked row bands of approximately this many image rows
    /// (rounded up to whole 16-row work-group rows; `0` picks the height
    /// from the detected cache size via
    /// [`crate::autotune::band_rows_for`]).
    Banded(usize),
}

/// Analytic per-frame banding counters, derived purely from the shape and
/// schedule (observation-only; used by telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandedStats {
    /// Number of row bands the frame was split into.
    pub bands: usize,
    /// Effective rows per band (requested rows rounded up to whole
    /// work-group rows; the last band may be shorter).
    pub rows_per_band: usize,
    /// Peak bytes of device-buffer working set one band touches (the
    /// cache-residency target), maximised over the two phases.
    pub peak_resident_bytes: u64,
}

impl BandedStats {
    /// Computes the stats for a `w`×`h` frame under `opts` with the given
    /// requested band rows (`0` = autotuned).
    pub fn for_frame(w: usize, h: usize, opts: &OptConfig, band_rows: usize) -> BandedStats {
        let ws = device_stride(w);
        let bg = effective_group_rows(band_rows, ws, h);
        let rows = (bg * GROUP_ROWS).min(h);
        let gtot = h.div_ceil(GROUP_ROWS);
        let wd = w.div_ceil(SCALE);
        let pw = ws + 2;
        // Elements one band touches, per phase. Phase A streams the source
        // band into the down and pEdge bands; phase B streams the source,
        // up and pEdge bands into the final band (plus the unfused
        // intermediates when fusion is off).
        let src_band = (rows + 2) * pw + if opts.data_transfer { 0 } else { rows * w };
        let down_band = rows.div_ceil(SCALE) * wd;
        let phase_a = src_band + down_band + rows * ws;
        let mut phase_b = src_band + down_band + 3 * rows * ws;
        if !opts.kernel_fusion {
            phase_b += 2 * rows * ws;
        }
        BandedStats {
            bands: gtot.div_ceil(bg),
            rows_per_band: rows,
            peak_resident_bytes: 4 * phase_a.max(phase_b) as u64,
        }
    }
}

/// Downscale cursor: the highest downscale group row ready once the source
/// band ending at group row `g1` (of `gtot`) has been uploaded. One
/// downscale group row covers 64 source rows (4 source group rows); the
/// last band forces full coverage of the `d_groups`-row downscale grid.
/// Shared by the banded executor and the static verifier, which must agree
/// on the slice partition exactly.
pub(crate) fn downscale_cursor(g1: usize, gtot: usize, d_groups: usize) -> usize {
    if g1 == gtot {
        d_groups
    } else {
        (g1 / 4).min(d_groups)
    }
}

/// Reduction stage-1 cursor: the highest flat stage-1 group whose
/// 1024-element pEdge span is complete once Sobel has written `r1` image
/// rows of stride `ws` (band ending at group row `g1` of `gtot`; the last
/// band forces full coverage of the `s1_total` groups). Shared by the
/// banded executor and the static verifier.
pub(crate) fn stage1_cursor(
    g1: usize,
    gtot: usize,
    r1: usize,
    ws: usize,
    s1_total: usize,
) -> usize {
    if g1 == gtot {
        s1_total
    } else {
        (r1 * ws / ELEMS_PER_GROUP).min(s1_total)
    }
}

/// The requested band height in work-group rows (≥ 1): `0` resolves via
/// the cache-size autotuner, and anything else rounds up to whole 16-row
/// group rows (so `Banded(1)` and `Banded(7)` clamp up to one group row).
pub(crate) fn effective_group_rows(band_rows: usize, ws: usize, h: usize) -> usize {
    let rows = if band_rows == 0 {
        crate::autotune::band_rows_for(ws)
    } else {
        band_rows
    };
    rows.min(h.next_multiple_of(GROUP_ROWS))
        .div_ceil(GROUP_ROWS)
        .max(1)
}

/// Commits a sliced kernel, tolerating the no-op case of an accumulator
/// that never dispatched anything because the kernel was skipped entirely.
fn commit(
    q: &mut CommandQueue,
    desc: &simgpu::kernel::KernelDesc,
    acc: SlicedDispatch,
) -> SimResult<KernelTime> {
    q.commit_sliced(desc, acc)
}

/// Executes one frame band-by-band. Pixels, simulated seconds and
/// sanitizer verdicts are identical to the monolithic schedule for every
/// `OptConfig` (test-enforced across all 64); only host wall-clock
/// changes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_frame_banded(
    pipe: &GpuPipeline,
    q: &mut CommandQueue,
    res: &mut FrameResources,
    orig: &ImageF32,
    mean_override: Option<f32>,
    out: &mut [f32],
    band_rows: usize,
) -> Result<(), String> {
    let (w, h, ws) = (res.w, res.h, res.ws);
    let opts = *pipe.opts();
    let tune = KernelTuning {
        others: opts.others,
    };
    let bg = effective_group_rows(band_rows, ws, h);
    // Work-group-row extents of each grid.
    let gtot = h.div_ceil(GROUP_ROWS);
    let d_groups = res.h4.div_ceil(GROUP_ROWS);
    let has_center = res.w4 > 1 && res.h4 > 1;
    let u_groups = if has_center {
        (res.h4 - 1).div_ceil(GROUP_ROWS)
    } else {
        0
    };
    let s1_total = stage1_groups(res.ns);
    let slice_stage1 = mean_override.is_none() && opts.reduction_gpu;

    // ---- uploads (Section V-A), identical records -----------------------
    let ph = q.span_open(SpanKind::Phase, "upload");
    pipe.upload_frame(q, res, orig)?;
    q.span_close(ph);
    let (padded_src, main_src) = res.sources();

    // ---- phase A: downscale + Sobel (+ reduction stage 1) per band ------
    // All three read only the fully-uploaded source (stage 1 reads the
    // pEdge rows Sobel produced earlier in the same band), so slicing here
    // is purely a cache-residency choice.
    let ph = q.span_open(SpanKind::Phase, "megapass:A");
    let mut acc_down = SlicedDispatch::new();
    let mut acc_sobel = SlicedDispatch::new();
    let mut acc_stage1 = SlicedDispatch::new();
    let (mut cur_d, mut cur_s, mut cur_r) = (0usize, 0usize, 0usize);
    let mut g0 = 0usize;
    while g0 < gtot {
        let band = q.span_open(SpanKind::Band, "band");
        let g1 = (g0 + bg).min(gtot);
        let r1 = (GROUP_ROWS * g1).min(h);
        // Downscale group rows tracking the source band (one covers 64
        // source rows); forced to full coverage on the last band.
        let td = downscale_cursor(g1, gtot, d_groups);
        if td > cur_d {
            downscale_launch(
                q,
                &main_src,
                &res.down,
                w,
                h,
                tune,
                Launch::Slice(cur_d..td, &mut acc_down),
            )
            .map_err(|e| e.to_string())?;
            cur_d = td;
        }
        if g1 > cur_s {
            let launch = Launch::Slice(cur_s..g1, &mut acc_sobel);
            if opts.vectorization {
                sobel_vec4_launch(q, &padded_src, &res.pedge, w, h, ws, tune, launch)
            } else {
                sobel_scalar_launch(q, &main_src, &res.pedge, w, h, ws, tune, launch)
            }
            .map_err(|e| e.to_string())?;
            cur_s = g1;
        }
        if slice_stage1 {
            // Stage-1 group g reads pEdge elements [1024g, 1024(g+1)):
            // valid once Sobel has written the rows covering them.
            let tr = stage1_cursor(g1, gtot, r1, ws, s1_total);
            if tr > cur_r {
                let partials = res
                    .partials
                    .as_ref()
                    .expect("gpu reduction allocates partials");
                reduction_stage1_sliced(
                    q,
                    &res.pedge.view(),
                    res.ns,
                    partials,
                    pipe.tuning().reduction_strategy,
                    cur_r..tr,
                    &mut acc_stage1,
                )
                .map_err(|e| e.to_string())?;
                cur_r = tr;
            }
        }
        q.span_close(band);
        g0 = g1;
    }
    q.span_close(ph);

    // ---- commit downscale, then the border (Section V-E) ----------------
    let ph = q.span_open(SpanKind::Phase, "downscale");
    commit(q, &grid2d("downscale", res.w4, res.h4), acc_down).map_err(|e| e.to_string())?;
    pipe.sync(q);
    q.span_close(ph);
    let ph = q.span_open(SpanKind::Phase, "upscale");
    if pipe.gpu_border_enabled(w) {
        upscale_border_gpu(q, &res.down.view(), &res.up, w, h, ws, tune)
            .map_err(|e| e.to_string())?;
        pipe.sync(q);
    } else {
        pipe.cpu_border(q, res)?;
    }

    // ---- upscale center: sliced off the complete (and tiny) down matrix.
    // Committed *before* Sobel so the record stream — and hence the
    // order-sensitive virtual-clock sum — matches the monolithic layout.
    if has_center {
        let mut acc_up = SlicedDispatch::new();
        let mut g0 = 0usize;
        while g0 < u_groups {
            let g1 = (g0 + bg).min(u_groups);
            let launch = Launch::Slice(g0..g1, &mut acc_up);
            if opts.vectorization {
                upscale_center_vec4_launch(q, &res.down.view(), &res.up, w, h, ws, tune, launch)
            } else {
                upscale_center_scalar_launch(q, &res.down.view(), &res.up, w, h, ws, tune, launch)
            }
            .map_err(|e| e.to_string())?;
            g0 = g1;
        }
        let center_desc = if opts.vectorization {
            grid2d("upscale_center_vec4", (res.w4 - 1).div_ceil(4), res.h4 - 1)
        } else {
            grid2d("upscale_center", res.w4 - 1, res.h4 - 1)
        };
        commit(q, &center_desc, acc_up).map_err(|e| e.to_string())?;
        pipe.sync(q);
    }
    q.span_close(ph);

    // ---- commit Sobel ----------------------------------------------------
    let ph = q.span_open(SpanKind::Phase, "sobel");
    let sobel_desc = if opts.vectorization {
        grid2d("sobel_vec4", ws / 4, h)
    } else {
        grid2d("sobel", w, h)
    };
    commit(q, &sobel_desc, acc_sobel).map_err(|e| e.to_string())?;
    pipe.sync(q);
    q.span_close(ph);

    // ---- the mean (Section V-C), resolved as the monolithic schedule ----
    let ph = q.span_open(SpanKind::Phase, "reduction");
    let mean = match mean_override {
        Some(m) => m,
        None if !opts.reduction_gpu => pipe.reduction_cpu(q, res)?,
        None => {
            commit(
                q,
                &stage1_desc(res.ns, pipe.tuning().reduction_strategy),
                acc_stage1,
            )
            .map_err(|e| e.to_string())?;
            pipe.sync(q);
            pipe.reduction_stage2_phase(q, res)?
        }
    };
    q.span_close(ph);

    // ---- phase B: the sharpening tail per band --------------------------
    // Everything the tail reads (source, up, pEdge, the mean) is complete,
    // so the slices are a plain partition; interleaving the unfused
    // pError → preliminary → overshoot chain per band keeps each band's
    // intermediates cache-resident.
    let ph = q.span_open(SpanKind::Phase, "megapass:B");
    let mut acc_tail = SlicedDispatch::new();
    let mut acc_perr = SlicedDispatch::new();
    let mut acc_prelim = SlicedDispatch::new();
    let mut g0 = 0usize;
    while g0 < gtot {
        let band = q.span_open(SpanKind::Band, "band");
        let g1 = (g0 + bg).min(gtot);
        if opts.kernel_fusion {
            let launch = Launch::Slice(g0..g1, &mut acc_tail);
            if opts.vectorization {
                sharpness_fused_vec4_launch(
                    q,
                    &padded_src,
                    &res.up.view(),
                    &res.pedge.view(),
                    &res.finalbuf,
                    mean,
                    *pipe.params(),
                    w,
                    h,
                    ws,
                    tune,
                    launch,
                )
            } else {
                sharpness_fused_launch(
                    q,
                    &padded_src,
                    &res.up.view(),
                    &res.pedge.view(),
                    &res.finalbuf,
                    mean,
                    *pipe.params(),
                    w,
                    h,
                    ws,
                    tune,
                    launch,
                )
            }
            .map_err(|e| e.to_string())?;
        } else {
            let perr = res.perror.as_ref().expect("unfused path allocates pError");
            let prelim = res.prelim.as_ref().expect("unfused path allocates prelim");
            perror_launch(
                q,
                &main_src,
                &res.up.view(),
                perr,
                w,
                h,
                ws,
                tune,
                Launch::Slice(g0..g1, &mut acc_perr),
            )
            .map_err(|e| e.to_string())?;
            preliminary_launch(
                q,
                &res.up.view(),
                &res.pedge.view(),
                &perr.view(),
                prelim,
                mean,
                *pipe.params(),
                w,
                h,
                ws,
                tune,
                Launch::Slice(g0..g1, &mut acc_prelim),
            )
            .map_err(|e| e.to_string())?;
            overshoot_launch(
                q,
                &padded_src,
                &prelim.view(),
                &res.finalbuf,
                w,
                h,
                ws,
                *pipe.params(),
                tune,
                Launch::Slice(g0..g1, &mut acc_tail),
            )
            .map_err(|e| e.to_string())?;
        }
        q.span_close(band);
        g0 = g1;
    }
    q.span_close(ph);

    // ---- commit the tail, in the monolithic record layout ---------------
    let ph = q.span_open(SpanKind::Phase, "sharpen");
    if opts.kernel_fusion {
        let tail_desc = if opts.vectorization {
            grid2d("sharpness_vec4", ws / 4, h)
        } else {
            grid2d("sharpness", w, h)
        };
        commit(q, &tail_desc, acc_tail).map_err(|e| e.to_string())?;
        pipe.sync(q);
    } else {
        commit(q, &grid2d("perror", w, h), acc_perr).map_err(|e| e.to_string())?;
        pipe.sync(q);
        commit(q, &grid2d("preliminary", w, h), acc_prelim).map_err(|e| e.to_string())?;
        pipe.sync(q);
        commit(q, &grid2d("overshoot", w, h), acc_tail).map_err(|e| e.to_string())?;
        pipe.sync(q);
    }
    q.span_close(ph);

    // ---- readback, identical records ------------------------------------
    let ph = q.span_open(SpanKind::Phase, "readback");
    let r = pipe.readback_final(q, res, out);
    q.span_close(ph);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_group_rows_clamps_and_rounds() {
        // Tiny requests clamp up to one 16-row group row.
        assert_eq!(effective_group_rows(1, 64, 640), 1);
        assert_eq!(effective_group_rows(7, 64, 640), 1);
        assert_eq!(effective_group_rows(16, 64, 640), 1);
        assert_eq!(effective_group_rows(17, 64, 640), 2);
        assert_eq!(effective_group_rows(100, 64, 640), 7);
        // Requests beyond the image collapse to one band.
        assert_eq!(effective_group_rows(10_000, 64, 640), 40);
        // Auto (0) resolves to something positive and 16-aligned-ish.
        assert!(effective_group_rows(0, 4096, 4096) >= 1);
    }

    #[test]
    fn banded_stats_shrink_with_band_height() {
        let opts = OptConfig::all();
        let small = BandedStats::for_frame(1024, 1024, &opts, 64);
        let large = BandedStats::for_frame(1024, 1024, &opts, 512);
        assert!(small.peak_resident_bytes < large.peak_resident_bytes);
        assert!(small.bands > large.bands);
        assert_eq!(small.rows_per_band, 64);
        // One giant band is the whole frame.
        let mono = BandedStats::for_frame(1024, 1024, &opts, usize::MAX);
        assert_eq!(mono.bands, 1);
    }
}
