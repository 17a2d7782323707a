//! Static access-summary verification: prove kernel bounds, race-freedom
//! and byte accounting for a pipeline configuration **without executing
//! anything** (DESIGN.md §15).
//!
//! [`enumerate_access`] replays the dispatch schedule of
//! [`GpuPipeline::run`] symbolically: for a `(w, h)` shape, an
//! [`OptConfig`] and a [`Tuning`] it produces — in commit order — every
//! kernel dispatch the frame would issue, each carrying the same
//! closed-form [`AccessSummary`] the live kernel declares, cost counters
//! included (the identical `*_access` constructors are called with buffer
//! descriptions built from pure arithmetic, so no device, queue or pixel
//! data is involved). [`verify_static`] then proves, per dispatch:
//!
//! * **(a) bounds** — every declared window stays inside its buffer,
//!   including the ragged tails of non-multiple-of-4 shapes;
//! * **(b) race-freedom** — write windows are internally disjoint and
//!   pairwise disjoint, so no element is stored twice in one dispatch;
//! * **(c) accounting** — the bytes the dispatch charges the cost model
//!   equal the declared write traffic exactly and bound the declared read
//!   traffic within the summary's exact overcharge ratio.
//!
//! The static schedule cannot rot silently: the executed pipeline hands
//! the same summaries to [`CommandQueue::run`] (which charges exactly
//! their counters, and where the sanitizer audits them against observed
//! per-element traffic), and the agreement test compares
//! [`CommandQueue::take_access_log`] of a live run against this module's
//! enumeration, dispatch for dispatch.
//!
//! [`GpuPipeline::run`]: crate::gpu::GpuPipeline::run
//! [`CommandQueue::run`]: simgpu::queue::CommandQueue::run
//! [`CommandQueue::take_access_log`]: simgpu::queue::CommandQueue::take_access_log

use simgpu::access::{verify_summary, AccessError, AccessSummary, BufRef, VerifyStats};
use simgpu::kernel::KernelDesc;

use crate::gpu::kernels::downscale::downscale_access;
use crate::gpu::kernels::perror::perror_access;
use crate::gpu::kernels::reduction::{
    stage1_access, stage1_desc, stage1_groups, stage2_access, stage2_desc,
};
use crate::gpu::kernels::sharpen::{
    overshoot_access, preliminary_access, sharpness_fused_access, sharpness_fused_vec4_access,
};
use crate::gpu::kernels::sobel::{sobel_scalar_access, sobel_vec4_access};
use crate::gpu::kernels::upscale::{
    upscale_border_col_access, upscale_border_row_access, upscale_center_scalar_access,
    upscale_center_vec4_access,
};
use crate::gpu::kernels::{full_grid, grid1d, grid2d, KernelTuning, SrcInfo};
use crate::gpu::opts::{OptConfig, Tuning};
use crate::params::{check_shape, device_stride, SCALE};

/// One kernel dispatch of the static schedule: its descriptor plus the
/// whole-grid access summary the live kernel declares.
pub struct StaticDispatch {
    /// The dispatch descriptor (name, grid geometry).
    pub desc: KernelDesc,
    /// The dispatch's declaration; its `charged` counters are what the
    /// committed kernel record carries.
    pub access: AccessSummary,
}

/// The verdict of [`verify_static`]: every enumerated dispatch proved
/// sound, with aggregate counters for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticReport {
    /// Kernel dispatches enumerated.
    pub kernels: usize,
    /// Aggregated verifier counters over every dispatch.
    pub stats: VerifyStats,
}

impl StaticReport {
    /// Publishes the verifier counters as `verify.*` metrics gauges, so
    /// the committed metric baselines catch accounting regressions.
    pub fn to_registry(&self, reg: &mut simgpu::metrics::MetricsRegistry) {
        reg.set_gauge("verify.kernels", self.kernels as f64);
        reg.set_gauge("verify.dispatches", self.stats.dispatches as f64);
        reg.set_gauge("verify.windows", self.stats.windows as f64);
        reg.set_gauge(
            "verify.declared_read_bytes",
            self.stats.declared_read_bytes as f64,
        );
        reg.set_gauge(
            "verify.declared_write_bytes",
            self.stats.declared_write_bytes as f64,
        );
        reg.set_gauge(
            "verify.charged_read_bytes",
            self.stats.charged_read_bytes as f64,
        );
        reg.set_gauge(
            "verify.charged_write_bytes",
            self.stats.charged_write_bytes as f64,
        );
        reg.set_gauge("verify.max_ratio_slack", self.stats.max_ratio_slack);
    }

    /// One human-readable line for CLI summaries.
    pub fn summary_line(&self) -> String {
        format!(
            "static verifier: {} dispatches ({} windows) proved in-bounds, \
             race-free and exactly charged; {:.3} MiB writes, {:.3} MiB reads \
             (ratio slack {:.4})",
            self.kernels,
            self.stats.windows,
            self.stats.charged_write_bytes as f64 / (1024.0 * 1024.0),
            self.stats.charged_read_bytes as f64 / (1024.0 * 1024.0),
            self.stats.max_ratio_slack,
        )
    }
}

/// Enumerates, in commit order, every kernel dispatch one frame of the
/// pipeline would issue for this shape, flag set and tuning — with the
/// same access summaries the live kernels declare. Purely
/// arithmetic: nothing is allocated on the simulated device and nothing
/// executes.
///
/// # Errors
/// On unsupported shapes (below the 3×3 minimum).
pub fn enumerate_access(
    w: usize,
    h: usize,
    opts: &OptConfig,
    tuning: &Tuning,
) -> Result<Vec<StaticDispatch>, String> {
    check_shape(w, h)?;
    let f = Frame::new(w, h, opts, tuning);
    let mut out = vec![downscale_dispatch(&f)];
    if f.gpu_border(opts, tuning) {
        out.extend(border_dispatches(&f));
    }
    if f.has_center() {
        out.push(center_dispatch(&f, opts));
    }
    out.push(sobel_dispatch(&f, opts));
    if opts.reduction_gpu {
        out.push(stage1_dispatch(&f, tuning));
        out.extend(stage2_dispatch(&f, tuning));
    }
    out.extend(tail_dispatches(&f, opts));
    Ok(out)
}

/// Statically verifies one frame of the pipeline: enumerates the schedule
/// via [`enumerate_access`] and proves bounds, write disjointness, charge
/// accounting for every dispatch.
///
/// # Errors
/// On unsupported shapes, or with the first [`AccessError`] (rendered to a
/// string) if any property fails — which would indicate a rotted
/// closed-form summary, since the same summaries gate live dispatch.
pub fn verify_static(
    w: usize,
    h: usize,
    opts: &OptConfig,
    tuning: &Tuning,
) -> Result<StaticReport, String> {
    let dispatches = enumerate_access(w, h, opts, tuning)?;
    let mut stats = VerifyStats::default();
    for d in &dispatches {
        check_dispatch(d).map_err(|e| e.to_string())?;
        stats.absorb(&d.access);
    }
    Ok(StaticReport {
        kernels: dispatches.len(),
        stats,
    })
}

/// Proves one dispatch sound: the summary matches the dispatch's grid and
/// passes the window checks [`simgpu::queue::CommandQueue`] applies before
/// running it.
fn check_dispatch(d: &StaticDispatch) -> Result<(), AccessError> {
    let s = &d.access;
    if s.kernel != d.desc.name || s.total_groups != d.desc.total_groups() || !s.covers_full_grid() {
        return Err(AccessError::GridMismatch {
            kernel: d.desc.name.clone(),
            detail: format!(
                "declares kernel `{}` over groups {:?} of {}, dispatch is `{}` over {}",
                s.kernel,
                s.groups,
                s.total_groups,
                d.desc.name,
                d.desc.total_groups()
            ),
        });
    }
    verify_summary(s)
}

/// The frame's buffer universe, derived from shape and flags exactly as
/// `FrameResources::new` allocates it — but as pure [`BufRef`]
/// descriptions, no device memory.
struct Frame {
    w: usize,
    h: usize,
    w4: usize,
    h4: usize,
    ws: usize,
    ns: usize,
    padded_src: SrcInfo,
    main_src: SrcInfo,
    down: BufRef,
    up: BufRef,
    pedge: BufRef,
    finalbuf: BufRef,
    partials: Option<BufRef>,
    reduction_out: Option<BufRef>,
    perror: Option<BufRef>,
    prelim: Option<BufRef>,
    tune: KernelTuning,
}

impl Frame {
    fn new(w: usize, h: usize, opts: &OptConfig, tuning: &Tuning) -> Frame {
        let (w4, h4) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
        let n = w * h;
        let ws = device_stride(w);
        let ns = ws * h;
        let pw = ws + 2;
        let groups = stage1_groups(ns);
        let padded_src = SrcInfo {
            buf: BufRef::f32("padded", pw * (h + 2)),
            pitch: pw,
            pad: 1,
        };
        let main_src = if opts.data_transfer {
            padded_src.clone()
        } else {
            SrcInfo {
                buf: BufRef::f32("original", n),
                pitch: w,
                pad: 0,
            }
        };
        Frame {
            w,
            h,
            w4,
            h4,
            ws,
            ns,
            padded_src,
            main_src,
            down: BufRef::f32("down", w4 * h4),
            up: BufRef::f32("up", ns),
            pedge: BufRef::f32("pEdge", ns),
            finalbuf: BufRef::f32("final", ns),
            partials: opts.reduction_gpu.then(|| BufRef::f32("partials", groups)),
            reduction_out: (opts.reduction_gpu && groups > tuning.stage2_gpu_threshold)
                .then(|| BufRef::f32("reduction_out", 1)),
            perror: (!opts.kernel_fusion).then(|| BufRef::f32("pError", ns)),
            prelim: (!opts.kernel_fusion).then(|| BufRef::f32("prelim", ns)),
            tune: KernelTuning {
                others: opts.others,
            },
        }
    }

    fn has_center(&self) -> bool {
        self.w4 > 1 && self.h4 > 1
    }

    fn gpu_border(&self, opts: &OptConfig, tuning: &Tuning) -> bool {
        opts.border_gpu && self.w >= tuning.border_gpu_min_width
    }
}

/// A row-span kernel's dispatch, declared through [`full_grid`] exactly as
/// the live kernel declares it.
fn make(
    desc: KernelDesc,
    build: impl FnOnce(std::ops::Range<usize>) -> AccessSummary,
) -> StaticDispatch {
    let access = full_grid(&desc, build);
    StaticDispatch { desc, access }
}

/// The four border dispatches of `upscale_border_gpu`, in issue order.
/// Like the reduction kernels, they declare without [`full_grid`] and keep
/// the constructor's default ratio: their accounting is exact.
fn border_dispatches(f: &Frame) -> Vec<StaticDispatch> {
    let (w, h, ws) = (f.w, f.h, f.ws);
    let (wd, hd) = (f.w4, f.h4);
    let mut out = Vec::with_capacity(4);
    for (name, src_row, dst_row) in [
        ("upscale_border_top", 0usize, 0usize),
        ("upscale_border_bottom", hd - 1, h - 2),
    ] {
        let desc = grid1d(name, (wd - 1).max(1), 64);
        let companion = if dst_row == 0 { 1 } else { h - 1 };
        let access = upscale_border_row_access(
            &desc,
            f.down.clone(),
            f.up.clone(),
            w,
            ws,
            src_row,
            dst_row,
            companion,
            f.tune,
        );
        out.push(StaticDispatch { desc, access });
    }
    for (name, src_col, dst_col) in [
        ("upscale_border_left", 0usize, 0usize),
        ("upscale_border_right", wd - 1, w - 2),
    ] {
        let desc = grid1d(name, (hd - 1).max(1), 64);
        let companion = if dst_col == 0 { 1 } else { w - 1 };
        let access = upscale_border_col_access(
            &desc,
            f.down.clone(),
            f.up.clone(),
            wd,
            h,
            ws,
            src_col,
            dst_col,
            companion,
            f.tune,
        );
        out.push(StaticDispatch { desc, access });
    }
    out
}

/// The upscale-center dispatch.
fn center_dispatch(f: &Frame, opts: &OptConfig) -> StaticDispatch {
    let (w, h, ws) = (f.w, f.h, f.ws);
    let (nx, ny) = (f.w4 - 1, f.h4 - 1);
    if opts.vectorization {
        let desc = grid2d("upscale_center_vec4", nx.div_ceil(4), ny);
        make(desc.clone(), |g| {
            upscale_center_vec4_access(&desc, g, f.down.clone(), f.up.clone(), w, h, ws, f.tune)
        })
    } else {
        let desc = grid2d("upscale_center", nx, ny);
        make(desc.clone(), |g| {
            upscale_center_scalar_access(&desc, g, f.down.clone(), f.up.clone(), w, h, ws, f.tune)
        })
    }
}

/// The Sobel dispatch.
fn sobel_dispatch(f: &Frame, opts: &OptConfig) -> StaticDispatch {
    let (w, h, ws) = (f.w, f.h, f.ws);
    if opts.vectorization {
        let desc = grid2d("sobel_vec4", ws / 4, h);
        make(desc.clone(), |g| {
            sobel_vec4_access(&desc, g, &f.padded_src, f.pedge.clone(), w, h, ws, f.tune)
        })
    } else {
        let desc = grid2d("sobel", w, h);
        make(desc.clone(), |g| {
            sobel_scalar_access(&desc, g, &f.main_src, f.pedge.clone(), w, h, ws, f.tune)
        })
    }
}

/// The downscale dispatch.
fn downscale_dispatch(f: &Frame) -> StaticDispatch {
    let (w, h) = (f.w, f.h);
    let desc = grid2d("downscale", f.w4, f.h4);
    make(desc.clone(), |g| {
        downscale_access(&desc, g, &f.main_src, f.down.clone(), w, h, f.tune)
    })
}

/// Reduction stage 1 (1-D grid), declared exactly as
/// `reduction_stage1_kernel` does.
fn stage1_dispatch(f: &Frame, tuning: &Tuning) -> StaticDispatch {
    let desc = stage1_desc(f.ns, tuning.reduction_strategy);
    let partials = f.partials.clone().expect("gpu reduction declares partials");
    let access = stage1_access(
        &desc,
        0..desc.total_groups(),
        f.pedge.clone(),
        partials,
        0,
        f.ns,
        tuning.reduction_strategy,
    );
    StaticDispatch { desc, access }
}

/// The sharpening-tail dispatches: one fused dispatch, or the pError →
/// preliminary → overshoot chain.
fn tail_dispatches(f: &Frame, opts: &OptConfig) -> Vec<StaticDispatch> {
    let (w, h, ws) = (f.w, f.h, f.ws);
    if opts.kernel_fusion {
        let d = if opts.vectorization {
            let desc = grid2d("sharpness_vec4", ws / 4, h);
            make(desc.clone(), |g| {
                sharpness_fused_vec4_access(
                    &desc,
                    g,
                    &f.padded_src,
                    f.up.clone(),
                    f.pedge.clone(),
                    f.finalbuf.clone(),
                    w,
                    h,
                    ws,
                    f.tune,
                )
            })
        } else {
            let desc = grid2d("sharpness", w, h);
            make(desc.clone(), |g| {
                sharpness_fused_access(
                    &desc,
                    g,
                    &f.padded_src,
                    f.up.clone(),
                    f.pedge.clone(),
                    f.finalbuf.clone(),
                    w,
                    h,
                    ws,
                    f.tune,
                )
            })
        };
        return vec![d];
    }
    let perr = f.perror.clone().expect("unfused path declares pError");
    let prelim = f.prelim.clone().expect("unfused path declares prelim");
    let pe_desc = grid2d("perror", w, h);
    let pr_desc = grid2d("preliminary", w, h);
    let ov_desc = grid2d("overshoot", w, h);
    vec![
        make(pe_desc.clone(), |g| {
            perror_access(
                &pe_desc,
                g,
                &f.main_src,
                f.up.clone(),
                perr.clone(),
                w,
                h,
                ws,
                f.tune,
            )
        }),
        make(pr_desc.clone(), |g| {
            preliminary_access(
                &pr_desc,
                g,
                f.up.clone(),
                f.pedge.clone(),
                perr.clone(),
                prelim.clone(),
                w,
                h,
                ws,
                f.tune,
            )
        }),
        make(ov_desc.clone(), |g| {
            overshoot_access(
                &ov_desc,
                g,
                &f.padded_src,
                prelim.clone(),
                f.finalbuf.clone(),
                w,
                h,
                ws,
                f.tune,
            )
        }),
    ]
}

/// Reduction dispatches after stage 1: the device stage 2, when the
/// partial count clears the tuned threshold.
fn stage2_dispatch(f: &Frame, tuning: &Tuning) -> Option<StaticDispatch> {
    let groups = stage1_groups(f.ns);
    if groups <= tuning.stage2_gpu_threshold {
        return None;
    }
    let desc = stage2_desc();
    let partials = f.partials.clone().expect("gpu reduction declares partials");
    let result = f
        .reduction_out
        .clone()
        .expect("gpu stage2 declares reduction_out");
    let access = stage2_access(&desc, partials, groups, result);
    Some(StaticDispatch { desc, access })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_configs() -> Vec<OptConfig> {
        (0u32..64)
            .map(|bits| OptConfig {
                data_transfer: bits & 1 != 0,
                kernel_fusion: bits & 2 != 0,
                reduction_gpu: bits & 4 != 0,
                vectorization: bits & 8 != 0,
                border_gpu: bits & 16 != 0,
                others: bits & 32 != 0,
            })
            .collect()
    }

    #[test]
    fn verifies_all_configs_on_a_ragged_shape() {
        let tuning = Tuning::default();
        for opts in all_configs() {
            let r = verify_static(1001, 701, &opts, &tuning)
                .unwrap_or_else(|e| panic!("{opts:?}: {e}"));
            assert!(r.kernels >= 4, "{opts:?}: only {} dispatches", r.kernels);
            assert_eq!(r.stats.dispatches, r.kernels as u64);
            assert!(r.stats.max_ratio_slack >= 0.0);
            assert!(r.stats.charged_write_bytes == r.stats.declared_write_bytes);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(verify_static(2, 2, &OptConfig::none(), &Tuning::default()).is_err());
    }

    #[test]
    fn small_stage2_threshold_adds_device_stage2() {
        let opts = OptConfig {
            reduction_gpu: true,
            ..OptConfig::none()
        };
        let tuning = Tuning {
            stage2_gpu_threshold: 1,
            ..Tuning::default()
        };
        let names: Vec<String> = enumerate_access(256, 256, &opts, &tuning)
            .unwrap()
            .into_iter()
            .map(|d| d.desc.name)
            .collect();
        assert!(names.iter().any(|n| n == "reduction_stage2"));
    }
}
