//! Static access-summary verification: prove kernel bounds, race-freedom
//! and byte accounting for a pipeline configuration **without executing
//! anything** (DESIGN.md §15).
//!
//! [`enumerate_access`] replays the dispatch schedule of
//! [`GpuPipeline::run`] symbolically: for a `(w, h)` shape, an
//! [`OptConfig`], a [`Tuning`] and a [`Schedule`] it produces — in commit
//! order — every kernel dispatch the frame would issue, each carrying the
//! same closed-form [`AccessSummary`] slices the live kernels declare,
//! cost counters included (the identical `*_access` constructors are
//! called with buffer descriptions built from pure arithmetic, so no
//! device, queue or pixel data is involved). [`verify_static`] then
//! proves, per dispatch:
//!
//! * **(a) bounds** — every declared window stays inside its buffer,
//!   including the ragged tails of non-multiple-of-4 shapes;
//! * **(b) race-freedom** — write windows are internally disjoint and
//!   pairwise disjoint, so no element is stored twice in one dispatch;
//! * **(c) accounting** — the bytes the dispatch charges the cost model
//!   equal the declared write traffic exactly and bound the declared read
//!   traffic within the summary's exact overcharge ratio (for sliced
//!   dispatches the bound holds on the merged totals, mirroring
//!   [`CommandQueue::commit_sliced`]);
//! * **(d) coverage** — the slices of a banded dispatch exactly partition
//!   the grid: no gap, no overlap.
//!
//! The static schedule cannot rot silently: the executed pipeline hands
//! the same summaries to [`CommandQueue::run`] (which charges exactly
//! their counters, and where the sanitizer audits them against observed
//! per-element traffic), and the agreement test compares
//! [`CommandQueue::take_access_log`] of a live run against this module's
//! enumeration, slice for slice.
//!
//! [`GpuPipeline::run`]: crate::gpu::GpuPipeline::run
//! [`CommandQueue::commit_sliced`]: simgpu::queue::CommandQueue::commit_sliced
//! [`CommandQueue::run`]: simgpu::queue::CommandQueue::run
//! [`CommandQueue::take_access_log`]: simgpu::queue::CommandQueue::take_access_log

use std::ops::Range;

use simgpu::access::{
    verify_partition, verify_summary, AccessError, AccessSummary, BufRef, VerifyStats,
};
use simgpu::cost::CostCounters;
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
use crate::gpu::kernels::{grid1d, grid2d, KernelTuning, SrcInfo, GROUP_2D};
use crate::gpu::megapass::{downscale_cursor, effective_group_rows, stage1_cursor};
use crate::gpu::opts::{OptConfig, Tuning};
use crate::gpu::Schedule;
use crate::params::{check_shape, device_stride, SCALE};

/// Image rows covered by one work-group row of the 2-D kernels.
const GROUP_ROWS: usize = GROUP_2D[1];

/// One kernel dispatch of the static schedule: its descriptor plus the
/// per-slice access summaries in execution order. A monolithic dispatch
/// has exactly one full-grid slice; a banded dispatch has one slice per
/// `run_sliced` call, in the order the band loop issues them.
pub struct StaticDispatch {
    /// The dispatch descriptor (name, grid geometry).
    pub desc: KernelDesc,
    /// Per-slice summaries, in execution order.
    pub slices: Vec<AccessSummary>,
}

impl StaticDispatch {
    /// The counters the committed kernel record carries: the slices'
    /// declarations folded with the same merge
    /// [`simgpu::queue::CommandQueue::commit_sliced`] applies.
    pub fn counters(&self) -> CostCounters {
        let mut c = CostCounters::new();
        for s in &self.slices {
            c.merge(&s.charged);
        }
        c
    }
}

/// The verdict of [`verify_static`]: every enumerated dispatch proved
/// sound, with aggregate counters for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticReport {
    /// Kernel dispatches enumerated (a sliced kernel counts once).
    pub kernels: usize,
    /// Aggregated verifier counters over every slice of every dispatch.
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
            "static verifier: {} dispatches ({} slices, {} windows) proved in-bounds, \
             race-free and exactly charged; {:.3} MiB writes, {:.3} MiB reads \
             (ratio slack {:.4})",
            self.kernels,
            self.stats.dispatches,
            self.stats.windows,
            self.stats.charged_write_bytes as f64 / (1024.0 * 1024.0),
            self.stats.charged_read_bytes as f64 / (1024.0 * 1024.0),
            self.stats.max_ratio_slack,
        )
    }
}

/// Enumerates, in commit order, every kernel dispatch one frame of the
/// pipeline would issue for this shape, flag set, tuning and schedule —
/// with the same access summaries the live kernels declare. Purely
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
    schedule: Schedule,
) -> Result<Vec<StaticDispatch>, String> {
    check_shape(w, h)?;
    let f = Frame::new(w, h, opts, tuning);
    Ok(match schedule {
        Schedule::Monolithic => monolithic(&f, opts, tuning),
        Schedule::Banded(rows) => banded(&f, opts, tuning, rows),
    })
}

/// Statically verifies one frame of the pipeline: enumerates the schedule
/// via [`enumerate_access`] and proves bounds, write disjointness, charge
/// accounting and slice coverage for every dispatch.
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
    schedule: Schedule,
) -> Result<StaticReport, String> {
    let dispatches = enumerate_access(w, h, opts, tuning, schedule)?;
    let mut stats = VerifyStats::default();
    for d in &dispatches {
        check_dispatch(d).map_err(|e| e.to_string())?;
        for s in &d.slices {
            stats.absorb(s);
        }
    }
    Ok(StaticReport {
        kernels: dispatches.len(),
        stats,
    })
}

/// Proves one dispatch sound: per-slice window checks, exact partition of
/// the grid, and the merged overcharge-ratio bound (the same three layers
/// [`simgpu::queue::CommandQueue`] applies at declare/commit time).
fn check_dispatch(d: &StaticDispatch) -> Result<(), AccessError> {
    let total = d.desc.total_groups();
    for s in &d.slices {
        if s.kernel != d.desc.name || s.total_groups != total {
            return Err(AccessError::GridMismatch {
                kernel: d.desc.name.clone(),
                detail: format!(
                    "slice declares kernel `{}` over a {}-group grid, dispatch is `{}` over {total}",
                    s.kernel, s.total_groups, d.desc.name
                ),
            });
        }
        verify_summary(s)?;
    }
    let ranges: Vec<Range<usize>> = d.slices.iter().map(|s| s.groups.clone()).collect();
    verify_partition(&d.desc.name, total, &ranges)?;
    // Merged ratio bound, mirroring `commit_sliced`: a single slice may
    // charge reads it does not declare (its halo lives in a neighbouring
    // slice); the whole dispatch must still balance.
    let declared_r: u64 = d.slices.iter().map(|s| s.declared_read_bytes()).sum();
    let charged_r = d.counters().global_read_bytes();
    let ratio = d.slices.iter().fold(1.0f64, |m, s| m.max(s.read_ratio));
    if charged_r != declared_r && charged_r as f64 > declared_r as f64 * ratio {
        return Err(AccessError::RatioExceeded {
            kernel: d.desc.name.clone(),
            declared: declared_r,
            charged: charged_r,
            ratio_bits: ratio.to_bits(),
        });
    }
    Ok(())
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

/// Builds a dispatch whose kernel goes through `summarize` on the live
/// path: every slice carries the whole-dispatch exact read-overcharge
/// ratio, exactly as [`crate::gpu::kernels::summarize`] stamps it.
fn make(
    desc: KernelDesc,
    group_rows: &[Range<usize>],
    build: impl Fn(Range<usize>) -> AccessSummary,
) -> StaticDispatch {
    let [gx, _] = desc.num_groups();
    let total = desc.total_groups();
    let ratio = build(0..total).exact_read_ratio();
    let slices = group_rows
        .iter()
        .map(|rows| {
            let mut s = build(rows.start * gx..rows.end * gx);
            s.read_ratio = ratio;
            s
        })
        .collect();
    StaticDispatch { desc, slices }
}

/// A monolithic (single full-grid slice) dispatch declared without the
/// `summarize` wrapper, keeping the constructor's default ratio — the
/// border and reduction kernels, whose accounting is exact.
fn raw(desc: KernelDesc, s: AccessSummary) -> StaticDispatch {
    StaticDispatch {
        desc,
        slices: vec![s],
    }
}

/// The four border dispatches of `upscale_border_gpu`, in issue order.
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
        let s = upscale_border_row_access(
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
        out.push(raw(desc, s));
    }
    for (name, src_col, dst_col) in [
        ("upscale_border_left", 0usize, 0usize),
        ("upscale_border_right", wd - 1, w - 2),
    ] {
        let desc = grid1d(name, (hd - 1).max(1), 64);
        let companion = if dst_col == 0 { 1 } else { w - 1 };
        let s = upscale_border_col_access(
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
        out.push(raw(desc, s));
    }
    out
}

/// The upscale-center dispatch over the given group-row slices.
fn center_dispatch(f: &Frame, opts: &OptConfig, slices: &[Range<usize>]) -> StaticDispatch {
    let (w, h, ws) = (f.w, f.h, f.ws);
    let (nx, ny) = (f.w4 - 1, f.h4 - 1);
    if opts.vectorization {
        let desc = grid2d("upscale_center_vec4", nx.div_ceil(4), ny);
        make(desc.clone(), slices, |g| {
            upscale_center_vec4_access(&desc, g, f.down.clone(), f.up.clone(), w, h, ws, f.tune)
        })
    } else {
        let desc = grid2d("upscale_center", nx, ny);
        make(desc.clone(), slices, |g| {
            upscale_center_scalar_access(&desc, g, f.down.clone(), f.up.clone(), w, h, ws, f.tune)
        })
    }
}

/// The Sobel dispatch over the given group-row slices.
fn sobel_dispatch(f: &Frame, opts: &OptConfig, slices: &[Range<usize>]) -> StaticDispatch {
    let (w, h, ws) = (f.w, f.h, f.ws);
    if opts.vectorization {
        let desc = grid2d("sobel_vec4", ws / 4, h);
        make(desc.clone(), slices, |g| {
            sobel_vec4_access(&desc, g, &f.padded_src, f.pedge.clone(), w, h, ws, f.tune)
        })
    } else {
        let desc = grid2d("sobel", w, h);
        make(desc.clone(), slices, |g| {
            sobel_scalar_access(&desc, g, &f.main_src, f.pedge.clone(), w, h, ws, f.tune)
        })
    }
}

/// The downscale dispatch over the given group-row slices.
fn downscale_dispatch(f: &Frame, slices: &[Range<usize>]) -> StaticDispatch {
    let (w, h) = (f.w, f.h);
    let desc = grid2d("downscale", f.w4, f.h4);
    make(desc.clone(), slices, |g| {
        downscale_access(&desc, g, &f.main_src, f.down.clone(), w, h, f.tune)
    })
}

/// Reduction stage 1 over the given *flat group* slices (1-D grid), each
/// slice declared exactly as `reduction_stage1_sliced` does.
fn stage1_dispatch(f: &Frame, tuning: &Tuning, slices: &[Range<usize>]) -> StaticDispatch {
    let desc = stage1_desc(f.ns, tuning.reduction_strategy);
    let partials = f.partials.clone().expect("gpu reduction declares partials");
    let strategy = tuning.reduction_strategy;
    let slices = slices
        .iter()
        .map(|g| {
            let (src, out) = (f.pedge.clone(), partials.clone());
            stage1_access(&desc, g.clone(), src, out, 0, f.ns, strategy)
        })
        .collect();
    StaticDispatch { desc, slices }
}

/// The sharpening-tail dispatches over the given group-row slices: one
/// fused dispatch, or the pError → preliminary → overshoot chain (in the
/// monolithic record order the banded executor also commits in).
fn tail_dispatches(f: &Frame, opts: &OptConfig, slices: &[Range<usize>]) -> Vec<StaticDispatch> {
    let (w, h, ws) = (f.w, f.h, f.ws);
    if opts.kernel_fusion {
        let d = if opts.vectorization {
            let desc = grid2d("sharpness_vec4", ws / 4, h);
            make(desc.clone(), slices, |g| {
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
            make(desc.clone(), slices, |g| {
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
        make(pe_desc.clone(), slices, |g| {
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
        make(pr_desc.clone(), slices, |g| {
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
        make(ov_desc.clone(), slices, |g| {
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
    Some(raw(
        desc.clone(),
        stage2_access(&desc, partials, groups, result),
    ))
}

/// The monolithic schedule: each kernel once over its full grid, in the
/// order of `run_frame_monolithic`.
fn monolithic(f: &Frame, opts: &OptConfig, tuning: &Tuning) -> Vec<StaticDispatch> {
    let full = |total_rows: usize| std::iter::once(0..total_rows).collect::<Vec<_>>();
    let mut out = Vec::new();
    out.push(downscale_dispatch(f, &full(f.h4.div_ceil(GROUP_ROWS))));
    if f.gpu_border(opts, tuning) {
        out.extend(border_dispatches(f));
    }
    if f.has_center() {
        out.push(center_dispatch(
            f,
            opts,
            &full((f.h4 - 1).div_ceil(GROUP_ROWS)),
        ));
    }
    out.push(sobel_dispatch(f, opts, &full(f.h.div_ceil(GROUP_ROWS))));
    if opts.reduction_gpu {
        out.push(stage1_dispatch(
            f,
            tuning,
            std::slice::from_ref(&(0..stage1_groups(f.ns))),
        ));
        out.extend(stage2_dispatch(f, tuning));
    }
    out.extend(tail_dispatches(f, opts, &full(f.h.div_ceil(GROUP_ROWS))));
    out
}

/// The banded schedule: the same dispatches as [`monolithic`], each sliced
/// into the band partition `run_frame_banded` issues, in commit order.
fn banded(f: &Frame, opts: &OptConfig, tuning: &Tuning, band_rows: usize) -> Vec<StaticDispatch> {
    let (h, ws) = (f.h, f.ws);
    let bg = effective_group_rows(band_rows, ws, h);
    let gtot = h.div_ceil(GROUP_ROWS);
    let d_groups = f.h4.div_ceil(GROUP_ROWS);
    let u_groups = if f.has_center() {
        (f.h4 - 1).div_ceil(GROUP_ROWS)
    } else {
        0
    };
    let s1_total = stage1_groups(f.ns);

    // Phase A slice partitions, replaying the band loop's cursors.
    let mut down_slices = Vec::new();
    let mut sobel_slices = Vec::new();
    let mut stage1_slices = Vec::new();
    let (mut cur_d, mut cur_s, mut cur_r) = (0usize, 0usize, 0usize);
    let mut g0 = 0usize;
    while g0 < gtot {
        let g1 = (g0 + bg).min(gtot);
        let r1 = (GROUP_ROWS * g1).min(h);
        let td = downscale_cursor(g1, gtot, d_groups);
        if td > cur_d {
            down_slices.push(cur_d..td);
            cur_d = td;
        }
        if g1 > cur_s {
            sobel_slices.push(cur_s..g1);
            cur_s = g1;
        }
        if opts.reduction_gpu {
            let tr = stage1_cursor(g1, gtot, r1, ws, s1_total);
            if tr > cur_r {
                stage1_slices.push(cur_r..tr);
                cur_r = tr;
            }
        }
        g0 = g1;
    }
    let chunked = |total: usize| -> Vec<Range<usize>> {
        let mut v = Vec::new();
        let mut g0 = 0usize;
        while g0 < total {
            let g1 = (g0 + bg).min(total);
            v.push(g0..g1);
            g0 = g1;
        }
        v
    };

    let mut out = Vec::new();
    out.push(downscale_dispatch(f, &down_slices));
    if f.gpu_border(opts, tuning) {
        out.extend(border_dispatches(f));
    }
    if f.has_center() {
        out.push(center_dispatch(f, opts, &chunked(u_groups)));
    }
    out.push(sobel_dispatch(f, opts, &sobel_slices));
    if opts.reduction_gpu {
        out.push(stage1_dispatch(f, tuning, &stage1_slices));
        out.extend(stage2_dispatch(f, tuning));
    }
    out.extend(tail_dispatches(f, opts, &chunked(gtot)));
    out
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
            for schedule in [Schedule::Monolithic, Schedule::Banded(64)] {
                let r = verify_static(1001, 701, &opts, &tuning, schedule)
                    .unwrap_or_else(|e| panic!("{opts:?} {schedule:?}: {e}"));
                assert!(r.kernels >= 4, "{opts:?}: only {} dispatches", r.kernels);
                assert!(r.stats.dispatches >= r.kernels as u64);
                assert!(r.stats.max_ratio_slack >= 0.0);
                assert!(r.stats.charged_write_bytes == r.stats.declared_write_bytes);
            }
        }
    }

    #[test]
    fn banded_slices_partition_each_grid() {
        let opts = OptConfig::all();
        let tuning = Tuning::default();
        let dispatches = enumerate_access(768, 768, &opts, &tuning, Schedule::Banded(64)).unwrap();
        // At least one dispatch is genuinely multi-slice at this shape.
        assert!(dispatches.iter().any(|d| d.slices.len() > 1));
        for d in &dispatches {
            let covered: usize = d.slices.iter().map(|s| s.groups.len()).sum();
            assert_eq!(covered, d.desc.total_groups(), "{}", d.desc.name);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(verify_static(
            2,
            2,
            &OptConfig::none(),
            &Tuning::default(),
            Schedule::Monolithic
        )
        .is_err());
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
        let names: Vec<String> = enumerate_access(256, 256, &opts, &tuning, Schedule::Monolithic)
            .unwrap()
            .into_iter()
            .map(|d| d.desc.name)
            .collect();
        assert!(names.iter().any(|n| n == "reduction_stage2"));
    }
}
