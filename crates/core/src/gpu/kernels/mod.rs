//! The OpenCL-style device kernels of the sharpness pipeline.
//!
//! Every kernel exists in the variants the paper evaluates: scalar
//! one-pixel-per-thread (base) and vectorized four-pixels-per-thread with
//! `vload4`/`vstore4` (Section V-D); reading the raw original buffer (base)
//! or the padded buffer uploaded with one rect transfer (Section V-A);
//! separate pError/preliminary/overshoot kernels (base) or the fused
//! `sharpness` kernel (Section V-B); and the reduction strategies of
//! Section V-C (basic tree, unroll-last-one-wavefront,
//! unroll-last-two-wavefronts).
//!
//! All kernels are *functionally real* — they produce the same pixels as
//! the CPU reference, enforced bit-exactly by the test suite. Their cost is
//! not counted while they run: each kernel family's closed-form `*_access`
//! constructor declares, for any work-group range, both the windows the
//! dispatch touches and its full [`simgpu::cost::CostCounters`] (traffic,
//! ops, barriers, divergence, LDS, groups/lanes/items) for the access
//! pattern it embodies. The frame program (`gpu::program`) calls
//! these constructors once; the queue charges the resulting declaration,
//! and the static verifier and the cost predictor read the same one.
//!
//! The 2-D row-span kernels (downscale, upscale center, Sobel, pError,
//! preliminary, overshoot, sharpness) dispatch by work-group row
//! ([`simgpu::queue::CommandQueue::run_rows`]): the host walks each image row across all
//! of a group row's groups before the next, so every plane streams in row
//! order instead of as one 16-row tile per group. The reduction (local
//! memory and barriers) and the upscale border kernels dispatch per group.
//!
//! Every kernel exposes its pixel body (`*_body`), which the pipeline
//! binds to a program step's descriptor and declaration and commits.
//! Each kernel that takes part in a fused host pass also gives a
//! closed-form window→units map over [`RowWindows`] (`*_window`): which
//! of its units run in a window of rows, and how many of them read the
//! previous window.

pub mod downscale;
pub mod perror;
pub mod reduction;
pub mod sharpen;
pub mod simd;
pub mod sobel;
pub mod upscale;

use simgpu::access::{AccessSummary, BufRef};
use simgpu::buffer::{Buffer, GlobalView, GlobalWriteView};
use simgpu::cost::OpCounts;
use simgpu::kernel::{round_up, KernelDesc, RowCtx};
use simgpu::par::WindowUnits;

use crate::params::SCALE;
use reduction::ELEMS_PER_GROUP;

/// A device image a kernel reads from: the view plus its geometry.
///
/// The base pipeline uploads the raw `w × h` original; the optimized
/// pipeline uploads only the `(w+2) × (h+2)` zero-padded matrix
/// (`pad = 1`). Kernels index through [`SrcImage::idx`] so the same kernel
/// body works against either.
#[derive(Clone)]
pub struct SrcImage {
    /// View of the device buffer.
    pub view: GlobalView<f32>,
    /// Row pitch of the buffer (image width + 2·pad).
    pub pitch: usize,
    /// Padding border width (0 = raw original, 1 = padded).
    pub pad: usize,
}

impl SrcImage {
    /// Flat index of logical image coordinate `(x, y)` — coordinates are in
    /// the *unpadded* image frame and may be `-pad ..= dim-1+pad` when the
    /// buffer is padded.
    #[inline]
    pub fn idx(&self, x: isize, y: isize) -> usize {
        let px = x + self.pad as isize;
        let py = y + self.pad as isize;
        debug_assert!(
            px >= 0 && py >= 0,
            "index ({x},{y}) outside source (pad {})",
            self.pad
        );
        py as usize * self.pitch + px as usize
    }
}

/// Kernel-level tuning derived from the optimization flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTuning {
    /// Section V-F "other optimizations": built-in `select`/`clamp`
    /// (removing divergent branches) and shift/mask instruction selection
    /// (removing integer div/rem from index arithmetic).
    pub others: bool,
}

impl KernelTuning {
    /// Per-item index-arithmetic recipe: computing the global index and
    /// vector offsets costs an integer division/remainder in the naive
    /// kernels, replaced by shifts and masks when `others` is on
    /// (Section V-F "Instruction selection").
    pub fn idx_ops(&self) -> OpCounts {
        if self.others {
            OpCounts::ZERO.muls(1).adds(2).bits(2)
        } else {
            OpCounts::ZERO.muls(1).adds(2).divs(1)
        }
    }

    /// Extra divergent-branch events per item for branchy clamp/select
    /// logic: built-ins (`clamp`, `min`, `max`, `select`) remove them.
    pub fn clamp_divergence(&self) -> u64 {
        if self.others {
            0
        } else {
            1
        }
    }
}

/// The static half of [`SrcImage`]: buffer identity plus geometry, enough
/// for an access-summary constructor to compute indices without holding a
/// live view. The frame program builds these from pure arithmetic (no
/// buffers allocated).
#[derive(Debug, Clone)]
pub struct SrcInfo {
    /// Buffer identity (label, length, element size).
    pub buf: BufRef,
    /// Row pitch of the buffer (image width + 2·pad).
    pub pitch: usize,
    /// Padding border width (0 = raw original, 1 = padded).
    pub pad: usize,
}

impl SrcInfo {
    /// The static description of a live [`SrcImage`].
    pub fn of(src: &SrcImage) -> Self {
        SrcInfo {
            buf: src.view.info(),
            pitch: src.pitch,
            pad: src.pad,
        }
    }

    /// Flat index of logical image coordinate `(x, y)`, identically to
    /// [`SrcImage::idx`].
    #[inline]
    pub fn idx(&self, x: isize, y: isize) -> usize {
        let px = x + self.pad as isize;
        let py = y + self.pad as isize;
        py as usize * self.pitch + px as usize
    }
}

/// Where a kernel that writes the frame's output puts its rows: the
/// device buffer (at its row stride), or — when that buffer has no host
/// storage — straight into the caller's `w × h` frame, cropped.
#[derive(Clone)]
pub(crate) enum RowSink {
    /// The output buffer's write view and row stride.
    Plane(GlobalWriteView<f32>, usize),
    /// The caller's frame.
    Frame(FrameRows),
}

impl RowSink {
    /// The sink of the output buffer `buf` at row stride `ws`.
    pub(crate) fn plane(buf: &Buffer<f32>, ws: usize) -> Self {
        RowSink::Plane(buf.write_view(), ws)
    }

    /// Stores `row` as the pixels of row `y` from column `x` on. In the
    /// frame, columns from `w` on (the stride padding) are dropped.
    #[inline]
    pub(crate) fn put(&self, y: usize, x: usize, row: &[f32]) {
        match self {
            RowSink::Plane(view, ws) => view.set_span_raw(y * ws + x, row),
            RowSink::Frame(f) => f.put(y, x, row),
        }
    }
}

/// The caller's `w × h` output frame as the bodies of one frame write it:
/// a raw pointer, so a `'static` body can hold it.
#[derive(Clone)]
pub(crate) struct FrameRows {
    ptr: *mut f32,
    w: usize,
    h: usize,
}

// SAFETY: the bodies write disjoint rows of the frame (every unit owns
// its group row's pixels — the declaration's write windows, which commit
// verifies disjoint), and the contract of `FrameRows::new` keeps the
// frame alive and unaliased while any copy exists.
unsafe impl Send for FrameRows {}
unsafe impl Sync for FrameRows {}

impl FrameRows {
    /// The frame `out` of `w × h` pixels (`out.len() == w * h`).
    ///
    /// # Safety
    /// No copy of the result may be used after `out`'s borrow ends, and
    /// nothing else may read or write `out` while a body that holds one
    /// can run. The executor keeps this by dropping every body it
    /// committed before the call that lent it `out` returns.
    pub(crate) unsafe fn new(out: &mut [f32], w: usize, h: usize) -> Self {
        debug_assert_eq!(out.len(), w * h);
        FrameRows {
            ptr: out.as_mut_ptr(),
            w,
            h: h.min(out.len() / w.max(1)),
        }
    }

    #[inline]
    fn put(&self, y: usize, x: usize, row: &[f32]) {
        if y >= self.h || x >= self.w {
            return;
        }
        let n = row.len().min(self.w - x);
        // SAFETY: `y < h` and `x + n <= w` keep the copy inside the
        // frame, which `new`'s contract keeps alive; units write disjoint
        // pixels.
        unsafe {
            std::ptr::copy_nonoverlapping(row.as_ptr(), self.ptr.add(y * self.w + x), n);
        }
    }
}

/// The whole-grid declaration a row-span kernel dispatches with: its
/// closed-form constructor `build` over every work-group, stamped with the
/// exact read-overcharge ratio.
pub(crate) fn full_grid(
    desc: &KernelDesc,
    build: impl FnOnce(std::ops::Range<usize>) -> AccessSummary,
) -> AccessSummary {
    let mut s = build(0..desc.total_groups());
    s.read_ratio = s.exact_read_ratio();
    s
}

/// Image rows of the unit `rc` of a row dispatch over `h` image rows.
pub(crate) fn unit_rows(rc: &RowCtx, h: usize) -> std::ops::Range<usize> {
    rc.global_y(0).min(h)..rc.global_y(rc.group_size[1]).min(h)
}

/// Image rows covered by the flat group range `groups` of a 2-D dispatch
/// over `ny` logical rows (ranges always cover whole work-group rows).
pub(crate) fn covered_rows(
    desc: &KernelDesc,
    groups: &std::ops::Range<usize>,
    ny: usize,
) -> std::ops::Range<usize> {
    let [gx, _] = desc.num_groups();
    let gy0 = groups.start / gx;
    let gy1 = groups.end.div_ceil(gx);
    (gy0 * GROUP_2D[1]).min(ny)..(gy1 * GROUP_2D[1]).min(ny)
}

/// Image rows of a covered row range that the 3×3-window kernels treat as
/// body rows (the strict interior of the image); empty when the image has
/// no interior (`w <= 2` or `h <= 2`).
pub(crate) fn interior_rows(
    rows: &std::ops::Range<usize>,
    w: usize,
    h: usize,
) -> std::ops::Range<usize> {
    if w <= 2 || h <= 2 {
        return 0..0;
    }
    let lo = rows.start.max(1);
    let hi = rows.end.min(h - 1).max(lo);
    lo..hi
}

/// Per-column-group body spans `(body_lo, blen)` of the scalar 3×3-window
/// kernels: each 16-wide column group clips its span to the image
/// interior; groups with no body columns are skipped (the kernels guard
/// `body_hi > body_lo`).
pub(crate) fn body_columns(w: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    if w <= 2 {
        return v;
    }
    let mut x_start = 0usize;
    while x_start < w {
        let x_end = (x_start + GROUP_2D[0]).min(w);
        let lo = x_start.max(1);
        let hi = x_end.min(w - 1);
        if hi > lo {
            v.push((lo, hi - lo));
        }
        x_start += GROUP_2D[0];
    }
    v
}

/// Per-column-group body spans of the vectorized 3×3-window kernels:
/// `4 × 16` pixels per group over the device stride `ws`, clipped to the
/// image interior *unconditionally* — `blen` may be zero, in which case the
/// kernels still issue the two-element halo loads.
pub(crate) fn vec4_body_columns(w: usize, ws: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    let mut x_start = 0usize;
    while x_start < ws {
        let x_end = (x_start + 4 * GROUP_2D[0]).min(ws);
        let lo = x_start.max(1);
        let hi = x_end.min(w.saturating_sub(1)).max(lo);
        v.push((lo, hi - lo));
        x_start += 4 * GROUP_2D[0];
    }
    v
}

/// The standard 2-D work-group shape used by the image kernels.
pub const GROUP_2D: [usize; 2] = [16, 16];

/// Image rows per window of a fused host pass: one downscale or
/// upscale-center group row, four 16-row group rows of the full-size
/// kernels.
pub(crate) const WINDOW_ROWS: usize = SCALE * GROUP_2D[1];

/// The row windows of a fused host pass: `count` windows of `rows` image
/// rows each (the last one ragged). Every kernel module maps a window to
/// its units with a pure function next to its `*_access` constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowWindows {
    /// Image rows per window, a multiple of [`WINDOW_ROWS`].
    pub(crate) rows: usize,
    /// Number of windows.
    pub(crate) count: usize,
}

impl RowWindows {
    /// Windows of [`WINDOW_ROWS`] rows over an `h`-row frame — the
    /// upscale-center + sharpening-tail pass.
    pub(crate) fn of_height(h: usize) -> Self {
        RowWindows {
            rows: WINDOW_ROWS,
            count: h.div_ceil(WINDOW_ROWS),
        }
    }

    /// The downscale + Sobel + stage-1 pass over an `h`-row frame at
    /// device stride `ws`. A stage-1 group (1024 pEdge elements) spans at
    /// most 64 rows from stride 16 up, so it reads at most one window
    /// back; narrower strides run the pass as a single window.
    pub(crate) fn pass_a(h: usize, ws: usize) -> Self {
        if ws * WINDOW_ROWS >= ELEMS_PER_GROUP {
            Self::of_height(h)
        } else {
            RowWindows {
                rows: h.div_ceil(WINDOW_ROWS) * WINDOW_ROWS,
                count: 1,
            }
        }
    }

    /// Window `w`'s units of a 2-D row dispatch whose group rows cover
    /// `unit_rows` image rows each, the first `lag` of them held back at a
    /// run boundary (the pass clamps the range to the grid).
    pub(crate) fn band(&self, w: usize, unit_rows: usize, lag: usize) -> WindowUnits {
        let per = self.rows / unit_rows;
        WindowUnits {
            units: w * per..(w + 1) * per,
            lag: if w > 0 { lag } else { 0 },
        }
    }
}

/// Builds a 2-D dispatch covering `nx × ny` items, rounded up to whole
/// 16×16 groups (kernels bounds-check the overhang, as real OpenCL kernels
/// do).
pub fn grid2d(name: &str, nx: usize, ny: usize) -> KernelDesc {
    KernelDesc::new(
        name,
        [round_up(nx, GROUP_2D[0]), round_up(ny, GROUP_2D[1])],
        GROUP_2D,
    )
}

/// Builds a 1-D dispatch of `n` items in groups of `group`, rounded up.
pub fn grid1d(name: &str, n: usize, group: usize) -> KernelDesc {
    KernelDesc::new_1d(name, round_up(n, group), group)
}

/// Shared checks for the per-family declaration tests: any row split of a
/// grid must declare, merged, exactly what the whole grid declares.
#[cfg(test)]
pub(crate) mod split_check {
    use super::*;
    use simgpu::cost::CostCounters;

    /// The ragged and tiny shapes every family is split-checked on.
    pub(crate) const SHAPES: [(usize, usize); 4] = [(1001, 701), (1023, 769), (5, 7), (3, 3)];

    /// Both instruction-selection variants (their op recipes differ).
    pub(crate) const TUNINGS: [KernelTuning; 2] = [
        KernelTuning { others: false },
        KernelTuning { others: true },
    ];

    /// The raw original (`pad = 0`) and the padded upload (`pad = 1`, at
    /// the device stride) of a `w × h` frame, as the kernels see them.
    pub(crate) fn sources(w: usize, h: usize) -> (SrcInfo, SrcInfo) {
        let pw = crate::params::device_stride(w) + 2;
        let raw = SrcInfo {
            buf: BufRef::f32("original", w * h),
            pitch: w,
            pad: 0,
        };
        let padded = SrcInfo {
            buf: BufRef::f32("padded", pw * (h + 2)),
            pitch: pw,
            pad: 1,
        };
        (raw, padded)
    }

    /// Asserts that every split of `desc`'s grid into contiguous slices of
    /// whole `unit`-group runs (group rows for 2-D grids, single groups
    /// for 1-D ones) declares, merged, exactly the
    /// whole-grid counters — field for field, `items`, `groups` and
    /// `local_alloc_bytes` included. Covers every 2- and 3-way split over
    /// up to 48 cut points (evenly spread beyond that, empty slices
    /// included) and the finest split.
    pub(crate) fn assert_splits_merge(
        desc: &KernelDesc,
        unit: usize,
        build: impl Fn(std::ops::Range<usize>) -> AccessSummary,
    ) {
        let n = desc.total_groups() / unit;
        let full = build(0..desc.total_groups()).charged;
        let merged = |cuts: &[usize]| {
            let mut c = CostCounters::new();
            let mut start = 0;
            for &end in cuts.iter().chain(std::iter::once(&n)) {
                c.merge(&build(start * unit..end * unit).charged);
                start = end;
            }
            c
        };
        let points: Vec<usize> = (0..=48.min(n)).map(|i| i * n / 48.min(n).max(1)).collect();
        for (i, &a) in points.iter().enumerate() {
            assert_eq!(merged(&[a]), full, "{}: split at {a} of {n}", desc.name);
            for &b in &points[i..] {
                assert_eq!(
                    merged(&[a, b]),
                    full,
                    "{}: split at {a}, {b} of {n}",
                    desc.name
                );
            }
        }
        let finest: Vec<usize> = (1..n).collect();
        assert_eq!(merged(&finest), full, "{}: finest split of {n}", desc.name);
    }
}

/// Runs kernel `id` of a frame of geometry `g` now, for the kernel
/// tests: the frame program's own declaration of it
/// ([`crate::gpu::program::declare`], base tuning) naming the test's
/// buffers `bufs` in place of the frame's — the raw original as the
/// source when it is among them, as in the base pipeline — with the body
/// `bind` attaches, through [`CommandQueue::dispatch`], which checks the
/// output for write races.
#[cfg(test)]
pub(crate) fn run_declared(
    q: &mut simgpu::queue::CommandQueue,
    id: crate::gpu::program::KernelId,
    g: &crate::gpu::program::Geometry,
    bufs: &[(crate::gpu::program::Buf, &Buffer<f32>)],
    bind: impl FnOnce(KernelDesc, AccessSummary) -> simgpu::queue::Dispatch,
) -> simgpu::error::Result<simgpu::timing::KernelTime> {
    use crate::gpu::program::{declare, Buf};
    let mut names = Buf::ALL.map(|b| BufRef::f32(b.label(), b.len(g)));
    for (b, buf) in bufs {
        names[*b as usize] = buf.info();
    }
    let raw = bufs.iter().any(|&(b, _)| b == Buf::Original);
    let d = declare(id, g, KernelTuning::default(), raw, &names);
    let (_, out) = bufs
        .iter()
        .find(|&&(b, _)| b == id.output())
        .expect("the kernel's output among the test's buffers");
    q.dispatch(bind(d.desc, d.access), &[*out])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::context::Context;
    use simgpu::device::DeviceSpec;

    #[test]
    fn src_image_indexing_raw_and_padded() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let raw = SrcImage {
            view: ctx.buffer::<f32>("o", 64).view(),
            pitch: 8,
            pad: 0,
        };
        assert_eq!(raw.idx(3, 2), 2 * 8 + 3);
        let padded = SrcImage {
            view: ctx.buffer::<f32>("p", 100).view(),
            pitch: 10,
            pad: 1,
        };
        assert_eq!(padded.idx(0, 0), 11);
        assert_eq!(padded.idx(-1, -1), 0);
        assert_eq!(padded.idx(8, 8), 99);
    }

    #[test]
    fn grids_round_up() {
        let d = grid2d("k", 100, 50);
        assert_eq!(d.global, [112, 64]);
        assert!(d.check().is_ok());
        let d = grid1d("r", 1000, 128);
        assert_eq!(d.global, [1024, 1]);
    }

    #[test]
    fn idx_ops_swap_div_for_bits() {
        let base = KernelTuning { others: false };
        let opt = KernelTuning { others: true };
        assert_eq!(base.idx_ops().div, 1);
        assert_eq!(base.idx_ops().bit, 0);
        assert_eq!(opt.idx_ops().div, 0);
        assert_eq!(opt.idx_ops().bit, 2);
        assert_eq!(base.clamp_divergence(), 1);
        assert_eq!(opt.clamp_divergence(), 0);
    }
}
