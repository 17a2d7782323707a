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
//! pattern it embodies. The queue charges that declaration, and the static
//! verifier and the cost predictor call the very same constructors.
//!
//! The 2-D row-span kernels (downscale, upscale center, Sobel, pError,
//! preliminary, overshoot, sharpness) dispatch by work-group row
//! ([`Launch::dispatch_rows`]): the host walks each image row across all
//! of a group row's groups before the next, so every plane streams in row
//! order instead of as one 16-row tile per group. The reduction (local
//! memory and barriers) and the upscale border kernels dispatch per group.

pub mod downscale;
pub mod perror;
pub mod reduction;
pub mod sharpen;
pub mod simd;
pub mod sobel;
pub mod upscale;

use simgpu::access::{AccessSummary, BufRef};
use simgpu::buffer::GlobalView;
use simgpu::cost::OpCounts;
use simgpu::error::Result;
use simgpu::kernel::{round_up, GroupCtx, KernelDesc, RowCtx};
use simgpu::queue::{CommandQueue, SlicedDispatch, WriteTracked};
use simgpu::timing::KernelTime;

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
/// live view. The `core::gpu::verify` enumerator builds these from pure
/// arithmetic (no buffers allocated).
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

/// How a kernel dispatch executes: as one whole-grid `run` (recording its
/// command immediately, the monolithic schedule) or as a contiguous
/// work-group-row slice of the grid merged into a megapass accumulator.
/// Sliced launches record nothing — the banded scheduler commits the
/// accumulator once per frame via
/// [`simgpu::queue::CommandQueue::commit_sliced`], producing the identical
/// single kernel record (same counters, same simulated time) the
/// monolithic dispatch would have.
pub enum Launch<'a> {
    /// Whole-grid dispatch.
    Full,
    /// Execute only this contiguous range of work-group *rows* (a group
    /// row is `num_groups()[0]` consecutive flat group indices; for 1-D
    /// grids it is one work-group).
    Slice(std::ops::Range<usize>, &'a mut SlicedDispatch),
}

impl Launch<'_> {
    /// The flat work-group range this launch covers.
    pub(crate) fn groups(&self, desc: &KernelDesc) -> std::ops::Range<usize> {
        match self {
            Launch::Full => 0..desc.total_groups(),
            Launch::Slice(rows, _) => {
                let [gx, _] = desc.num_groups();
                rows.start * gx..rows.end * gx
            }
        }
    }

    /// Dispatches `f` over `desc` per the launch mode, with `access` (its
    /// closed-form declaration for [`Launch::groups`]) as the dispatch's
    /// one cost declaration. Sliced launches return a zero [`KernelTime`]:
    /// the simulated cost is charged at commit, not here.
    pub(crate) fn dispatch<F>(
        self,
        q: &mut CommandQueue,
        desc: &KernelDesc,
        access: AccessSummary,
        outputs: &[&dyn WriteTracked],
        f: F,
    ) -> Result<KernelTime>
    where
        F: Fn(&mut GroupCtx) + Sync,
    {
        match self {
            Launch::Full => q.run(desc, access, outputs, f),
            Launch::Slice(_, acc) => {
                q.run_sliced(desc, access, outputs, acc, f)?;
                Ok(KernelTime::default())
            }
        }
    }

    /// [`Launch::dispatch`] with the work-group row as the unit of host
    /// work: `f` runs once per group row and walks each image row across
    /// all of the row's groups before the next, so the host streams whole
    /// rows instead of 16-row tiles. Same declaration, records and
    /// simulated time as per-group execution; for the row-span kernels,
    /// which use no local memory and no barrier.
    pub(crate) fn dispatch_rows<F>(
        self,
        q: &mut CommandQueue,
        desc: &KernelDesc,
        access: AccessSummary,
        outputs: &[&dyn WriteTracked],
        f: F,
    ) -> Result<KernelTime>
    where
        F: Fn(&mut RowCtx) + Sync,
    {
        match self {
            Launch::Full => q.run_rows(desc, access, outputs, f),
            Launch::Slice(_, acc) => {
                q.run_sliced_rows(desc, access, outputs, acc, f)?;
                Ok(KernelTime::default())
            }
        }
    }
}

/// Builds the access summary for a launch via the kernel's closed-form
/// constructor `build`, carrying the *whole-dispatch* exact read-overcharge
/// ratio on every slice: the ratio bounds the dispatch totals (a
/// border-only slice may charge reads while declaring none), exactly as
/// the dynamic audit applies it at commit.
pub(crate) fn summarize(
    launch: &Launch<'_>,
    desc: &KernelDesc,
    build: impl Fn(std::ops::Range<usize>) -> AccessSummary,
) -> AccessSummary {
    let full = build(0..desc.total_groups());
    let ratio = full.exact_read_ratio();
    let groups = launch.groups(desc);
    let mut s = if groups == (0..desc.total_groups()) {
        full
    } else {
        build(groups)
    };
    s.read_ratio = ratio;
    s
}

/// Image rows covered by the flat group range `groups` of a 2-D dispatch
/// over `ny` logical rows (slices always cover whole work-group rows).
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
    /// for 1-D ones) declares, with the commit's merge, exactly the
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
