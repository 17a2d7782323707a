//! The frame program: the one description of everything a frame of the
//! pipeline issues, in the Section IV command order.
//!
//! The paper's five optimizations are edits to one command order — which
//! transfers, host stages, kernels and `clFinish` calls a frame issues.
//! [`FrameProgram::build`] writes that order down once, as data: for a
//! shape, an [`OptConfig`] and a [`Tuning`] it returns the frame's buffer
//! list and its ordered [`Step`]s — phase scopes (under the span names the
//! executor records), transfers, host stages with their cost, kernel
//! dispatches with their descriptor and declared [`AccessSummary`],
//! `finish` calls, and the points where fused host passes run. Building
//! is pure arithmetic: no device, queue, buffer or pixel is involved (a
//! lint rule keeps it that way).
//!
//! Three interpreters read the one list:
//!
//! * the executor ([`crate::gpu::pipeline`]) allocates the buffer list,
//!   performs each transfer and host stage, commits each dispatch with
//!   the step's own descriptor and declaration (binding the pixel body by
//!   kernel id) and runs the passes;
//! * the predictor ([`crate::tune::predict`]) folds the timing model over
//!   the steps — simulated time is an ordered sum in commit order, so the
//!   fold is `.to_bits()`-identical to execution;
//! * the static verifier ([`crate::gpu::verify`]) proves every dispatch's
//!   declaration sound.
//!
//! Host order is not part of the cost model: the passes say which
//! committed bodies run where, never what is recorded.

use simgpu::access::{AccessSummary, BufRef, Role};
use simgpu::cost::{CostCounters, OpCounts};
use simgpu::device::{CpuSpec, TransferModel};
use simgpu::kernel::KernelDesc;
use simgpu::par::WindowUnits;
use simgpu::timing::{
    bulk_transfer_time, cpu_stage_time, host_memcpy_time, map_transfer_time, rect_transfer_time,
};
use std::ops::Range;

use crate::gpu::kernels::downscale::{downscale_access, downscale_window};
use crate::gpu::kernels::perror::{perror_access, perror_window};
use crate::gpu::kernels::reduction::{
    stage1_access, stage1_desc, stage1_groups, stage1_window, stage2_access, stage2_desc,
    ReductionStrategy, ELEMS_PER_THREAD,
};
use crate::gpu::kernels::sharpen::{
    overshoot_access, overshoot_window, preliminary_access, sharpness_fused_access,
    sharpness_fused_vec4_access, sharpness_window,
};
use crate::gpu::kernels::sobel::{sobel_scalar_access, sobel_vec4_access, sobel_window};
use crate::gpu::kernels::upscale::{
    border_kernels, center_window, upscale_center_scalar_access, upscale_center_vec4_access,
    BorderKernel,
};
use crate::gpu::kernels::{full_grid, grid2d, KernelTuning, RowWindows, SrcInfo};
use crate::gpu::opts::{OptConfig, Tuning};
use crate::params::{check_shape, device_stride, SCALE};

/// The device buffers a frame can use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buf {
    /// The zero-padded source, `(ws + 2) × (h + 2)`.
    Padded,
    /// The raw original (base transfer mode only).
    Original,
    /// The downscaled image, `⌈w/4⌉ × ⌈h/4⌉`.
    Down,
    /// The upscaled image.
    Up,
    /// The Sobel edge matrix.
    PEdge,
    /// The sharpened output.
    Final,
    /// Reduction stage-1 partial sums (GPU reduction only).
    Partials,
    /// The stage-2 total (device stage 2 only).
    ReductionOut,
    /// The unfused tail's difference matrix.
    PError,
    /// The unfused tail's preliminary matrix.
    Prelim,
}

impl Buf {
    /// Number of buffer kinds.
    pub const COUNT: usize = 10;

    /// Every buffer kind, in allocation order.
    pub const ALL: [Buf; Buf::COUNT] = [
        Buf::Padded,
        Buf::Original,
        Buf::Down,
        Buf::Up,
        Buf::PEdge,
        Buf::Final,
        Buf::Partials,
        Buf::ReductionOut,
        Buf::PError,
        Buf::Prelim,
    ];

    /// Elements of the buffer in a frame of geometry `g`. Device
    /// intermediates live at the vec4-aligned row stride.
    pub fn len(self, g: &Geometry) -> usize {
        match self {
            Buf::Padded => g.pw * (g.h + 2),
            Buf::Original => g.n,
            Buf::Down => g.wd * g.hd,
            Buf::Up | Buf::PEdge | Buf::Final | Buf::PError | Buf::Prelim => g.ns,
            Buf::Partials => stage1_groups(g.ns),
            Buf::ReductionOut => 1,
        }
    }

    /// The buffer's label: its pool key and the name its transfers and
    /// declarations carry.
    pub fn label(self) -> &'static str {
        match self {
            Buf::Padded => "padded",
            Buf::Original => "original",
            Buf::Down => "down",
            Buf::Up => "up",
            Buf::PEdge => "pEdge",
            Buf::Final => "final",
            Buf::Partials => "partials",
            Buf::ReductionOut => "reduction_out",
            Buf::PError => "pError",
            Buf::Prelim => "prelim",
        }
    }
}

/// Frame geometry: the shape plus every size derived from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Image width.
    pub w: usize,
    /// Image height.
    pub h: usize,
    /// Pixels (`w * h`).
    pub n: usize,
    /// Vec4-aligned device row stride (`device_stride(w)`; equals `w`
    /// for multiple-of-4 widths).
    pub ws: usize,
    /// Elements of one strided device image (`ws * h`).
    pub ns: usize,
    /// Row pitch of the padded source (`ws + 2`).
    pub pw: usize,
    /// Downscaled width (`⌈w/4⌉`; ragged edge blocks average the pixels
    /// that exist).
    pub wd: usize,
    /// Downscaled height (`⌈h/4⌉`).
    pub hd: usize,
}

impl Geometry {
    /// The geometry of a `w × h` frame.
    pub fn new(w: usize, h: usize) -> Self {
        let ws = device_stride(w);
        Geometry {
            w,
            h,
            n: w * h,
            ws,
            ns: ws * h,
            pw: ws + 2,
            wd: w.div_ceil(SCALE),
            hd: h.div_ceil(SCALE),
        }
    }
}

/// How a transfer crosses the bus (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `clEnqueueRead/WriteBuffer`.
    Bulk,
    /// `clEnqueueRead/WriteBufferRect`: pads or crops during the copy.
    Rect,
    /// Map/unmap, each access crossing the link piecemeal.
    Map,
}

/// Which way a transfer goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Host to device.
    Write,
    /// Device to host.
    Read,
}

/// One host↔device transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// The device buffer it moves (the CPU border writes a region of
    /// [`Buf::Up`]).
    pub buf: Buf,
    /// The command name the queue records (`"rect-write:padded"`, ...).
    pub name: String,
    /// Bus mode.
    pub mode: Mode,
    /// Direction.
    pub dir: Dir,
    /// Bytes moved.
    pub bytes: u64,
    /// Rows of a rect transfer (unused otherwise).
    pub rows: u64,
}

impl Transfer {
    /// Simulated seconds of the transfer.
    pub fn seconds(&self, t: &TransferModel) -> f64 {
        match self.mode {
            Mode::Bulk => bulk_transfer_time(t, self.bytes),
            Mode::Rect => rect_transfer_time(t, self.rows, self.bytes),
            Mode::Map => map_transfer_time(t, self.bytes),
        }
    }
}

/// The work of a host stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostWork {
    /// The base upload pads the original on the host.
    Padding,
    /// The CPU upscale border (Section V-E).
    UpscaleBorder,
    /// The CPU reduction: a serial f64 sum of the whole pEdge matrix.
    Reduction,
    /// Host stage 2 of the GPU reduction: an f32 sum of the partials.
    ReductionStage2,
}

/// What a host stage costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostCost {
    /// Counted work, timed against the CPU model (the record keeps the
    /// counters).
    Counters(CostCounters),
    /// A memcpy of this many bytes.
    Memcpy(u64),
}

/// One host stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostStage {
    /// What runs.
    pub work: HostWork,
    /// What it costs.
    pub cost: HostCost,
}

impl HostStage {
    /// The command name the queue records.
    pub fn name(&self) -> &'static str {
        match self.work {
            HostWork::Padding => "host:padding",
            HostWork::UpscaleBorder => "host:upscale_border",
            HostWork::Reduction => "host:reduction",
            HostWork::ReductionStage2 => "host:reduction_stage2",
        }
    }

    /// Simulated seconds of the stage.
    pub fn seconds(&self, cpu: &CpuSpec) -> f64 {
        match self.cost {
            HostCost::Counters(c) => cpu_stage_time(cpu, &c),
            HostCost::Memcpy(bytes) => host_memcpy_time(cpu, bytes),
        }
    }
}

/// Which kernel a dispatch runs — what the executor binds the pixel body
/// by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelId {
    /// Downscale.
    Downscale,
    /// One of the four GPU border kernels.
    Border(BorderKernel),
    /// Scalar upscale center.
    Center,
    /// Vectorized upscale center.
    CenterVec4,
    /// Scalar Sobel.
    Sobel,
    /// Vectorized Sobel.
    SobelVec4,
    /// Reduction stage 1 with its tail strategy.
    Stage1(ReductionStrategy),
    /// Device reduction stage 2.
    Stage2,
    /// Fused sharpness, scalar.
    Sharpness,
    /// Fused sharpness, vectorized.
    SharpnessVec4,
    /// Unfused pError.
    Perror,
    /// Unfused preliminary.
    Preliminary,
    /// Unfused overshoot.
    Overshoot,
}

impl KernelId {
    /// The buffer the kernel writes.
    pub fn output(self) -> Buf {
        match self {
            KernelId::Downscale => Buf::Down,
            KernelId::Border(_) | KernelId::Center | KernelId::CenterVec4 => Buf::Up,
            KernelId::Sobel | KernelId::SobelVec4 => Buf::PEdge,
            KernelId::Stage1(_) => Buf::Partials,
            KernelId::Stage2 => Buf::ReductionOut,
            KernelId::Sharpness | KernelId::SharpnessVec4 | KernelId::Overshoot => Buf::Final,
            KernelId::Perror => Buf::PError,
            KernelId::Preliminary => Buf::Prelim,
        }
    }
}

/// A kernel family whose output rows a reader can rebuild from the
/// producer's own inputs instead of reading them from a plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Producer {
    /// The upscale kernels: `up` rows from `down`.
    Upscale,
    /// The Sobel kernels: `pEdge` rows from the padded source.
    Sobel,
}

impl KernelId {
    /// Frame elements one work-item covers along a row — 4 for a vec4
    /// item and for the 4-column block of a downscale or upscale item, 16
    /// for a vec4 upscale item, the eight elements a stage-1 item sums —
    /// which sizes the host pass it runs in.
    fn item_elems(self) -> usize {
        match self {
            KernelId::Downscale | KernelId::Center => SCALE,
            KernelId::CenterVec4 => 4 * SCALE,
            KernelId::SobelVec4 | KernelId::SharpnessVec4 => 4,
            KernelId::Stage1(_) => ELEMS_PER_THREAD,
            _ => 1,
        }
    }

    /// The rebuildable family the kernel's output belongs to, if any.
    fn produces(self) -> Option<Producer> {
        match self {
            KernelId::Border(_) | KernelId::Center | KernelId::CenterVec4 => {
                Some(Producer::Upscale)
            }
            KernelId::Sobel | KernelId::SobelVec4 => Some(Producer::Sobel),
            _ => None,
        }
    }

    /// Whether the kernel can rebuild, per unit, the rows of `family` it
    /// reads instead of reading them from a plane.
    fn rebuilds(self, family: Producer) -> bool {
        match family {
            Producer::Upscale => matches!(
                self,
                KernelId::Sharpness
                    | KernelId::SharpnessVec4
                    | KernelId::Perror
                    | KernelId::Preliminary
            ),
            Producer::Sobel => matches!(
                self,
                KernelId::Stage1(_) | KernelId::Sharpness | KernelId::SharpnessVec4
            ),
        }
    }

    /// Whether the kernel can write its cropped rows straight into the
    /// caller's frame.
    fn writes_frame(self) -> bool {
        matches!(
            self,
            KernelId::Sharpness | KernelId::SharpnessVec4 | KernelId::Overshoot
        )
    }
}

/// Where a buffer's values live on the host when the context neither
/// sanitizes nor validates. Those contexts keep every buffer a plane,
/// because they observe each dispatch's writes in its own buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Storage {
    /// A full plane.
    Plane,
    /// No storage: every reader rebuilds the rows it reads from what the
    /// writers read, and the writers are committed without a body.
    Rebuilt,
    /// No storage: the writers write the frame's output, and the output
    /// readback only charges its record.
    Output,
}

/// One kernel dispatch: its descriptor plus the whole-grid access summary
/// it declares.
pub struct StaticDispatch {
    /// The dispatch descriptor (name, grid geometry).
    pub desc: KernelDesc,
    /// The dispatch's declaration; its `charged` counters are what the
    /// committed kernel record carries.
    pub access: AccessSummary,
}

/// A pass part's window→units map (see [`simgpu::queue::Part`]): which
/// of the dispatch's units run in each window.
pub type UnitsMap = Box<dyn Fn(usize) -> WindowUnits + Send + Sync>;

/// A point where committed bodies run as one host pass: the number of row
/// windows, and the parts — each the step index of a committed dispatch
/// with its window map.
pub struct Pass {
    /// Row windows of the pass.
    pub windows: usize,
    /// The dispatches the pass runs, with their window maps.
    pub parts: Vec<(usize, UnitsMap)>,
}

/// One step of a frame.
pub enum Step {
    /// Opens a phase span.
    Open(&'static str),
    /// Closes the open phase span.
    Close,
    /// A host↔device transfer.
    Transfer(Transfer),
    /// A host stage.
    Host(HostStage),
    /// A kernel dispatch, committed at this point of the order.
    Dispatch(KernelId, StaticDispatch),
    /// `clFinish`: charged only when commands are pending.
    Finish,
    /// Committed bodies run here, before the host reads their outputs.
    Pass(Pass),
}

/// Where a configuration places the reduction's final sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reduction {
    /// The whole pEdge matrix is read back and summed on the host.
    Cpu,
    /// Stage 1 on the device, the partials summed on the host.
    HostStage2,
    /// Both stages on the device.
    DeviceStage2,
}

/// One frame of the pipeline, as data: buffers and ordered steps.
pub struct FrameProgram {
    pub(crate) g: Geometry,
    pub(crate) gpu_border: bool,
    pub(crate) reduction: Reduction,
    buffers: Vec<(Buf, usize)>,
    steps: Vec<Step>,
}

impl FrameProgram {
    /// The program of one `w × h` frame under `opts` and `tuning`.
    ///
    /// # Errors
    /// On unsupported shapes (below the 3×3 minimum).
    pub fn build(
        w: usize,
        h: usize,
        opts: &OptConfig,
        tuning: &Tuning,
    ) -> Result<FrameProgram, String> {
        check_shape(w, h)?;
        let g = Geometry::new(w, h);
        let (gpu_border, reduction) = placement(&g, opts, tuning);
        let mut b = Builder::new(g, opts);
        b.frame(gpu_border, reduction, tuning.reduction_strategy);
        Ok(FrameProgram {
            g,
            gpu_border,
            reduction,
            buffers: buffer_list(&g, opts, reduction),
            steps: b.steps,
        })
    }

    /// The device buffers the frame allocates, in allocation order, with
    /// their lengths in elements.
    pub fn buffers(&self) -> &[(Buf, usize)] {
        &self.buffers
    }

    /// The frame's steps, in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Each buffer's [`Storage`], indexed by [`Buf`], from which steps
    /// write and read it — transfers by their buffer, dispatches by the
    /// windows they declare — never from the config or the shape:
    ///
    /// * [`Storage::Rebuilt`] when no transfer moves the buffer, every
    ///   writer belongs to one rebuildable family (the upscale kernels for
    ///   `up`, the Sobel kernels for `pEdge`) and every reader can rebuild
    ///   that family's rows itself;
    /// * [`Storage::Output`] when the only transfer is the frame's output
    ///   readback (the program's last read), no dispatch reads it and
    ///   every writer can write the caller's frame;
    /// * [`Storage::Plane`] otherwise.
    pub(crate) fn storage(&self) -> [Storage; Buf::COUNT] {
        let output = self
            .steps
            .iter()
            .rposition(|s| matches!(s, Step::Transfer(t) if t.dir == Dir::Read));
        Buf::ALL.map(|b| {
            let declares = |d: &StaticDispatch, role| {
                d.access
                    .windows
                    .iter()
                    .any(|w| w.role == role && w.buffer.label == b.label())
            };
            let (mut transfers, mut read_out) = (0, false);
            let (mut writers, mut readers) = (Vec::new(), Vec::new());
            for (i, step) in self.steps.iter().enumerate() {
                match step {
                    Step::Transfer(t) if t.buf == b => {
                        transfers += 1;
                        read_out |= Some(i) == output;
                    }
                    Step::Dispatch(id, d) => {
                        if declares(d, Role::Write) {
                            writers.push(*id);
                        }
                        if declares(d, Role::Read) {
                            readers.push(*id);
                        }
                    }
                    _ => {}
                }
            }
            let written = !writers.is_empty();
            let family = writers.first().and_then(|k| k.produces());
            let rebuilt = family.is_some_and(|f| {
                writers.iter().all(|k| k.produces() == Some(f))
                    && readers.iter().all(|k| k.rebuilds(f))
            });
            if transfers == 0 && rebuilt && !readers.is_empty() {
                Storage::Rebuilt
            } else if transfers == 1
                && read_out
                && written
                && readers.is_empty()
                && writers.iter().all(|k| k.writes_frame())
            {
                Storage::Output
            } else {
                Storage::Plane
            }
        })
    }

    /// Full-size `f32` streams a frame touches on the host on a context
    /// that neither sanitizes nor validates: the caller's input and output
    /// frames, and every buffer of at least the frame's size that
    /// [`FrameProgram::storage`] keeps as a plane.
    pub(crate) fn host_streams(&self) -> u64 {
        let storage = self.storage();
        let planes = self
            .buffers
            .iter()
            .filter(|&&(b, len)| len >= self.g.n && storage[b as usize] == Storage::Plane)
            .count();
        2 + planes as u64
    }

    /// The steps, for tests that edit a program.
    #[cfg(test)]
    pub(crate) fn steps_mut(&mut self) -> &mut Vec<Step> {
        &mut self.steps
    }

    /// The kernel dispatches, in commit order.
    pub fn into_dispatches(self) -> Vec<StaticDispatch> {
        self.steps
            .into_iter()
            .filter_map(|s| match s {
                Step::Dispatch(_, d) => Some(d),
                _ => None,
            })
            .collect()
    }
}

/// Bytes of device memory one `w × h` frame allocates under `opts` and
/// `tuning`: the sum of the program's buffer list.
pub fn device_bytes(w: usize, h: usize, opts: &OptConfig, tuning: &Tuning) -> u64 {
    let g = Geometry::new(w, h);
    let (_, reduction) = placement(&g, opts, tuning);
    buffer_list(&g, opts, reduction)
        .iter()
        .map(|&(_, len)| len as u64 * 4)
        .sum()
}

/// Where the border and the reduction's final sum run: the border on the
/// device from the tuned crossover width up (Section V-E), stage 2 on the
/// device above the tuned partial count (Section V-C).
fn placement(g: &Geometry, opts: &OptConfig, tuning: &Tuning) -> (bool, Reduction) {
    let gpu_border = opts.border_gpu && g.w >= tuning.border_gpu_min_width;
    let reduction = if !opts.reduction_gpu {
        Reduction::Cpu
    } else if stage1_groups(g.ns) > tuning.stage2_gpu_threshold {
        Reduction::DeviceStage2
    } else {
        Reduction::HostStage2
    };
    (gpu_border, reduction)
}

/// Every device buffer a frame allocates, in allocation order.
fn buffer_list(g: &Geometry, opts: &OptConfig, reduction: Reduction) -> Vec<(Buf, usize)> {
    use Buf::*;
    let used = |b: &Buf| match b {
        Original => !opts.data_transfer,
        Partials => reduction != Reduction::Cpu,
        ReductionOut => reduction == Reduction::DeviceStage2,
        PError | Prelim => !opts.kernel_fusion,
        Padded | Down | Up | PEdge | Final => true,
    };
    Buf::ALL
        .into_iter()
        .filter(used)
        .map(|b| (b, b.len(g)))
        .collect()
}

/// The descriptor and declaration of kernel `id` in a frame of geometry
/// `g` under `tune`, from its family's closed-form constructors: what the
/// program commits for it. `bufs` names every buffer, indexed by [`Buf`];
/// downscale, scalar Sobel and pError read the raw original when `raw`,
/// the padded source otherwise.
pub(crate) fn declare(
    id: KernelId,
    g: &Geometry,
    t: KernelTuning,
    raw: bool,
    bufs: &[BufRef; Buf::COUNT],
) -> StaticDispatch {
    let Geometry {
        w,
        h,
        ws,
        ns,
        wd,
        hd,
        ..
    } = *g;
    let [padded, original, down, up, pedge, fin, parts, total, perr, prelim] = bufs;
    let padded = &SrcInfo {
        buf: padded.clone(),
        pitch: g.pw,
        pad: 1,
    };
    let main = &if raw {
        SrcInfo {
            buf: original.clone(),
            pitch: w,
            pad: 0,
        }
    } else {
        padded.clone()
    };
    // A row-span kernel over a 2-D grid, declared through `full_grid`.
    let grid = |name, nx, ny, build: &dyn Fn(&KernelDesc, Range<usize>) -> AccessSummary| {
        let desc = grid2d(name, nx, ny);
        let access = full_grid(&desc, |g| build(&desc, g));
        StaticDispatch { desc, access }
    };
    let mut d = match id {
        KernelId::Downscale => grid("downscale", wd, hd, &|d, g| {
            downscale_access(d, g, main, down, w, h, t)
        }),
        KernelId::Border(k) => StaticDispatch {
            desc: k.desc(w, h),
            access: k.access(down, up, w, h, ws, t),
        },
        KernelId::Center => grid("upscale_center", wd - 1, hd - 1, &|d, g| {
            upscale_center_scalar_access(d, g, down, up, w, h, ws, t)
        }),
        KernelId::CenterVec4 => grid(
            "upscale_center_vec4",
            (wd - 1).div_ceil(4),
            hd - 1,
            &|d, g| upscale_center_vec4_access(d, g, down, up, w, h, ws, t),
        ),
        KernelId::Sobel => grid("sobel", w, h, &|d, g| {
            sobel_scalar_access(d, g, main, pedge, w, h, ws, t)
        }),
        KernelId::SobelVec4 => grid("sobel_vec4", ws / 4, h, &|d, g| {
            sobel_vec4_access(d, g, padded, pedge, w, h, ws, t)
        }),
        KernelId::Stage1(strategy) => {
            let desc = stage1_desc(ns, strategy);
            let groups = 0..desc.total_groups();
            let access = stage1_access(&desc, groups, pedge, parts, ns, strategy);
            StaticDispatch { desc, access }
        }
        KernelId::Stage2 => {
            let desc = stage2_desc();
            let access = stage2_access(&desc, parts, stage1_groups(ns), total);
            StaticDispatch { desc, access }
        }
        KernelId::Sharpness => grid("sharpness", w, h, &|d, g| {
            sharpness_fused_access(d, g, padded, up, pedge, fin, w, h, ws, t)
        }),
        KernelId::SharpnessVec4 => grid("sharpness_vec4", ws / 4, h, &|d, g| {
            sharpness_fused_vec4_access(d, g, padded, up, pedge, fin, w, h, ws, t)
        }),
        KernelId::Perror => grid("perror", w, h, &|d, g| {
            perror_access(d, g, main, up, perr, w, h, ws, t)
        }),
        KernelId::Preliminary => grid("preliminary", w, h, &|d, g| {
            preliminary_access(d, g, up, pedge, perr, prelim, w, h, ws, t)
        }),
        KernelId::Overshoot => grid("overshoot", w, h, &|d, g| {
            overshoot_access(d, g, padded, prelim, fin, w, h, ws, t)
        }),
    };
    d.desc.item_elems = id.item_elems();
    d
}

/// Builds the step list.
struct Builder {
    g: Geometry,
    opts: OptConfig,
    /// Every buffer's identity as declarations name it, indexed by [`Buf`].
    bufs: [BufRef; Buf::COUNT],
    steps: Vec<Step>,
}

impl Builder {
    fn new(g: Geometry, opts: &OptConfig) -> Self {
        Builder {
            g,
            opts: *opts,
            bufs: Buf::ALL.map(|b| BufRef::f32(b.label(), b.len(&g))),
            steps: Vec::new(),
        }
    }

    /// The inter-stage `clFinish`, elided when the `others` optimization
    /// removes redundant synchronisation.
    fn sync(&mut self) {
        if !self.opts.others {
            self.steps.push(Step::Finish);
        }
    }

    /// The transfer mode of whole-buffer copies: bulk when
    /// `data_transfer` is on, map/unmap otherwise.
    fn whole_mode(&self) -> Mode {
        if self.opts.data_transfer {
            Mode::Bulk
        } else {
            Mode::Map
        }
    }

    fn transfer(&mut self, buf: Buf, label: &str, mode: Mode, dir: Dir, bytes: usize, rows: usize) {
        let prefix = match (mode, dir) {
            (Mode::Bulk, Dir::Write) => "write:",
            (Mode::Bulk, Dir::Read) => "read:",
            (Mode::Rect, Dir::Write) => "rect-write:",
            (Mode::Rect, Dir::Read) => "rect-read:",
            (Mode::Map, Dir::Write) => "map-write:",
            (Mode::Map, Dir::Read) => "map-read:",
        };
        self.steps.push(Step::Transfer(Transfer {
            buf,
            name: format!("{prefix}{label}"),
            mode,
            dir,
            bytes: bytes as u64,
            rows: rows as u64,
        }));
    }

    /// A whole-buffer read back to the host.
    fn read_back(&mut self, buf: Buf) {
        let mode = self.whole_mode();
        let bytes = buf.len(&self.g) * 4;
        self.transfer(buf, buf.label(), mode, Dir::Read, bytes, 0);
    }

    fn host(&mut self, work: HostWork, cost: CostCounters) {
        let cost = HostCost::Counters(cost);
        self.steps.push(Step::Host(HostStage { work, cost }));
    }

    /// Adds kernel `id`'s dispatch step without a sync; returns its index.
    fn add_kernel(&mut self, id: KernelId) -> usize {
        let tune = KernelTuning {
            others: self.opts.others,
        };
        let d = declare(id, &self.g, tune, !self.opts.data_transfer, &self.bufs);
        self.steps.push(Step::Dispatch(id, d));
        self.steps.len() - 1
    }

    /// Adds kernel `id`'s dispatch step and the inter-stage sync; returns its
    /// step index.
    fn kernel(&mut self, id: KernelId) -> usize {
        let i = self.add_kernel(id);
        self.sync();
        i
    }

    fn pass(&mut self, windows: usize, parts: Vec<(usize, UnitsMap)>) {
        self.steps.push(Step::Pass(Pass { windows, parts }));
    }

    fn open(&mut self, name: &'static str) {
        self.steps.push(Step::Open(name));
    }

    fn close(&mut self) {
        self.steps.push(Step::Close);
    }

    /// The whole frame in the Section IV order. Every dispatch is
    /// committed at its place in the order; the committed bodies run in
    /// fused passes at the first point the host needs their outputs:
    /// pass A (downscale, Sobel and stage 1 over row windows, then the
    /// GPU border kernels) before pEdge, the partials or the mean are
    /// read back, pass B (upscale center plus the sharpening tail) before
    /// the final readback. With the CPU border, downscale runs alone
    /// before `down` is read back.
    fn frame(&mut self, gpu_border: bool, reduction: Reduction, strategy: ReductionStrategy) {
        let g = self.g;
        let (vec4, fused) = (self.opts.vectorization, self.opts.kernel_fusion);

        // ---- uploads (Section V-A) ------------------------------------
        // The padded buffer's one-pixel border is zeroed at allocation and
        // never written afterwards (both upload paths touch only the
        // interior).
        self.open("upload");
        if self.opts.data_transfer {
            // One rect-write places the original inside the pre-zeroed
            // padded buffer: padding happens during the transfer.
            self.transfer(Buf::Padded, "padded", Mode::Rect, Dir::Write, g.n * 4, g.h);
        } else {
            // Base: the host pads, then both matrices go up through
            // map/unmap.
            let bytes = Buf::Padded.len(&g) * 4;
            let cost = HostCost::Memcpy(bytes as u64);
            self.steps.push(Step::Host(HostStage {
                work: HostWork::Padding,
                cost,
            }));
            self.transfer(Buf::Padded, "padded", Mode::Map, Dir::Write, bytes, 0);
            self.transfer(Buf::Original, "original", Mode::Map, Dir::Write, g.n * 4, 0);
        }
        self.sync();
        self.close();

        self.open("downscale");
        let downscale = self.kernel(KernelId::Downscale);
        self.close();

        // ---- upscale: border (Section V-E), then center -----------------
        self.open("upscale");
        let mut border = Vec::new();
        if gpu_border {
            for k in border_kernels(g.w, g.h) {
                border.push(whole(self.add_kernel(KernelId::Border(k))));
            }
            self.sync();
        } else {
            // The host reads `down` back: downscale runs now, alone.
            self.pass(1, vec![whole(downscale)]);
            self.read_back(Buf::Down);
            self.host(HostWork::UpscaleBorder, border_host_counters(g.w, g.h));
            let (mode, bytes) = (self.whole_mode(), border_elems(g.w, g.h) as usize * 4);
            self.transfer(Buf::Up, "up_border", mode, Dir::Write, bytes, 0);
        }
        // Images below 5 pixels on an axis have no interior 4×4 blocks:
        // the border covered every pixel.
        let center = (g.wd > 1 && g.hd > 1).then(|| {
            self.kernel(if vec4 {
                KernelId::CenterVec4
            } else {
                KernelId::Center
            })
        });
        self.close();

        self.open("sobel");
        let sobel = self.kernel(if vec4 {
            KernelId::SobelVec4
        } else {
            KernelId::Sobel
        });
        self.close();

        // ---- reduction (Section V-C), after pass A ----------------------
        // Pass A runs over `RowWindows::pass_a` windows, so Sobel reads
        // the source rows downscale just read and stage 1 the pEdge rows
        // Sobel just wrote; then the GPU border kernels, each of which
        // reads a whole edge of `down`.
        self.open("reduction");
        let win = RowWindows::pass_a(g.h, g.ws);
        let mut pass_a: Vec<(usize, UnitsMap)> = Vec::new();
        if gpu_border {
            pass_a.push((downscale, Box::new(move |x| downscale_window(&win, x))));
        }
        pass_a.push((sobel, Box::new(move |x| sobel_window(&win, x))));
        if reduction != Reduction::Cpu {
            let stage1 = self.kernel(KernelId::Stage1(strategy));
            let (ws, ns) = (g.ws, g.ns);
            pass_a.push((stage1, Box::new(move |x| stage1_window(&win, ws, ns, x))));
        }
        self.pass(win.count, pass_a);
        if !border.is_empty() {
            self.pass(1, border);
        }
        match reduction {
            Reduction::Cpu => {
                // The whole pEdge matrix crosses the bus, then a serial
                // host sum (Fig. 16's CPU side). Its stride padding is
                // exact zeros, so summing all `ns` elements is the cropped
                // sum.
                self.read_back(Buf::PEdge);
                self.host(HostWork::Reduction, host_sum_counters(g.ns));
            }
            Reduction::DeviceStage2 => {
                // Stage 2 on the device, then a single-value readback.
                let stage2 = self.kernel(KernelId::Stage2);
                self.pass(1, vec![whole(stage2)]);
                self.read_back(Buf::ReductionOut);
            }
            Reduction::HostStage2 => {
                // Stage 2 on the host: the small partial array crosses
                // the bus.
                self.read_back(Buf::Partials);
                let groups = stage1_groups(g.ns);
                self.host(HostWork::ReductionStage2, host_sum_counters(groups));
            }
        }
        self.close();

        // ---- sharpening tail (Section V-B), run as pass B ----------------
        self.open("sharpen");
        let (h, win) = (g.h, RowWindows::of_height(g.h));
        let mut pass_b: Vec<(usize, UnitsMap)> = Vec::new();
        if let Some(c) = center {
            pass_b.push((c, Box::new(center_window)));
        }
        let tail = if fused && vec4 {
            vec![KernelId::SharpnessVec4]
        } else if fused {
            vec![KernelId::Sharpness]
        } else {
            vec![KernelId::Perror, KernelId::Preliminary, KernelId::Overshoot]
        };
        for id in tail {
            let k = self.kernel(id);
            let units: UnitsMap = match id {
                KernelId::Perror => Box::new(move |x| perror_window(&win, x)),
                KernelId::Overshoot => Box::new(move |x| overshoot_window(&win, h, x)),
                _ => Box::new(move |x| sharpness_window(&win, x)),
            };
            pass_b.push((k, units));
        }
        self.pass(win.count, pass_b);
        self.close();

        // ---- readback: the end-of-frame finish, then the final image -----
        self.open("readback");
        self.steps.push(Step::Finish);
        if g.ws == g.w {
            self.read_back(Buf::Final);
        } else if self.opts.data_transfer {
            // Rect read crops the stride padding during the transfer, the
            // mirror of the rect-write upload.
            self.transfer(Buf::Final, "final", Mode::Rect, Dir::Read, g.n * 4, g.h);
        } else {
            self.transfer(Buf::Final, "final", Mode::Map, Dir::Read, g.ns * 4, 0);
        }
        self.close();
    }
}

/// Every unit of a dispatch in a pass's single window.
fn whole(step: usize) -> (usize, UnitsMap) {
    let all = |_| WindowUnits {
        units: 0..usize::MAX,
        lag: 0,
    };
    (step, Box::new(all))
}

/// Host-side cost of summing `n` f32 values read back from the device: one
/// add and one 4-byte read each. The one recipe of both `host:reduction`
/// (the whole pEdge matrix) and `host:reduction_stage2` (the stage-1
/// partials).
pub fn host_sum_counters(n: usize) -> CostCounters {
    let mut c = CostCounters::new();
    c.charge_ops_n(&OpCounts::ZERO.adds(1), n as u64);
    c.global_read_scalar = n as u64 * 4;
    c
}

/// The two outer lines at each end of an axis of length `n ≥ 3`
/// (`0, 1, n-2, n-1`), in order, with the duplicate a 3-long axis produces
/// (line 1 is both second and second-to-last) skipped. Fixed-size, so the
/// per-frame border path stays allocation-free.
pub(crate) fn border_lines(n: usize) -> impl Iterator<Item = usize> {
    let lines = [0, 1, n - 2, n - 1];
    (0..4)
        .filter(move |&i| i == 0 || lines[i] != lines[i - 1])
        .map(move |i| lines[i])
}

/// Elements the CPU border path writes back to the device: the border
/// rows in full plus the border columns of body rows `2 ..= h-3`,
/// deduplicated for tiny shapes. The one count of the `write:up_border`
/// transfer.
pub fn border_elems(w: usize, h: usize) -> u64 {
    let rows = border_lines(h).count() * w;
    let cols = border_lines(w).count() * (2..h.saturating_sub(2)).len();
    (rows + cols) as u64
}

/// Host-side cost counters of the CPU upscale-border stage, the closed
/// form of `cpu::stages::upscale_border_into`'s counted loops.
pub fn border_host_counters(w: usize, h: usize) -> CostCounters {
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let mut interp = 0u64;
    let mut copied = 0u64;
    // Two horizontal border-row passes.
    for _ in 0..2 {
        if wd >= 2 {
            for bi in 0..wd - 1 {
                interp += (w as i64 - 4 - 4 * bi as i64).clamp(0, 4) as u64;
            }
            copied += 4;
        } else {
            copied += w as u64;
        }
        copied += w as u64; // companion-row copy
    }
    // Two vertical border-column passes over body rows 2 ..= h-3.
    for _ in 0..2 {
        for bj in 0..hd.saturating_sub(1) {
            interp += (h as i64 - 4 - 4 * bj as i64).clamp(0, 4) as u64;
        }
        copied += (2..h.saturating_sub(2)).len() as u64; // companion-column copy
    }
    let mut c = CostCounters::new();
    c.charge_ops_n(&OpCounts::ZERO.muls(2).adds(1), interp);
    c.global_read_scalar = (interp * 2 + copied) * 4;
    c.global_write_scalar = (interp + copied + 8) * 4;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::stages as cpu_stages;
    use imagekit::ImageF32;

    #[test]
    fn storage_drops_up_pedge_and_final_where_the_steps_allow() {
        let tunings = [
            Tuning::default(),
            Tuning {
                border_gpu_min_width: 0,
                stage2_gpu_threshold: 0,
                ..Tuning::default()
            },
        ];
        for (w, h) in [
            (64, 64),
            (767, 9),
            (768, 9),
            (1001, 701),
            (3, 3),
            (4, 9),
            (7, 5),
        ] {
            for tuning in &tunings {
                for bits in 0..64 {
                    let opts = OptConfig::from_bits(bits);
                    let prog = FrameProgram::build(w, h, &opts, tuning).unwrap();
                    let storage = prog.storage();
                    for b in Buf::ALL {
                        let want = match b {
                            Buf::Up if prog.gpu_border => Storage::Rebuilt,
                            Buf::PEdge
                                if prog.reduction != Reduction::Cpu && opts.kernel_fusion =>
                            {
                                Storage::Rebuilt
                            }
                            Buf::Final => Storage::Output,
                            _ => Storage::Plane,
                        };
                        assert_eq!(storage[b as usize], want, "{w}x{h} {opts:?} {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn storage_follows_the_steps() {
        let opts = OptConfig::all();
        let gpu_border = Tuning {
            border_gpu_min_width: 0,
            ..Tuning::default()
        };
        let storage = |prog: &FrameProgram, b: Buf| prog.storage()[b as usize];
        // Any other transfer of a buffer keeps its plane: here a readback
        // of `up` before the sharpening tail.
        let mut prog = FrameProgram::build(64, 64, &opts, &gpu_border).unwrap();
        assert_eq!(storage(&prog, Buf::Up), Storage::Rebuilt);
        let at = prog
            .steps
            .iter()
            .position(|s| matches!(s, Step::Open("sharpen")))
            .unwrap();
        let mut b = Builder::new(prog.g, &opts);
        b.read_back(Buf::Up);
        prog.steps.splice(at..at, b.steps);
        assert_eq!(storage(&prog, Buf::Up), Storage::Plane);
        assert_eq!(storage(&prog, Buf::Final), Storage::Output);
        // A buffer read back that is not the frame's last read stays a
        // plane (pEdge under the CPU reduction), as does one a dispatch
        // reads besides its readback.
        let prog = FrameProgram::build(64, 64, &OptConfig::none(), &gpu_border).unwrap();
        assert_eq!(storage(&prog, Buf::PEdge), Storage::Plane);
        // Without a final readback the output has no reader to serve.
        let mut prog = FrameProgram::build(64, 64, &opts, &gpu_border).unwrap();
        prog.steps
            .retain(|s| !matches!(s, Step::Transfer(t) if t.buf == Buf::Final));
        assert_eq!(storage(&prog, Buf::Final), Storage::Plane);
    }

    #[test]
    fn pedge_is_rebuilt_where_every_reader_rebuilds_sobel_rows() {
        let storage = |prog: &FrameProgram| prog.storage()[Buf::PEdge as usize];
        let strategies = [
            ReductionStrategy::NoUnroll,
            ReductionStrategy::UnrollOne,
            ReductionStrategy::UnrollTwo,
        ];
        for stage2_gpu_threshold in [0, usize::MAX] {
            for reduction_strategy in strategies {
                let tuning = Tuning {
                    stage2_gpu_threshold,
                    reduction_strategy,
                    ..Tuning::default()
                };
                for vectorization in [false, true] {
                    // Stage 1 on the device and the fused tail: both
                    // readers rebuild their Sobel rows.
                    let opts = OptConfig {
                        vectorization,
                        ..OptConfig::all()
                    };
                    let prog = FrameProgram::build(101, 37, &opts, &tuning).unwrap();
                    assert_eq!(storage(&prog), Storage::Rebuilt, "{tuning:?} {opts:?}");
                    // The unfused preliminary reads the plane.
                    let unfused = OptConfig {
                        kernel_fusion: false,
                        ..opts
                    };
                    let prog = FrameProgram::build(101, 37, &unfused, &tuning).unwrap();
                    assert_eq!(storage(&prog), Storage::Plane, "{tuning:?} {unfused:?}");
                }
            }
        }
        // The CPU reduction reads the whole matrix back.
        let cpu = OptConfig {
            reduction_gpu: false,
            ..OptConfig::all()
        };
        let prog = FrameProgram::build(101, 37, &cpu, &Tuning::default()).unwrap();
        assert_eq!(storage(&prog), Storage::Plane);
        // So does an edited program that adds a pEdge readback.
        let opts = OptConfig::all();
        let mut prog = FrameProgram::build(101, 37, &opts, &Tuning::default()).unwrap();
        let at = prog
            .steps
            .iter()
            .position(|s| matches!(s, Step::Open("sharpen")))
            .unwrap();
        let mut b = Builder::new(prog.g, &opts);
        b.read_back(Buf::PEdge);
        prog.steps.splice(at..at, b.steps);
        assert_eq!(storage(&prog), Storage::Plane);
    }

    #[test]
    fn border_elems_counts_tiny_shapes() {
        // 3×3: rows {0,1,2} cover everything; the column loop is empty.
        assert_eq!(border_elems(3, 3), 9);
        // 3×9: rows {0,1,7,8} × 3 = 12, columns {0,1,2} on rows 2..=6 = 15.
        assert_eq!(border_elems(3, 9), 27);
        // 8×8: rows {0,1,6,7} = 32, columns {0,1,6,7} on rows 2..=5 = 16.
        assert_eq!(border_elems(8, 8), 48);
    }

    #[test]
    fn border_host_counters_match_the_counted_cpu_stage() {
        // For multiple-of-4 shapes every interpolation window is full:
        // 2 row passes × 15 windows × 4 + 2 column passes × 15 × 4 = 240.
        let c = border_host_counters(64, 64);
        assert_eq!(c.ops.mul, 240 * 2);
        assert_eq!(c.ops.add, 240);
        // The closed form is exactly what the CPU stage counts, ragged and
        // tiny shapes included.
        for (w, h) in [
            (64usize, 64usize),
            (3, 3),
            (3, 9),
            (8, 3),
            (1001, 701),
            (1023, 769),
        ] {
            let down = ImageF32::zeros(w.div_ceil(SCALE), h.div_ceil(SCALE));
            let mut up = ImageF32::zeros(w, h);
            let counted = cpu_stages::upscale_border_into(&down, &mut up);
            assert_eq!(border_host_counters(w, h), counted, "{w}x{h}");
        }
    }
}
