//! The GPU pipeline: host program orchestrating transfers, kernels and
//! CPU-side stages according to an [`OptConfig`].
//!
//! With all flags off this is the naive port of Section IV: map/unmap
//! transfers of both the original and the padded matrix (padding done by
//! the host), scalar one-pixel-per-thread kernels, the upscale border and
//! the reduction on the CPU, separate pError/preliminary/overshoot
//! kernels, and a `finish()` after every command. Each flag applies one of
//! the paper's optimizations (Section V); see [`OptConfig`].
//!
//! The command order itself is a `FrameProgram`; this module is its
//! executor. It allocates the program's buffer list once per plan and
//! walks the steps frame after frame: each transfer in the step's mode,
//! each host stage charged with the step's cost, each dispatch committed
//! with the step's own descriptor and declaration (the pixel body bound by
//! kernel id), each pass run over its row windows.
//!
//! The pipeline is *functionally real*: it produces the same pixels as
//! [`crate::cpu::CpuPipeline`] (bit-exactly when the reduction runs on the
//! CPU; within float-summation tolerance when the tree reduction runs on
//! the device), while the queue's virtual clock produces the simulated
//! time the figures report.

use imagekit::{ImageF32, ImageU8};
use simgpu::buffer::Buffer;
use simgpu::context::Context;
use simgpu::kernel::{GroupCtx, RowCtx};
use simgpu::queue::{CommandKind, CommandQueue, Dispatch, Part, Pending, WriteTracked};
use simgpu::span::SpanKind;
use simgpu::timing::host_memcpy_time;

use crate::cpu::stages as cpu_stages;
use crate::gpu::batch::FrameComponents;
use crate::gpu::kernels::downscale::downscale_body;
use crate::gpu::kernels::perror::perror_body;
use crate::gpu::kernels::reduction::{
    stage1_body, stage1_groups, stage1_rebuilt_body, stage2_body,
};
use crate::gpu::kernels::sharpen::{
    overshoot_body, preliminary_body, sharpness_fused_body, sharpness_fused_vec4_body,
};
use crate::gpu::kernels::sobel::{sobel_scalar_body, sobel_vec4_body, EdgeSource};
use crate::gpu::kernels::upscale::{
    upscale_center_scalar_body, upscale_center_vec4_body, UpSource,
};
use crate::gpu::kernels::{FrameRows, RowSink, SrcImage};
use crate::gpu::opts::{OptConfig, Tuning};
use crate::gpu::program::{
    border_lines, Buf, Dir, FrameProgram, Geometry, HostCost, HostStage, HostWork, KernelId, Mode,
    Reduction, StaticDispatch, Step, Storage, Transfer,
};
use crate::params::SharpnessParams;
use crate::report::{RunReport, StageRecord};

/// The frame a run reads: an `f32` plane, or 8-bit pixels that the upload
/// widens to `f32` as it copies each row into the device buffer, so the
/// host never builds an `f32` plane. Both upload the same values: pixels,
/// command records and simulated seconds are identical.
#[derive(Debug, Clone, Copy)]
pub enum InputFrame<'a> {
    /// An `f32` plane.
    F32(&'a ImageF32),
    /// 8-bit pixels.
    U8(&'a ImageU8),
}

impl<'a> From<&'a ImageF32> for InputFrame<'a> {
    fn from(img: &'a ImageF32) -> Self {
        InputFrame::F32(img)
    }
}

impl<'a> From<&'a ImageU8> for InputFrame<'a> {
    fn from(img: &'a ImageU8) -> Self {
        InputFrame::U8(img)
    }
}

impl InputFrame<'_> {
    /// Width in pixels.
    pub fn width(self) -> usize {
        match self {
            InputFrame::F32(img) => img.width(),
            InputFrame::U8(img) => img.width(),
        }
    }

    /// Height in pixels.
    pub fn height(self) -> usize {
        match self {
            InputFrame::F32(img) => img.height(),
            InputFrame::U8(img) => img.height(),
        }
    }

    /// Copies row `y` into `dst` (the row's width), widening 8-bit pixels.
    fn copy_row(self, y: usize, dst: &mut [f32]) {
        let w = dst.len();
        match self {
            InputFrame::F32(img) => dst.copy_from_slice(&img.pixels()[y * w..(y + 1) * w]),
            InputFrame::U8(img) => {
                for (d, &s) in dst.iter_mut().zip(&img.pixels()[y * w..(y + 1) * w]) {
                    *d = f32::from(s);
                }
            }
        }
    }
}

/// The OpenCL-style sharpness pipeline on the simulated GPU.
#[derive(Clone)]
pub struct GpuPipeline {
    ctx: Context,
    params: SharpnessParams,
    opts: OptConfig,
    tuning: Tuning,
}

impl GpuPipeline {
    /// Creates a pipeline on `ctx` with the given parameters and
    /// optimization flags, using default tuning.
    pub fn new(ctx: Context, params: SharpnessParams, opts: OptConfig) -> Self {
        GpuPipeline {
            ctx,
            params,
            opts,
            tuning: Tuning::default(),
        }
    }

    /// Overrides the tuning thresholds/strategies.
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The optimization flags in effect.
    pub fn opts(&self) -> &OptConfig {
        &self.opts
    }

    /// The sharpening parameters in effect.
    pub fn params(&self) -> &SharpnessParams {
        &self.params
    }

    /// The tuning in effect.
    pub fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    /// The context this pipeline dispatches to.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// The frame program for `width`×`height` frames, after validating
    /// the parameters.
    fn program(&self, width: usize, height: usize) -> Result<FrameProgram, String> {
        let prog = FrameProgram::build(width, height, &self.opts, &self.tuning)?;
        self.params.validate()?;
        Ok(prog)
    }

    /// Runs the pipeline on `orig` (an [`ImageF32`] or an [`ImageU8`]),
    /// returning the sharpened image and the simulated command-level time
    /// breakdown.
    ///
    /// Each call allocates a fresh set of device buffers; for repeated
    /// frames of one shape, [`GpuPipeline::prepared`] amortises that setup.
    /// As in [`PipelinePlan::run_into`], the sharpening pass writes the
    /// output image itself unless the context sanitizes or validates, so
    /// no `final` (or, with the border on the device, `up`) plane is
    /// allocated.
    ///
    /// # Errors
    /// On unsupported shapes, invalid parameters, or simulated-runtime
    /// faults (write races under a validating context).
    pub fn run<'a>(&self, orig: impl Into<InputFrame<'a>>) -> Result<RunReport, String> {
        let orig = orig.into();
        let (q, out) = self.run_once(orig)?;
        Ok(report_from_queue(&q, orig.width(), orig.height(), out))
    }

    /// Like [`GpuPipeline::run`], additionally deriving per-kernel
    /// efficiency telemetry from the frame's command records.
    ///
    /// The execution path is *identical* to [`GpuPipeline::run`] — the
    /// telemetry is read off the finished queue afterwards, so pixels and
    /// simulated seconds are bit-identical with telemetry on or off (the
    /// observation-only invariant, test-enforced across all 64 configs).
    ///
    /// # Errors
    /// As for [`GpuPipeline::run`].
    pub fn run_with_telemetry<'a>(
        &self,
        orig: impl Into<InputFrame<'a>>,
    ) -> Result<(RunReport, crate::telemetry::FrameTelemetry), String> {
        let orig = orig.into();
        let (q, out) = self.run_once(orig)?;
        let tel = crate::telemetry::FrameTelemetry::collect(
            q.records(),
            q.device(),
            orig.width(),
            orig.height(),
        );
        Ok((report_from_queue(&q, orig.width(), orig.height(), out), tel))
    }

    /// One frame on fresh resources and a fresh queue.
    fn run_once(&self, orig: InputFrame) -> Result<(CommandQueue, Vec<f32>), String> {
        let prog = self.program(orig.width(), orig.height())?;
        let mut res = FrameResources::new(&self.ctx, &prog);
        let mut q = self.ctx.queue();
        let mut out = vec![0.0f32; prog.g.n];
        self.run_frame(&mut q, &prog, &mut res, orig, &mut out)?;
        Ok((q, out))
    }

    /// Prepares a reusable execution plan for `width`×`height` frames: the
    /// frame program is built and all device buffers are allocated once,
    /// then reused across [`PipelinePlan::run`] calls.
    ///
    /// # Errors
    /// On unsupported shapes or invalid parameters.
    pub fn prepared(&self, width: usize, height: usize) -> Result<PipelinePlan, String> {
        let prog = self.program(width, height)?;
        let res = FrameResources::new(&self.ctx, &prog);
        Ok(PipelinePlan {
            pipe: self.clone(),
            q: self.ctx.queue(),
            prog,
            res,
        })
    }

    /// Executes one frame of `prog` against pre-allocated resources,
    /// recording commands on `q` (which the caller has reset) and writing
    /// the sharpened pixels into `out` (`w × h`).
    ///
    /// The bodies committed on `q` may hold `out` (the [`FrameRows`] of
    /// a [`Storage::Output`] buffer). None of them survives this call:
    /// a pass drops the bodies it ran, a failed command or a panicking
    /// body drops every pending one, and whatever a failed step left
    /// pending is discarded here before returning.
    fn run_frame(
        &self,
        q: &mut CommandQueue,
        prog: &FrameProgram,
        res: &mut FrameResources,
        orig: InputFrame,
        out: &mut [f32],
    ) -> Result<(), String> {
        let g = &prog.g;
        if (orig.width(), orig.height()) != (g.w, g.h) {
            return Err(format!(
                "frame is {}x{}, plan prepared for {}x{}",
                orig.width(),
                orig.height(),
                g.w,
                g.h
            ));
        }
        // The frame scope roots the span tree; disabled spans make
        // open/close no-ops, so the execution path is shared.
        let frame_span = q.span_open(SpanKind::Frame, "frame");
        let result = self.run_steps(q, prog, res, orig, out);
        q.drop_pending();
        q.span_close(frame_span);
        result
    }

    /// Walks the program's steps. Every dispatch is committed — its
    /// record, simulated time and access log entry — at its place in the
    /// order; the queue runs the bodies at the program's passes. Only the
    /// host order differs from running each dispatch when it is
    /// committed, which sanitized and validated contexts still do.
    fn run_steps(
        &self,
        q: &mut CommandQueue,
        prog: &FrameProgram,
        res: &mut FrameResources,
        orig: InputFrame,
        out: &mut [f32],
    ) -> Result<(), String> {
        let g = &prog.g;
        let (padded, main) = res.dev.sources(g);
        // The caller's frame goes either to the tail's bodies, which write
        // it when `final` is an output, or to the final readback.
        let (frame, mut out) = if res.storage(Buf::Final) == Storage::Output {
            // SAFETY: `out` moves into `frame` and is not used again; the
            // bodies holding `frame` are committed on `q`, and `run_frame`
            // drops every one of them before `out`'s borrow ends.
            (Some(unsafe { FrameRows::new(out, g.w, g.h) }), None)
        } else {
            (None, Some(out))
        };
        let mut handles: Vec<Option<Pending>> = vec![None; prog.steps().len()];
        let mut phase = None;
        // The pEdge mean, bound into the sharpening tail's bodies once the
        // reduction steps have produced it.
        let mut mean = 0.0f32;
        for (i, step) in prog.steps().iter().enumerate() {
            match step {
                Step::Open(name) => phase = Some(q.span_open(SpanKind::Phase, name)),
                Step::Close => {
                    if let Some(p) = phase.take() {
                        q.span_close(p);
                    }
                }
                Step::Finish => q.finish(),
                Step::Transfer(t) => {
                    self.transfer(q, g, res, t, orig, out.as_deref_mut(), &mut mean)?
                }
                Step::Host(s) => self.host_stage(q, g, res, s, &mut mean),
                Step::Dispatch(id, d) if res.storage(id.output()) == Storage::Rebuilt => {
                    // Its readers rebuild the rows it would write.
                    q.commit_recorded(&d.desc, d.access.clone()).map_err(err)?;
                }
                Step::Dispatch(id, d) => {
                    let dispatch = self.bind(*id, d, g, res, &padded, &main, mean, &frame);
                    let output = res.dev.plane(id.output()).map(|b| b as &dyn WriteTracked);
                    handles[i] = Some(q.commit(dispatch, output.as_slice()).map_err(err)?);
                }
                Step::Pass(pass) => {
                    // Parts of record-only dispatches have nothing to run.
                    let parts: Vec<Part> = pass
                        .parts
                        .iter()
                        .filter_map(|(k, units)| {
                            let kernel = handles[*k]?;
                            Some(Part {
                                kernel,
                                units: &**units,
                            })
                        })
                        .collect();
                    if !parts.is_empty() {
                        q.execute(pass.windows, &parts).map_err(err)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// A dispatch step with its pixel body bound to the plan's buffers:
    /// `up` and pEdge read from their planes or rebuilt per unit, the
    /// output image written to the `final` plane or into `frame`.
    #[allow(clippy::too_many_arguments)]
    fn bind(
        &self,
        id: KernelId,
        d: &StaticDispatch,
        g: &Geometry,
        res: &FrameResources,
        padded: &SrcImage,
        main: &SrcImage,
        mean: f32,
        frame: &Option<FrameRows>,
    ) -> Dispatch {
        let (w, h, ws, p) = (g.w, g.h, g.ws, self.params);
        let dev = &res.dev;
        let view = |b| dev.get(b).view();
        let out = || dev.get(id.output());
        let up = || match res.storage(Buf::Up) {
            Storage::Rebuilt => UpSource::Rebuilt {
                down: view(Buf::Down),
                w,
                h,
                ws,
            },
            _ => UpSource::Plane(view(Buf::Up), ws),
        };
        let rebuilt_edges = res.storage(Buf::PEdge) == Storage::Rebuilt;
        let edge = || {
            if rebuilt_edges {
                EdgeSource::Rebuilt
            } else {
                EdgeSource::Plane(view(Buf::PEdge), ws)
            }
        };
        let sink = || match frame {
            Some(f) => RowSink::Frame(f.clone()),
            None => RowSink::plane(out(), ws),
        };
        match id {
            KernelId::Downscale => rows(d, downscale_body(main, out(), w, h)),
            KernelId::Border(k) => groups(d, k.body(&view(Buf::Down), out(), w, h, ws)),
            KernelId::Center => rows(
                d,
                upscale_center_scalar_body(&view(Buf::Down), out(), w, h, ws),
            ),
            KernelId::CenterVec4 => rows(
                d,
                upscale_center_vec4_body(&view(Buf::Down), out(), w, h, ws),
            ),
            KernelId::Sobel => rows(d, sobel_scalar_body(main, out(), w, h, ws)),
            KernelId::SobelVec4 => rows(d, sobel_vec4_body(padded, out(), w, h, ws)),
            KernelId::Stage1(strategy) if rebuilt_edges => {
                groups(d, stage1_rebuilt_body(padded, out(), w, h, ws, strategy))
            }
            KernelId::Stage1(strategy) => {
                groups(d, stage1_body(&view(Buf::PEdge), out(), g.ns, strategy))
            }
            KernelId::Stage2 => {
                let partials = view(Buf::Partials);
                groups(d, stage2_body(&partials, stage1_groups(g.ns), out()))
            }
            KernelId::Sharpness => rows(
                d,
                sharpness_fused_body(padded, &up(), &edge(), sink(), mean, p, w, h),
            ),
            KernelId::SharpnessVec4 => rows(
                d,
                sharpness_fused_vec4_body(padded, &up(), &edge(), sink(), mean, p, w, h, ws),
            ),
            KernelId::Perror => rows(d, perror_body(main, &up(), out(), w, h, ws)),
            KernelId::Preliminary => {
                let (pedge, perr) = (view(Buf::PEdge), view(Buf::PError));
                rows(
                    d,
                    preliminary_body(&up(), &pedge, &perr, out(), mean, p, w, h, ws),
                )
            }
            KernelId::Overshoot => {
                let prelim = view(Buf::Prelim);
                rows(d, overshoot_body(padded, &prelim, sink(), w, h, ws, p))
            }
        }
    }

    /// Performs one transfer in the step's mode. Uploads widen an 8-bit
    /// frame row by row as they copy it; reads land in the plan's host
    /// scratch (or `out`, for the final image); the read of the stage-2
    /// total yields the pEdge mean. Without `out`, the tail's bodies wrote
    /// the final image into the caller's frame: its readback charges its
    /// record and copies nothing.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &self,
        q: &mut CommandQueue,
        g: &Geometry,
        res: &mut FrameResources,
        t: &Transfer,
        orig: InputFrame,
        out: Option<&mut [f32]>,
        mean: &mut f32,
    ) -> Result<(), String> {
        let (w, h, ws, pw) = (g.w, g.h, g.ws, g.pw);
        if (t.buf, t.dir) == (Buf::Final, Dir::Read) {
            return match out {
                Some(out) => read_final(q, g, res, t.mode, out),
                None => {
                    charge_transfer(q, t);
                    Ok(())
                }
            };
        }
        let buf = res.dev.get(t.buf);
        match (t.buf, t.dir, t.mode) {
            (Buf::Padded, Dir::Write, Mode::Rect) => {
                match orig {
                    InputFrame::F32(img) => q.enqueue_write_rect(buf, pw, 1, 1, img.pixels(), w, h),
                    InputFrame::U8(img) => {
                        q.enqueue_write_rect_from(buf, pw, 1, 1, img.pixels(), w, h)
                    }
                }
                .map_err(err)?;
            }
            (Buf::Padded, Dir::Write, _) => {
                // The host pads: line-by-line into the mapped interior.
                let mut m = q.map_write(buf).map_err(err)?;
                let dst = m.as_mut_slice();
                for y in 0..h {
                    orig.copy_row(y, &mut dst[(y + 1) * pw + 1..(y + 1) * pw + 1 + w]);
                }
            }
            (Buf::Original, Dir::Write, _) => {
                let mut m = q.map_write(buf).map_err(err)?;
                let dst = m.as_mut_slice();
                for y in 0..h {
                    orig.copy_row(y, &mut dst[y * w..(y + 1) * w]);
                }
            }
            (Buf::Up, Dir::Write, _) => {
                // The CPU border's pixels: exactly the border region goes
                // into the device buffer (the border rows in full, then
                // the border columns of the body rows), charged as one
                // transfer.
                let (_, up_host) = res.border_host.as_ref().expect("CPU border scratch");
                let upv = buf.write_view();
                for y in border_lines(h) {
                    for x in 0..w {
                        upv.set_raw(y * ws + x, up_host.get(x, y));
                    }
                }
                for y in 2..=h.saturating_sub(3) {
                    for x in border_lines(w) {
                        upv.set_raw(y * ws + x, up_host.get(x, y));
                    }
                }
                charge_transfer(q, t);
            }
            (Buf::ReductionOut, Dir::Read, mode) => {
                let mut one = [0.0f32];
                read_back(q, mode, buf, &mut one)?;
                *mean = one[0] / g.n as f32;
            }
            (Buf::Down, Dir::Read, mode) => {
                let (down_host, _) = res.border_host.as_mut().expect("CPU border scratch");
                read_back(q, mode, buf, down_host.pixels_mut())?;
            }
            (Buf::PEdge | Buf::Partials, Dir::Read, mode) => {
                read_back(q, mode, buf, &mut res.reduction_host)?;
            }
            _ => return Err(format!("the executor has no transfer `{}`", t.name)),
        }
        Ok(())
    }

    /// Runs one host stage on the plan's scratch and charges the step's
    /// cost. The reductions yield the pEdge mean.
    fn host_stage(
        &self,
        q: &mut CommandQueue,
        g: &Geometry,
        res: &mut FrameResources,
        s: &HostStage,
        mean: &mut f32,
    ) {
        match s.work {
            // The copy itself happens in the map-write of `padded`.
            HostWork::Padding => {}
            HostWork::UpscaleBorder => {
                // Only the border cells of the scratch are written here
                // and only they are written back, so stale interior
                // values from a previous frame are harmless.
                let (down, up) = res.border_host.as_mut().expect("CPU border scratch");
                cpu_stages::upscale_border_into(down, up);
            }
            HostWork::Reduction => {
                // f64 accumulation, identical to the CPU reference stage,
                // so the base GPU pipeline reproduces the CPU output
                // bit-exactly. The strided buffer's padding columns are
                // exact zeros, so summing all `ns` elements and dividing by
                // the true pixel count is the sum over the cropped image.
                let sum: f64 = res.reduction_host.iter().map(|&v| f64::from(v)).sum();
                *mean = (sum / g.n as f64) as f32;
            }
            HostWork::ReductionStage2 => {
                let mut sum = 0.0f32;
                for &v in &res.reduction_host {
                    sum += v;
                }
                *mean = sum / g.n as f32;
            }
        }
        match s.cost {
            HostCost::Counters(c) => {
                q.charge_host(s.name(), &c);
            }
            HostCost::Memcpy(bytes) => {
                q.charge_host_seconds(s.name(), host_memcpy_time(q.cpu(), bytes));
            }
        }
    }
}

/// Charges transfer `t`'s record — name, kind and simulated time, those
/// of the copying command — without moving data: for a region the host
/// already placed (the CPU border) or an output the kernels already wrote.
fn charge_transfer(q: &mut CommandQueue, t: &Transfer) {
    let kind = match t.dir {
        Dir::Write if t.mode == Mode::Rect => CommandKind::RectWrite,
        Dir::Write => CommandKind::WriteBuffer,
        Dir::Read => CommandKind::ReadBuffer,
    };
    match t.mode {
        Mode::Bulk => q.charge_bulk(&t.name, kind, t.bytes),
        Mode::Rect => q.charge_rect(&t.name, kind, t.rows, t.bytes),
        Mode::Map => q.charge_map(&t.name, t.bytes),
    }
}

/// The final image's readback from the `final` plane into the caller's
/// slice, in the step's mode.
fn read_final(
    q: &mut CommandQueue,
    g: &Geometry,
    res: &FrameResources,
    mode: Mode,
    out: &mut [f32],
) -> Result<(), String> {
    let (w, h, ws) = (g.w, g.h, g.ws);
    let buf = res.dev.get(Buf::Final);
    match mode {
        Mode::Bulk => {
            q.enqueue_read(buf, &mut out[..g.n]).map_err(err)?;
        }
        Mode::Rect => {
            // Crops the stride padding during the transfer, the mirror of
            // the rect-write upload.
            q.enqueue_read_rect(buf, ws, 0, 0, &mut out[..g.n], w, h)
                .map_err(err)?;
        }
        Mode::Map => {
            let m = q.map_read(buf).map_err(err)?;
            let s = m.as_slice();
            for y in 0..h {
                out[y * w..(y + 1) * w].copy_from_slice(&s[y * ws..y * ws + w]);
            }
        }
    }
    Ok(())
}

/// A row-span dispatch of `d` running `body` once per work-group row.
fn rows(d: &StaticDispatch, body: impl Fn(&mut RowCtx) + Send + Sync + 'static) -> Dispatch {
    Dispatch::rows(d.desc.clone(), d.access.clone(), body)
}

/// A dispatch of `d` running `body` once per work-group.
fn groups(d: &StaticDispatch, body: impl Fn(&mut GroupCtx) + Send + Sync + 'static) -> Dispatch {
    Dispatch::groups(d.desc.clone(), d.access.clone(), body)
}

/// Device→host read of a whole buffer into `dst` in the step's mode: bulk,
/// or map/unmap.
fn read_back(
    q: &mut CommandQueue,
    mode: Mode,
    buf: &Buffer<f32>,
    dst: &mut [f32],
) -> Result<(), String> {
    if mode == Mode::Bulk {
        q.enqueue_read(buf, dst).map_err(err)?;
    } else {
        let m = q.map_read(buf).map_err(err)?;
        dst.copy_from_slice(&m.as_slice()[..dst.len()]);
    }
    Ok(())
}

/// A simulated-runtime error as the pipeline reports it.
fn err(e: simgpu::error::Error) -> String {
    e.to_string()
}

/// Builds a [`RunReport`] from the queue's recorded commands.
fn report_from_queue(q: &CommandQueue, w: usize, h: usize, out: Vec<f32>) -> RunReport {
    let stages = q
        .records()
        .iter()
        .map(|r| StageRecord {
            name: r.name.clone(),
            seconds: r.duration_s,
        })
        .collect();
    RunReport {
        output: ImageF32::from_vec(w, h, out),
        total_s: q.elapsed(),
        stages,
    }
}

/// The program's device buffers with host storage, indexed by [`Buf`].
struct DeviceBuffers([Option<Buffer<f32>>; Buf::COUNT]);

impl DeviceBuffers {
    /// Buffer `b`'s plane, if it has one.
    fn plane(&self, b: Buf) -> Option<&Buffer<f32>> {
        self.0[b as usize].as_ref()
    }

    fn get(&self, b: Buf) -> &Buffer<f32> {
        self.plane(b)
            .expect("a plane for every buffer the program allocates and the host touches")
    }

    /// The two kernel-facing views of the uploaded frame: the padded
    /// source, and what downscale/Sobel/pError read — the raw original in
    /// the base pipeline, the padded matrix once the upload is unified.
    fn sources(&self, g: &Geometry) -> (SrcImage, SrcImage) {
        let padded = SrcImage {
            view: self.get(Buf::Padded).view(),
            pitch: g.pw,
            pad: 1,
        };
        let main = match &self.0[Buf::Original as usize] {
            Some(b) => SrcImage {
                view: b.view(),
                pitch: g.w,
                pad: 0,
            },
            None => padded.clone(),
        };
        (padded, main)
    }
}

/// Every device buffer and host scratch area one frame of the pipeline
/// needs, allocated once from the program for a fixed shape and
/// optimization config. A buffer gets a plane unless the program's
/// storage rule ([`FrameProgram::storage`]) drops it on a context that
/// neither sanitizes nor validates.
///
/// Reuse across frames is bit-safe by construction: every buffer is fully
/// overwritten each frame except `padded`, whose border is zeroed at
/// allocation and never written afterwards (only the interior is
/// uploaded), and the host scratch areas, whose stale cells are never read.
struct FrameResources {
    dev: DeviceBuffers,
    /// Each buffer's storage, indexed by [`Buf`].
    storage: [Storage; Buf::COUNT],
    /// CPU border only: host scratch for the downscaled frame readback,
    /// and the full-size image the border stage writes its pixels into.
    border_host: Option<(ImageF32, ImageF32)>,
    /// Host scratch for CPU-side reduction readbacks: the whole pEdge
    /// matrix for the CPU reduction, the partials for host stage 2, empty
    /// when stage 2 runs on the device.
    reduction_host: Vec<f32>,
}

impl FrameResources {
    fn new(ctx: &Context, prog: &FrameProgram) -> Self {
        let storage = if ctx.sanitizes() || ctx.validates() {
            [Storage::Plane; Buf::COUNT]
        } else {
            prog.storage()
        };
        let mut dev: [Option<Buffer<f32>>; Buf::COUNT] = Default::default();
        for &(b, len) in prog.buffers() {
            if storage[b as usize] == Storage::Plane {
                dev[b as usize] = Some(ctx.buffer(b.label(), len));
            }
        }
        let g = &prog.g;
        let reduction_host = match prog.reduction {
            Reduction::Cpu => g.ns,
            Reduction::HostStage2 => stage1_groups(g.ns),
            Reduction::DeviceStage2 => 0,
        };
        FrameResources {
            dev: DeviceBuffers(dev),
            storage,
            border_host: (!prog.gpu_border)
                .then(|| (ImageF32::zeros(g.wd, g.hd), ImageF32::zeros(g.w, g.h))),
            reduction_host: vec![0.0f32; reduction_host],
        }
    }

    /// Buffer `b`'s storage.
    fn storage(&self, b: Buf) -> Storage {
        self.storage[b as usize]
    }
}

/// A prepared, reusable execution plan: one frame program, one queue and
/// one set of [`FrameResources`] serving frame after frame of a fixed
/// shape.
///
/// Created by [`GpuPipeline::prepared`]. Compared to calling
/// [`GpuPipeline::run`] in a loop, a plan builds no program and allocates
/// no device buffers on the hot path, interns stage names (the queue
/// survives across frames), and reuses host scratch; the simulated times
/// and output pixels are identical (asserted by the equivalence test
/// suite).
pub struct PipelinePlan {
    pipe: GpuPipeline,
    q: CommandQueue,
    prog: FrameProgram,
    res: FrameResources,
}

impl PipelinePlan {
    /// The frame shape this plan was prepared for.
    pub fn shape(&self) -> (usize, usize) {
        (self.prog.g.w, self.prog.g.h)
    }

    /// The pipeline configuration this plan executes.
    pub fn pipeline(&self) -> &GpuPipeline {
        &self.pipe
    }

    /// Runs one frame, returning the same [`RunReport`] a fresh
    /// [`GpuPipeline::run`] would produce. The output is written as
    /// [`PipelinePlan::run_into`] writes it.
    ///
    /// # Errors
    /// If the frame's shape differs from the prepared shape, or on
    /// simulated-runtime faults.
    pub fn run<'a>(&mut self, orig: impl Into<InputFrame<'a>>) -> Result<RunReport, String> {
        let (w, h) = self.shape();
        let mut out = vec![0.0f32; w * h];
        self.run_into(orig, &mut out)?;
        Ok(report_from_queue(&self.q, w, h, out))
    }

    /// Hot-path variant of [`PipelinePlan::run`]: writes the sharpened
    /// pixels into `out` (length `w*h`) and returns the frame's simulated
    /// lane components, allocating no device buffer.
    ///
    /// Unless the context sanitizes or validates, the sharpening pass
    /// writes `out` row by row while it runs, and the `final` readback
    /// only charges its record. So after an `Err` from a failure in or
    /// after that pass, `out` holds an unspecified partial frame; treat
    /// it as garbage. No body of the frame holds `out` once this returns.
    ///
    /// # Errors
    /// As for [`PipelinePlan::run`]; additionally if `out` has the wrong
    /// length.
    pub fn run_into<'a>(
        &mut self,
        orig: impl Into<InputFrame<'a>>,
        out: &mut [f32],
    ) -> Result<FrameComponents, String> {
        if out.len() != self.prog.g.n {
            return Err(format!(
                "output slice is {}, frame needs {}",
                out.len(),
                self.prog.g.n
            ));
        }
        self.q.reset();
        self.pipe
            .run_frame(&mut self.q, &self.prog, &mut self.res, orig.into(), out)?;
        let mut c = FrameComponents {
            upload_s: 0.0,
            compute_s: 0.0,
            download_s: 0.0,
        };
        for r in self.q.records() {
            match crate::report::classify_stage_lane(&r.name) {
                crate::report::StageLane::Upload => c.upload_s += r.duration_s,
                crate::report::StageLane::Compute => c.compute_s += r.duration_s,
                crate::report::StageLane::Download => c.download_s += r.duration_s,
            }
        }
        Ok(c)
    }

    /// The command records of the most recently executed frame (empty
    /// before the first run). Unlike [`RunReport::stages`], these keep
    /// their [`simgpu::cost::CostCounters`], so efficiency telemetry can
    /// be derived.
    pub fn records(&self) -> &[simgpu::queue::CommandRecord] {
        self.q.records()
    }

    /// Drains the access-summary log of the most recently executed frame,
    /// in commit order. Populated only when the context was built with
    /// [`Context::with_access_log`]; the static/dynamic agreement
    /// tests compare this against
    /// [`crate::gpu::verify::enumerate_access`].
    pub fn take_access_log(&mut self) -> Vec<simgpu::access::AccessSummary> {
        self.q.take_access_log()
    }

    /// The hierarchical spans of the most recently executed frame (empty
    /// unless the plan's context enabled spans via
    /// [`Context::with_spans`]). Observation-only, like
    /// [`PipelinePlan::records`].
    pub fn spans(&self) -> Vec<simgpu::span::SpanRecord> {
        self.q.span_snapshot()
    }

    /// Derives per-kernel efficiency telemetry from the most recently
    /// executed frame (observation-only: reads the retained records).
    pub fn telemetry(&self) -> crate::telemetry::FrameTelemetry {
        let (w, h) = self.shape();
        crate::telemetry::FrameTelemetry::collect(self.q.records(), self.q.device(), w, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPipeline;
    use crate::params::{device_stride, SCALE};
    use imagekit::generate;
    use simgpu::device::DeviceSpec;

    fn vctx() -> Context {
        Context::with_validation(DeviceSpec::firepro_w8000())
    }

    #[test]
    fn host_scratch_is_sized_by_what_the_config_reads() {
        let (w, h) = (64, 48);
        let ns = device_stride(w) * h;
        let scratch = |opts: OptConfig, tuning: Tuning| {
            let prog = FrameProgram::build(w, h, &opts, &tuning).unwrap();
            let res = FrameResources::new(&vctx(), &prog);
            let border = res
                .border_host
                .as_ref()
                .map(|(down, up)| (down.len(), up.len()));
            (border, res.reduction_host.len())
        };
        // The default plan at 4096² — GPU border, device stage 2 —
        // carries no host scratch at all (thresholds lowered to reach the
        // same placement at this size).
        let gpu_placement = Tuning {
            border_gpu_min_width: 0,
            stage2_gpu_threshold: 0,
            ..Tuning::default()
        };
        assert_eq!(scratch(OptConfig::all(), gpu_placement), (None, 0));
        // CPU border and CPU reduction: the downscaled frame, the border
        // image and the whole pEdge matrix.
        let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
        assert_eq!(
            scratch(OptConfig::none(), Tuning::default()),
            (Some((wd * hd, w * h)), ns)
        );
        // Host stage 2 reads back only the partials.
        let host_stage2 = Tuning {
            border_gpu_min_width: 0,
            ..Tuning::default()
        };
        assert_eq!(
            scratch(OptConfig::all(), host_stage2),
            (None, stage1_groups(ns))
        );
    }

    /// The border on the device at any width (and stage 2 with it).
    fn gpu_placement() -> Tuning {
        Tuning {
            border_gpu_min_width: 0,
            stage2_gpu_threshold: 0,
            ..Tuning::default()
        }
    }

    #[test]
    fn frame_resources_allocate_planes_only_for_kept_buffers() {
        let (w, h) = (64, 48);
        let spec = DeviceSpec::firepro_w8000;
        for (tuning, kept_up) in [(gpu_placement(), false), (Tuning::default(), true)] {
            let prog = FrameProgram::build(w, h, &OptConfig::all(), &tuning).unwrap();
            assert_eq!(prog.gpu_border, !kept_up);
            for (ctx, observed) in [
                (Context::new(spec()), false),
                (Context::sanitized(spec()), true),
                (Context::with_validation(spec()), true),
            ] {
                let res = FrameResources::new(&ctx, &prog);
                for &(b, _) in prog.buffers() {
                    let dropped = !observed
                        && match b {
                            Buf::Up => !kept_up,
                            Buf::PEdge | Buf::Final => true,
                            _ => false,
                        };
                    assert_eq!(
                        res.dev.plane(b).is_none(),
                        dropped,
                        "{b:?} observed {observed} gpu border {}",
                        !kept_up
                    );
                }
            }
        }
    }

    /// For each pass of `prog`, the frame elements of its largest part
    /// that runs a body on a plain context, and the work-items of its
    /// largest part whatever its storage.
    fn pass_sizes(prog: &FrameProgram) -> Vec<(usize, usize)> {
        let storage = prog.storage();
        let steps = prog.steps();
        let dispatch = |k: usize| match &steps[k] {
            Step::Dispatch(id, d) => (*id, d),
            _ => unreachable!("a pass part is a dispatch"),
        };
        let passes = steps.iter().filter_map(|s| match s {
            Step::Pass(p) => Some(p),
            _ => None,
        });
        passes
            .map(|p| {
                let parts = p.parts.iter().map(|&(k, _)| dispatch(k));
                let elems = parts
                    .clone()
                    .filter(|(id, _)| storage[id.output() as usize] != Storage::Rebuilt)
                    .map(|(_, d)| d.desc.total_elems())
                    .max();
                let items = parts.map(|(_, d)| d.desc.total_items()).max();
                (elems.unwrap_or(0), items.unwrap_or(0))
            })
            .collect()
    }

    #[test]
    fn pass_grain_keeps_the_item_choice_on_serve_shapes_and_inlines_small_scalar_frames() {
        use simgpu::par::pass_threads;
        let mut shapes = crate::service::traffic::TrafficConfig::default().shapes;
        shapes.push((128, 96));
        for &(w, h) in &shapes {
            let prog = FrameProgram::build(w, h, &OptConfig::all(), &Tuning::default()).unwrap();
            // Below the border crossover every part ran a body before
            // pEdge was rebuilt, and a pass went on the pool from 4096
            // work-items of its largest grid.
            assert!(!prog.gpu_border);
            for (elems, items) in pass_sizes(&prog) {
                let items_rule = if items < 4096 { 1 } else { 2 };
                assert_eq!(
                    pass_threads(elems, 2),
                    items_rule,
                    "{w}x{h}: {elems} elements, {items} items"
                );
            }
        }
        // Scalar kernels cover one element an item: small frames of the
        // base configuration run every pass on the caller.
        for (w, h) in [(64, 64), (96, 96), (128, 96)] {
            let prog =
                FrameProgram::build(w, h, &OptConfig::from_bits(0), &Tuning::default()).unwrap();
            for (elems, _) in pass_sizes(&prog) {
                assert_eq!(pass_threads(elems, 2), 1, "{w}x{h}: {elems} elements");
            }
        }
    }

    #[test]
    fn record_only_final_readback_matches_the_copying_one() {
        // Bulk (aligned, bulk transfers), rect (ragged, bulk transfers)
        // and map (base transfers) readbacks of the final image.
        for (w, h, opts, mode) in [
            (64, 48, OptConfig::all(), Mode::Bulk),
            (33, 29, OptConfig::all(), Mode::Rect),
            (33, 29, OptConfig::none(), Mode::Map),
        ] {
            let prog = FrameProgram::build(w, h, &opts, &Tuning::default()).unwrap();
            let t = prog
                .steps()
                .iter()
                .find_map(|s| match s {
                    Step::Transfer(t) if t.buf == Buf::Final => Some(t),
                    _ => None,
                })
                .unwrap();
            assert_eq!(t.mode, mode);
            let record = |q: &CommandQueue| {
                assert_eq!(q.records().len(), 1);
                let r = &q.records()[0];
                (r.name.clone(), r.kind, r.duration_s.to_bits())
            };
            let ctx = vctx();
            let res = FrameResources::new(&ctx, &prog);
            let mut copying = ctx.queue();
            let mut out = vec![0.0f32; w * h];
            read_final(&mut copying, &prog.g, &res, mode, &mut out).unwrap();
            let mut charged = ctx.queue();
            charge_transfer(&mut charged, t);
            assert_eq!(record(&charged), record(&copying), "{mode:?}");
        }
    }

    #[test]
    fn no_body_outlives_run_into() {
        let img = img64();
        let pipe = GpuPipeline::new(
            Context::new(DeviceSpec::firepro_w8000()),
            SharpnessParams::default(),
            OptConfig::all(),
        )
        .with_tuning(gpu_placement());
        let mut plan = pipe.prepared(64, 64).unwrap();
        let mut out = vec![0.0f32; 64 * 64];
        plan.run_into(&img, &mut out).unwrap();
        assert_eq!(plan.q.pending_bodies(), 0);
        // A step that fails after the tail's commit, before pass B runs
        // the bodies that write `out`.
        let steps = plan.prog.steps_mut();
        let at = steps
            .iter()
            .rposition(|s| matches!(s, Step::Pass(_)))
            .unwrap();
        steps.insert(
            at,
            Step::Transfer(Transfer {
                buf: Buf::Down,
                name: "write:down".to_string(),
                mode: Mode::Bulk,
                dir: Dir::Write,
                bytes: 0,
                rows: 0,
            }),
        );
        assert!(plan.run_into(&img, &mut out).is_err());
        assert_eq!(plan.q.pending_bodies(), 0);
    }

    fn img64() -> ImageF32 {
        generate::natural(64, 64, 21)
    }

    /// Every record's name, kind and duration bits, the total's bits and
    /// the output pixels of one run.
    type RunDump = (Vec<(String, CommandKind, u64)>, u64, Vec<u32>);

    fn dump(pipe: &GpuPipeline, frame: InputFrame) -> RunDump {
        let (q, out) = pipe.run_once(frame).unwrap();
        let records = q
            .records()
            .iter()
            .map(|r| (r.name.to_string(), r.kind, r.duration_s.to_bits()))
            .collect();
        let out = out.iter().map(|v| v.to_bits()).collect();
        (records, q.elapsed().to_bits(), out)
    }

    #[test]
    fn u8_frames_match_f32_frames_pooled_or_not() {
        // Aligned (bulk or map readback of an unstrided final buffer) and
        // ragged (rect or map crop) shapes, rect and map uploads.
        for (w, h) in [(64, 48), (33, 29), (3, 3)] {
            let u8_img = generate::natural(w, h, 4).to_u8();
            let f32_img = u8_img.to_f32();
            for opts in [
                OptConfig::none(),
                OptConfig::all(),
                OptConfig::from_bits(0b10_1010),
            ] {
                let pipe = |pooling| {
                    let ctx = Context::new(DeviceSpec::firepro_w8000()).with_pooling(pooling);
                    GpuPipeline::new(ctx, SharpnessParams::default(), opts)
                };
                let copied = dump(&pipe(true), (&f32_img).into());
                for pooling in [true, false] {
                    for frame in [InputFrame::U8(&u8_img), InputFrame::F32(&f32_img)] {
                        assert!(
                            dump(&pipe(pooling), frame) == copied,
                            "{w}x{h} {opts:?} pooling {pooling} {frame:?}"
                        );
                    }
                }
                let ctx = Context::new(DeviceSpec::firepro_w8000());
                let mut plan = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), opts)
                    .prepared(w, h)
                    .unwrap();
                let mut out = vec![0.0f32; w * h];
                plan.run_into(&u8_img, &mut out).unwrap();
                assert!(out.iter().map(|v| v.to_bits()).eq(copied.2.iter().copied()));
                drop(plan);
                assert_eq!(ctx.pool_stats().live, 0);
            }
        }
    }

    #[test]
    fn base_pipeline_matches_cpu_bit_exactly() {
        // With the reduction on the CPU (base config) the mean is computed
        // identically, so outputs must be bit-exact.
        let img = img64();
        let cpu = CpuPipeline::new(SharpnessParams::default())
            .run(&img)
            .unwrap();
        let gpu = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::none())
            .run(&img)
            .unwrap();
        assert_eq!(gpu.output, cpu.output);
    }

    #[test]
    fn all_optimizations_match_cpu_within_tolerance() {
        let img = img64();
        let cpu = CpuPipeline::new(SharpnessParams::default())
            .run(&img)
            .unwrap();
        let gpu = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::all())
            .run(&img)
            .unwrap();
        let diff = gpu.output.max_abs_diff(&cpu.output);
        assert!(diff < 0.05, "max diff {diff}");
    }

    #[test]
    fn every_cumulative_step_is_correct() {
        let img = img64();
        let cpu = CpuPipeline::new(SharpnessParams::default())
            .run(&img)
            .unwrap();
        for (name, opts) in OptConfig::cumulative_steps() {
            let gpu = GpuPipeline::new(vctx(), SharpnessParams::default(), opts)
                .run(&img)
                .unwrap();
            let diff = gpu.output.max_abs_diff(&cpu.output);
            assert!(diff < 0.05, "step `{name}`: max diff {diff}");
        }
    }

    #[test]
    fn optimized_is_faster_than_base_at_scale() {
        let img = generate::natural(512, 512, 3);
        let base = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::none())
            .run(&img)
            .unwrap();
        let opt = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::all())
            .run(&img)
            .unwrap();
        assert!(
            opt.total_s < base.total_s,
            "optimized {} should beat base {}",
            opt.total_s,
            base.total_s
        );
    }

    #[test]
    fn stage_times_sum_to_total() {
        let img = img64();
        for opts in [OptConfig::none(), OptConfig::all()] {
            let r = GpuPipeline::new(vctx(), SharpnessParams::default(), opts)
                .run(&img)
                .unwrap();
            assert!((r.stages_total() - r.total_s).abs() < 1e-12);
        }
    }

    #[test]
    fn border_crossover_switches_device() {
        let img = img64();
        let mut tuning = Tuning {
            border_gpu_min_width: 64,
            ..Tuning::default()
        };
        let opts = OptConfig {
            border_gpu: true,
            ..OptConfig::none()
        };
        let r = GpuPipeline::new(vctx(), SharpnessParams::default(), opts)
            .with_tuning(tuning)
            .run(&img)
            .unwrap();
        assert!(r
            .stages
            .iter()
            .any(|s| s.name.starts_with("upscale_border_top")));
        // Below the crossover the border runs on the host.
        tuning.border_gpu_min_width = 128;
        let r = GpuPipeline::new(vctx(), SharpnessParams::default(), opts)
            .with_tuning(tuning)
            .run(&img)
            .unwrap();
        assert!(r
            .stages
            .iter()
            .any(|s| s.name.as_ref() == "host:upscale_border"));
    }

    #[test]
    fn others_flag_removes_intermediate_finishes() {
        let img = img64();
        let base = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::none())
            .run(&img)
            .unwrap();
        let others = GpuPipeline::new(
            vctx(),
            SharpnessParams::default(),
            OptConfig {
                others: true,
                ..OptConfig::none()
            },
        )
        .run(&img)
        .unwrap();
        let count = |r: &RunReport| {
            r.stages
                .iter()
                .filter(|s| s.name.as_ref() == "finish")
                .count()
        };
        assert!(count(&base) > 1);
        assert_eq!(count(&others), 1);
    }

    #[test]
    fn gpu_reduction_mean_close_to_cpu() {
        let img = generate::natural(128, 128, 5);
        let p = SharpnessParams::default();
        let base = GpuPipeline::new(vctx(), p, OptConfig::none())
            .run(&img)
            .unwrap();
        let red = GpuPipeline::new(
            vctx(),
            p,
            OptConfig {
                reduction_gpu: true,
                ..OptConfig::none()
            },
        )
        .run(&img)
        .unwrap();
        let diff = red.output.max_abs_diff(&base.output);
        assert!(diff < 0.05, "max diff {diff}");
    }

    #[test]
    fn rejects_bad_shapes() {
        let img = generate::gradient(24, 2); // below the 3x3 minimum
        let r = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::none()).run(&img);
        assert!(r.is_err());
    }

    #[test]
    fn odd_shapes_run_end_to_end() {
        for (w, h) in [(5, 7), (13, 11), (33, 29), (3, 3)] {
            let img = generate::natural(w, h, 9);
            let base = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::none())
                .run(&img)
                .unwrap();
            let vec = GpuPipeline::new(
                vctx(),
                SharpnessParams::default(),
                OptConfig {
                    vectorization: true,
                    data_transfer: true,
                    kernel_fusion: true,
                    ..OptConfig::none()
                },
            )
            .run(&img)
            .unwrap();
            assert_eq!(
                base.output.pixels(),
                vec.output.pixels(),
                "base vs vectorized mismatch at {w}x{h}"
            );
            let all = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::all())
                .run(&img)
                .unwrap();
            let diff = all.output.max_abs_diff(&base.output);
            assert!(diff < 0.05, "all-opts diff {diff} at {w}x{h}");
        }
    }
}
