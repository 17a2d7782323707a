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
//! The pipeline is *functionally real*: it produces the same pixels as
//! [`crate::cpu::CpuPipeline`] (bit-exactly when the reduction runs on the
//! CPU; within float-summation tolerance when the tree reduction runs on
//! the device), while the queue's virtual clock produces the simulated
//! time the figures report.

use imagekit::ImageF32;
use simgpu::buffer::Buffer;
use simgpu::context::Context;
use simgpu::cost::{CostCounters, OpCounts};
use simgpu::queue::{CommandKind, CommandQueue, Part, Pending};
use simgpu::span::SpanKind;
use simgpu::timing::host_memcpy_time;

use crate::cpu::stages as cpu_stages;
use crate::gpu::kernels::downscale::{downscale_dispatch, downscale_window};
use crate::gpu::kernels::perror::{perror_dispatch, perror_window};
use crate::gpu::kernels::reduction::{
    reduction_stage2_kernel, stage1_dispatch, stage1_groups, stage1_window,
};
use crate::gpu::kernels::sharpen::{
    overshoot_dispatch, overshoot_window, preliminary_dispatch, sharpness_fused_dispatch,
    sharpness_fused_vec4_dispatch, sharpness_window,
};
use crate::gpu::kernels::sobel::{sobel_scalar_dispatch, sobel_vec4_dispatch, sobel_window};
use crate::gpu::kernels::upscale::{
    center_window, upscale_border_dispatches, upscale_center_scalar_dispatch,
    upscale_center_vec4_dispatch,
};
use crate::gpu::kernels::{KernelTuning, RowWindows, SrcImage};
use crate::gpu::opts::{OptConfig, Tuning};
use crate::params::{check_shape, device_stride, SharpnessParams, SCALE};
use crate::report::{RunReport, StageRecord};

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

    fn sync(&self, q: &mut CommandQueue) {
        if !self.opts.others {
            q.finish();
        }
    }

    /// Device→host read of a whole buffer in the transfer mode the config
    /// selects (bulk when `data_transfer` is on, map/unmap otherwise).
    fn read_back(
        &self,
        q: &mut CommandQueue,
        buf: &Buffer<f32>,
        dst: &mut [f32],
    ) -> Result<(), String> {
        if self.opts.data_transfer {
            q.enqueue_read(buf, dst).map_err(|e| e.to_string())?;
        } else {
            let guard = q.map_read(buf).map_err(|e| e.to_string())?;
            dst.copy_from_slice(&guard.as_slice()[..dst.len()]);
        }
        Ok(())
    }

    /// Runs the pipeline on `orig`, returning the sharpened image and the
    /// simulated command-level time breakdown.
    ///
    /// Each call allocates a fresh set of device buffers; for repeated
    /// frames of one shape, [`GpuPipeline::prepared`] amortises that setup.
    ///
    /// # Errors
    /// On unsupported shapes, invalid parameters, or simulated-runtime
    /// faults (write races under a validating context).
    pub fn run(&self, orig: &ImageF32) -> Result<RunReport, String> {
        self.run_with_mean(orig, None)
    }

    /// Like [`GpuPipeline::run`], but when `mean_override` is `Some` the
    /// reduction stage is skipped and the given pEdge mean drives the
    /// strength curve. Used by the strip pipeline, whose mean is computed
    /// globally in a separate pass.
    pub fn run_with_mean(
        &self,
        orig: &ImageF32,
        mean_override: Option<f32>,
    ) -> Result<RunReport, String> {
        let mut res = FrameResources::new(self, orig.width(), orig.height())?;
        let mut q = self.ctx.queue();
        let mut out = vec![0.0f32; res.n];
        self.run_frame(&mut q, &mut res, orig, mean_override, &mut out)?;
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
    pub fn run_with_telemetry(
        &self,
        orig: &ImageF32,
    ) -> Result<(RunReport, crate::telemetry::FrameTelemetry), String> {
        let mut res = FrameResources::new(self, orig.width(), orig.height())?;
        let mut q = self.ctx.queue();
        let mut out = vec![0.0f32; res.n];
        self.run_frame(&mut q, &mut res, orig, None, &mut out)?;
        let tel = crate::telemetry::FrameTelemetry::collect(
            q.records(),
            q.device(),
            orig.width(),
            orig.height(),
        );
        Ok((report_from_queue(&q, orig.width(), orig.height(), out), tel))
    }

    /// Prepares a reusable execution plan for `width`×`height` frames: all
    /// device buffers are allocated once and reused across
    /// [`PipelinePlan::run`] calls.
    ///
    /// # Errors
    /// On unsupported shapes or invalid parameters.
    pub fn prepared(&self, width: usize, height: usize) -> Result<PipelinePlan, String> {
        let res = FrameResources::new(self, width, height)?;
        let q = self.ctx.queue();
        Ok(PipelinePlan {
            pipe: self.clone(),
            q,
            res,
        })
    }

    /// Executes one frame against pre-allocated resources, recording
    /// commands on `q` (which the caller has reset) and writing the
    /// sharpened pixels into `out`.
    fn run_frame(
        &self,
        q: &mut CommandQueue,
        res: &mut FrameResources,
        orig: &ImageF32,
        mean_override: Option<f32>,
        out: &mut [f32],
    ) -> Result<(), String> {
        if (orig.width(), orig.height()) != (res.w, res.h) {
            return Err(format!(
                "frame is {}x{}, plan prepared for {}x{}",
                orig.width(),
                orig.height(),
                res.w,
                res.h
            ));
        }
        // The frame scope roots the span tree; disabled spans make
        // open/close no-ops, so the execution path is shared.
        let frame_span = q.span_open(SpanKind::Frame, "frame");
        let result = self.run_frame_monolithic(q, res, orig, mean_override, out);
        q.span_close(frame_span);
        result
    }

    /// Uploads the frame in the transfer mode the config selects and
    /// synchronises.
    fn upload_frame(
        &self,
        q: &mut CommandQueue,
        res: &mut FrameResources,
        orig: &ImageF32,
    ) -> Result<(), String> {
        let (w, h, pw) = (res.w, res.h, res.pw);
        // The padded buffer's one-pixel border is zeroed at allocation and
        // never written afterwards (both upload paths touch only the
        // interior), so reuse across frames preserves the zero padding.
        if self.opts.data_transfer {
            // One rect-write places the original inside the pre-zeroed
            // padded buffer: padding happens during the transfer.
            q.enqueue_write_rect(&res.padded, pw, 1, 1, orig.pixels(), w, h)
                .map_err(|e| e.to_string())?;
        } else {
            // Base: the host pads (line-by-line copy), then both matrices
            // go up through map/unmap.
            q.charge_host_seconds(
                "host:padding",
                host_memcpy_time(q.cpu(), res.padded.byte_len()),
            );
            {
                let mut g = q.map_write(&res.padded).map_err(|e| e.to_string())?;
                let dst = g.as_mut_slice();
                for y in 0..h {
                    dst[(y + 1) * pw + 1..(y + 1) * pw + 1 + w]
                        .copy_from_slice(&orig.pixels()[y * w..(y + 1) * w]);
                }
            }
            let ob = res.original.as_ref().expect("base path allocates original");
            {
                let mut g = q.map_write(ob).map_err(|e| e.to_string())?;
                g.as_mut_slice().copy_from_slice(orig.pixels());
            }
        }
        self.sync(q);
        Ok(())
    }

    /// Whether the upscale border runs on the device for width `w`
    /// (Section V-E crossover).
    fn gpu_border_enabled(&self, w: usize) -> bool {
        self.opts.border_gpu && w >= self.tuning.border_gpu_min_width
    }

    /// The whole-frame schedule: each kernel dispatched once over its full
    /// grid, in the order of Section IV.
    ///
    /// Every dispatch is committed — its record, simulated time and access
    /// log entry — at its place in that order; the queue runs the bodies
    /// later, at the first point the host needs their outputs, as two
    /// fused passes over windows of rows (see [`PassA`] and
    /// [`GpuPipeline::run_tail`]). Only the host order changes: records,
    /// simulated seconds and pixels are those of running each dispatch
    /// when it is committed, which sanitized and validated contexts still
    /// do.
    fn run_frame_monolithic(
        &self,
        q: &mut CommandQueue,
        res: &mut FrameResources,
        orig: &ImageF32,
        mean_override: Option<f32>,
        out: &mut [f32],
    ) -> Result<(), String> {
        let (w, h) = (res.w, res.h);
        let ws = res.ws;
        let tune = KernelTuning {
            others: self.opts.others,
        };

        // ---- uploads (Section V-A) ------------------------------------
        let ph = q.span_open(SpanKind::Phase, "upload");
        self.upload_frame(q, res, orig)?;
        q.span_close(ph);
        let (padded_src, main_src) = res.sources();

        // ---- downscale --------------------------------------------------
        let ph = q.span_open(SpanKind::Phase, "downscale");
        let d = downscale_dispatch(&main_src, &res.down, w, h, tune).map_err(err)?;
        let downscale = q.commit(d, &[&res.down]).map_err(err)?;
        self.sync(q);
        q.span_close(ph);

        // ---- upscale: border (Section V-E) ------------------------------
        let ph = q.span_open(SpanKind::Phase, "upscale");
        let border = if self.gpu_border_enabled(w) {
            let ds = upscale_border_dispatches(&res.down.view(), &res.up, w, h, ws, tune)
                .map_err(err)?;
            let mut border = Vec::with_capacity(ds.len());
            for d in ds {
                border.push(q.commit(d, &[&res.up]).map_err(err)?);
            }
            self.sync(q);
            border
        } else {
            // The host reads `down` back: downscale runs now, alone.
            q.execute(1, &[Part::whole(downscale)]).map_err(err)?;
            self.cpu_border(q, res)?;
            Vec::new()
        };

        // ---- upscale: center --------------------------------------------
        // Images below 5 pixels on an axis have no interior 4×4 blocks —
        // the border pass above already covered every pixel.
        let center = if res.w4 > 1 && res.h4 > 1 {
            let down = res.down.view();
            let d = if self.opts.vectorization {
                upscale_center_vec4_dispatch(&down, &res.up, w, h, ws, tune)
            } else {
                upscale_center_scalar_dispatch(&down, &res.up, w, h, ws, tune)
            }
            .map_err(err)?;
            let center = q.commit(d, &[&res.up]).map_err(err)?;
            self.sync(q);
            Some(center)
        } else {
            None
        };
        q.span_close(ph);

        // ---- Sobel --------------------------------------------------------
        let ph = q.span_open(SpanKind::Phase, "sobel");
        let d = if self.opts.vectorization {
            sobel_vec4_dispatch(&padded_src, &res.pedge, w, h, ws, tune)
        } else {
            sobel_scalar_dispatch(&main_src, &res.pedge, w, h, ws, tune)
        }
        .map_err(err)?;
        let sobel = q.commit(d, &[&res.pedge]).map_err(err)?;
        self.sync(q);
        q.span_close(ph);

        // ---- reduction (Section V-C) -------------------------------------
        let ph = q.span_open(SpanKind::Phase, "reduction");
        let pass_a = PassA {
            downscale,
            sobel,
            border,
        };
        let mean = match mean_override {
            Some(m) => {
                self.run_pass_a(q, res, &pass_a, None)?;
                m
            }
            None => self.reduction(q, res, &pass_a)?,
        };
        q.span_close(ph);

        // ---- sharpening tail (Section V-B) --------------------------------
        let ph = q.span_open(SpanKind::Phase, "sharpen");
        self.run_tail(q, res, &padded_src, &main_src, center, mean, tune)?;
        q.span_close(ph);

        // ---- readback -------------------------------------------------------
        let ph = q.span_open(SpanKind::Phase, "readback");
        let r = self.readback_final(q, res, out);
        q.span_close(ph);
        r
    }

    /// Runs pass A — downscale, Sobel and, when committed, reduction stage
    /// 1 over windows of [`RowWindows::pass_a`] rows, so Sobel reads the
    /// source rows downscale just read and stage 1 the pEdge rows Sobel
    /// just wrote — then the GPU border kernels, which read all of `down`.
    /// Called before the host reads partials, pEdge or the reduction back.
    fn run_pass_a(
        &self,
        q: &mut CommandQueue,
        res: &FrameResources,
        a: &PassA,
        stage1: Option<Pending>,
    ) -> Result<(), String> {
        let win = RowWindows::pass_a(res.h, res.ws);
        let (ws, ns) = (res.ws, res.ns);
        let down = |w| downscale_window(&win, w);
        let sobel = |w| sobel_window(&win, w);
        let red = |w| stage1_window(&win, ws, ns, w);
        let mut parts = vec![
            Part {
                kernel: a.downscale,
                units: &down,
            },
            Part {
                kernel: a.sobel,
                units: &sobel,
            },
        ];
        if let Some(kernel) = stage1 {
            parts.push(Part {
                kernel,
                units: &red,
            });
        }
        q.execute(win.count, &parts).map_err(err)?;
        let border: Vec<Part> = a.border.iter().map(|&b| Part::whole(b)).collect();
        q.execute(1, &border).map_err(err)
    }

    /// Commits the sharpening tail — the fused `sharpness` kernel, or
    /// pError, preliminary and overshoot — and runs it with the upscale
    /// center as pass B over windows of 64 output rows: each window's
    /// `up` rows are read while still in cache.
    #[allow(clippy::too_many_arguments)]
    fn run_tail(
        &self,
        q: &mut CommandQueue,
        res: &FrameResources,
        padded_src: &SrcImage,
        main_src: &SrcImage,
        center: Option<Pending>,
        mean: f32,
        tune: KernelTuning,
    ) -> Result<(), String> {
        let (w, h, ws) = (res.w, res.h, res.ws);
        let (up, pedge) = (res.up.view(), res.pedge.view());
        let win = RowWindows::of_height(h);
        let center_map = center_window;
        let tail = |w| sharpness_window(&win, w);
        let perror = |w| perror_window(&win, w);
        let overshoot = |w| overshoot_window(&win, h, w);
        let mut parts: Vec<Part> = center
            .map(|kernel| Part {
                kernel,
                units: &center_map,
            })
            .into_iter()
            .collect();
        if self.opts.kernel_fusion {
            let d = if self.opts.vectorization {
                sharpness_fused_vec4_dispatch(
                    padded_src,
                    &up,
                    &pedge,
                    &res.finalbuf,
                    mean,
                    self.params,
                    w,
                    h,
                    ws,
                    tune,
                )
            } else {
                sharpness_fused_dispatch(
                    padded_src,
                    &up,
                    &pedge,
                    &res.finalbuf,
                    mean,
                    self.params,
                    w,
                    h,
                    ws,
                    tune,
                )
            }
            .map_err(err)?;
            let kernel = q.commit(d, &[&res.finalbuf]).map_err(err)?;
            self.sync(q);
            parts.push(Part {
                kernel,
                units: &tail,
            });
        } else {
            let perr = res.perror.as_ref().expect("unfused path allocates pError");
            let d = perror_dispatch(main_src, &up, perr, w, h, ws, tune).map_err(err)?;
            let kernel = q.commit(d, &[perr]).map_err(err)?;
            self.sync(q);
            parts.push(Part {
                kernel,
                units: &perror,
            });
            let prelim = res.prelim.as_ref().expect("unfused path allocates prelim");
            let d = preliminary_dispatch(
                &up,
                &pedge,
                &perr.view(),
                prelim,
                mean,
                self.params,
                w,
                h,
                ws,
                tune,
            )
            .map_err(err)?;
            let kernel = q.commit(d, &[prelim]).map_err(err)?;
            self.sync(q);
            parts.push(Part {
                kernel,
                units: &tail,
            });
            let d = overshoot_dispatch(
                padded_src,
                &prelim.view(),
                &res.finalbuf,
                w,
                h,
                ws,
                self.params,
                tune,
            )
            .map_err(err)?;
            let kernel = q.commit(d, &[&res.finalbuf]).map_err(err)?;
            self.sync(q);
            parts.push(Part {
                kernel,
                units: &overshoot,
            });
        }
        q.execute(win.count, &parts).map_err(err)
    }

    /// The end-of-frame `finish` plus the final-image readback in the
    /// transfer mode the config selects.
    fn readback_final(
        &self,
        q: &mut CommandQueue,
        res: &FrameResources,
        out: &mut [f32],
    ) -> Result<(), String> {
        let (w, h, ws, n) = (res.w, res.h, res.ws, res.n);
        q.finish();
        if ws == w {
            self.read_back(q, &res.finalbuf, &mut out[..n])?;
        } else if self.opts.data_transfer {
            // Rect read crops the stride padding during the transfer, the
            // mirror of the rect-write upload.
            q.enqueue_read_rect(&res.finalbuf, ws, 0, 0, &mut out[..n], w, h)
                .map_err(|e| e.to_string())?;
        } else {
            let guard = q.map_read(&res.finalbuf).map_err(|e| e.to_string())?;
            let s = guard.as_slice();
            for y in 0..h {
                out[y * w..(y + 1) * w].copy_from_slice(&s[y * ws..y * ws + w]);
            }
        }
        Ok(())
    }

    /// CPU-side upscale border: read the downscaled matrix back, compute
    /// the border on the host (in the plan's reusable scratch), and write
    /// the border region to the device.
    fn cpu_border(&self, q: &mut CommandQueue, res: &mut FrameResources) -> Result<(), String> {
        let (w, h, ws) = (res.w, res.h, res.ws);
        let (down_host, up_host) = res
            .border_host
            .as_mut()
            .expect("the CPU border allocates its host scratch");
        self.read_back(q, &res.down, down_host.pixels_mut())?;
        // Only the border cells of the scratch are written here and only
        // they are read below, so stale interior values from a previous
        // frame are harmless.
        cpu_stages::upscale_border_into(down_host, up_host);
        q.charge_host("host:upscale_border", &border_host_counters(w, h));
        // Write exactly the border region into the device buffer: the
        // border rows in full, then the border columns of the body rows.
        let upv = res.up.write_view();
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
        let bytes = border_elems(w, h) * 4;
        if self.opts.data_transfer {
            q.charge_bulk("write:up_border", CommandKind::WriteBuffer, bytes);
        } else {
            q.charge_map("map-write:up_border", bytes);
        }
        Ok(())
    }

    /// Reduction of the pEdge matrix to its mean, on CPU or GPU per the
    /// config; runs pass A before anything is read back and returns the
    /// mean used by the strength curve.
    fn reduction(
        &self,
        q: &mut CommandQueue,
        res: &mut FrameResources,
        a: &PassA,
    ) -> Result<f32, String> {
        if !self.opts.reduction_gpu {
            self.run_pass_a(q, res, a, None)?;
            return self.reduction_cpu(q, res);
        }
        let partials = res
            .partials
            .as_ref()
            .expect("gpu reduction allocates partials");
        let strategy = self.tuning.reduction_strategy;
        let d = stage1_dispatch(&res.pedge.view(), 0, res.ns, partials, strategy).map_err(err)?;
        let stage1 = q.commit(d, &[partials]).map_err(err)?;
        self.sync(q);
        self.run_pass_a(q, res, a, Some(stage1))?;
        // Stage 2 on the host or the device per the tuned threshold.
        let (n, groups) = (res.n, stage1_groups(res.ns));
        if groups > self.tuning.stage2_gpu_threshold {
            // Stage 2 on the device, then a single-value readback.
            let result = res
                .reduction_out
                .as_ref()
                .expect("gpu stage2 allocates reduction_out");
            reduction_stage2_kernel(q, &partials.view(), groups, result).map_err(err)?;
            self.sync(q);
            let mut one = [0.0f32];
            self.read_back(q, result, &mut one)?;
            Ok(one[0] / n as f32)
        } else {
            // Stage 2 on the host: small partial array crosses the bus.
            let part = &mut res.reduction_host[..groups];
            self.read_back(q, partials, part)?;
            q.charge_host("host:reduction_stage2", &host_sum_counters(groups));
            let mut sum = 0.0f32;
            for &v in part.iter() {
                sum += v;
            }
            Ok(sum / n as f32)
        }
    }

    /// CPU-side reduction: the whole pEdge matrix crosses the bus, then a
    /// serial host sum — Fig. 16's CPU side.
    fn reduction_cpu(&self, q: &mut CommandQueue, res: &mut FrameResources) -> Result<f32, String> {
        let n = res.n;
        let ns = res.ns;
        // The strided buffer's padding columns are exact zeros in every
        // config, so summing all `ns` elements and dividing by the true
        // pixel count `n` is bit-identical to a sum over the cropped image.
        let host = &mut res.reduction_host;
        self.read_back(q, &res.pedge, host)?;
        // f64 accumulation, identical to the CPU reference stage, so
        // the base GPU pipeline reproduces the CPU output bit-exactly.
        let sum: f64 = host.iter().map(|&v| f64::from(v)).sum();
        q.charge_host("host:reduction", &host_sum_counters(ns));
        Ok((sum / n as f64) as f32)
    }
}

/// The dispatches pass A runs: committed in the upscale and Sobel phases,
/// executed once the host needs pEdge, the partials or the mean.
struct PassA {
    /// Downscale; already run when the CPU border read `down` back.
    downscale: Pending,
    sobel: Pending,
    /// The four GPU border kernels (empty for the CPU border), run after
    /// the pass because each reads a whole edge of `down`.
    border: Vec<Pending>,
}

/// A simulated-runtime error as the pipeline reports it.
fn err(e: simgpu::error::Error) -> String {
    e.to_string()
}

/// Host-side cost of summing `n` f32 values read back from the device: one
/// add and one 4-byte read each. The one recipe of both `host:reduction`
/// (the whole pEdge matrix) and `host:reduction_stage2` (the stage-1
/// partials), shared by the pipeline, the ablation probes and the
/// predictor.
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
fn border_lines(n: usize) -> impl Iterator<Item = usize> {
    let lines = [0, 1, n - 2, n - 1];
    (0..4)
        .filter(move |&i| i == 0 || lines[i] != lines[i - 1])
        .map(move |i| lines[i])
}

/// Elements the CPU border path writes back to the device: the border
/// rows in full plus the border columns of body rows `2 ..= h-3`,
/// deduplicated for tiny shapes. The one count of the `write:up_border`
/// transfer, shared by the pipeline, the ablation probe and the predictor.
pub fn border_elems(w: usize, h: usize) -> u64 {
    let rows = border_lines(h).count() * w;
    let cols = border_lines(w).count() * (2..h.saturating_sub(2)).len();
    (rows + cols) as u64
}

/// Host-side cost counters of the CPU upscale-border stage, the closed
/// form of `cpu::stages::upscale_border_into`'s counted loops: `host:
/// upscale_border` as the pipeline, the ablation probe and the predictor
/// charge it.
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

/// Every device buffer and host scratch area one frame of the pipeline
/// needs, allocated once for a fixed shape and optimization config.
///
/// Reuse across frames is bit-safe by construction: every buffer is fully
/// overwritten each frame except `padded`, whose border is zeroed at
/// allocation and never written afterwards (only the interior is
/// uploaded), and the host scratch areas, whose stale cells are never read.
struct FrameResources {
    w: usize,
    h: usize,
    w4: usize,
    h4: usize,
    n: usize,
    /// Vec4-aligned device row stride (`device_stride(w)`; equals `w` for
    /// multiple-of-4 widths).
    ws: usize,
    /// Elements of one strided device image (`ws * h`).
    ns: usize,
    pw: usize,
    padded: Buffer<f32>,
    /// Base (non-`data_transfer`) path only: the unpadded original.
    original: Option<Buffer<f32>>,
    down: Buffer<f32>,
    up: Buffer<f32>,
    pedge: Buffer<f32>,
    finalbuf: Buffer<f32>,
    /// GPU reduction only: per-group partial sums.
    partials: Option<Buffer<f32>>,
    /// GPU reduction with device-side stage 2 only: the single-value sum.
    reduction_out: Option<Buffer<f32>>,
    /// Unfused sharpening tail only.
    perror: Option<Buffer<f32>>,
    prelim: Option<Buffer<f32>>,
    /// CPU border only: host scratch for the downscaled frame readback,
    /// and the full-size image the border stage writes its pixels into.
    border_host: Option<(ImageF32, ImageF32)>,
    /// Host scratch for CPU-side reduction readbacks: the whole pEdge
    /// matrix for the CPU reduction, the partials for host stage 2, empty
    /// when stage 2 runs on the device.
    reduction_host: Vec<f32>,
}

impl FrameResources {
    /// The two kernel-facing views of the uploaded frame: the padded
    /// source, and what downscale/Sobel/pError read — the raw original in
    /// the base pipeline, the padded matrix once the upload is unified.
    fn sources(&self) -> (SrcImage, SrcImage) {
        let padded_src = SrcImage {
            view: self.padded.view(),
            pitch: self.pw,
            pad: 1,
        };
        let main_src = match &self.original {
            Some(b) => SrcImage {
                view: b.view(),
                pitch: self.w,
                pad: 0,
            },
            None => padded_src.clone(),
        };
        (padded_src, main_src)
    }

    fn new(pipe: &GpuPipeline, w: usize, h: usize) -> Result<Self, String> {
        check_shape(w, h)?;
        pipe.params.validate()?;
        // Downscaled grid is the ceiling: ragged edge blocks average the
        // pixels that exist. Intermediates live at the vec4-aligned device
        // stride `ws` so the vectorized kernels never need a misaligned
        // span; for multiple-of-4 widths every size below equals the
        // historical unpadded one.
        let (w4, h4) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
        let n = w * h;
        let ws = device_stride(w);
        let ns = ws * h;
        let pw = ws + 2;
        let ctx = &pipe.ctx;
        let groups = stage1_groups(ns);
        let device_stage2 = pipe.opts.reduction_gpu && groups > pipe.tuning.stage2_gpu_threshold;
        // Border placement depends only on the width, so it is fixed per
        // plan; host scratch is sized by what this config reads.
        let reduction_host = match (pipe.opts.reduction_gpu, device_stage2) {
            (false, _) => ns,
            (true, false) => groups,
            (true, true) => 0,
        };
        Ok(FrameResources {
            w,
            h,
            w4,
            h4,
            n,
            ws,
            ns,
            pw,
            padded: ctx.buffer("padded", pw * (h + 2)),
            original: (!pipe.opts.data_transfer).then(|| ctx.buffer("original", n)),
            down: ctx.buffer("down", w4 * h4),
            up: ctx.buffer("up", ns),
            pedge: ctx.buffer("pEdge", ns),
            finalbuf: ctx.buffer("final", ns),
            partials: pipe
                .opts
                .reduction_gpu
                .then(|| ctx.buffer("partials", groups)),
            reduction_out: device_stage2.then(|| ctx.buffer("reduction_out", 1)),
            perror: (!pipe.opts.kernel_fusion).then(|| ctx.buffer("pError", ns)),
            prelim: (!pipe.opts.kernel_fusion).then(|| ctx.buffer("prelim", ns)),
            border_host: (!pipe.gpu_border_enabled(w))
                .then(|| (ImageF32::zeros(w4, h4), ImageF32::zeros(w, h))),
            reduction_host: vec![0.0f32; reduction_host],
        })
    }
}

/// A prepared, reusable execution plan: one queue and one set of
/// [`FrameResources`] serving frame after frame of a fixed shape.
///
/// Created by [`GpuPipeline::prepared`]. Compared to calling
/// [`GpuPipeline::run`] in a loop, a plan allocates no device buffers on
/// the hot path, interns stage names (the queue survives across frames),
/// and reuses host scratch; the simulated times and output pixels are
/// identical (asserted by the equivalence test suite).
pub struct PipelinePlan {
    pipe: GpuPipeline,
    q: CommandQueue,
    res: FrameResources,
}

impl PipelinePlan {
    /// The frame shape this plan was prepared for.
    pub fn shape(&self) -> (usize, usize) {
        (self.res.w, self.res.h)
    }

    /// The pipeline configuration this plan executes.
    pub fn pipeline(&self) -> &GpuPipeline {
        &self.pipe
    }

    /// Runs one frame, returning the same [`RunReport`] a fresh
    /// [`GpuPipeline::run`] would produce.
    ///
    /// # Errors
    /// If the frame's shape differs from the prepared shape, or on
    /// simulated-runtime faults.
    pub fn run(&mut self, orig: &ImageF32) -> Result<RunReport, String> {
        let mut out = vec![0.0f32; self.res.n];
        self.run_into(orig, &mut out)?;
        Ok(report_from_queue(&self.q, self.res.w, self.res.h, out))
    }

    /// Hot-path variant of [`PipelinePlan::run`]: writes the sharpened
    /// pixels into `out` (length `w*h`) and returns the frame's simulated
    /// lane components, performing no per-frame allocation at all.
    ///
    /// # Errors
    /// As for [`PipelinePlan::run`]; additionally if `out` has the wrong
    /// length.
    pub fn run_into(
        &mut self,
        orig: &ImageF32,
        out: &mut [f32],
    ) -> Result<crate::gpu::batch::FrameComponents, String> {
        self.run_into_with_mean(orig, None, out)
    }

    /// [`PipelinePlan::run_into`] with an externally supplied pEdge mean
    /// (skipping the reduction), mirroring [`GpuPipeline::run_with_mean`].
    /// The strip pipeline's pass 2 runs on this: reusable plan, reusable
    /// output scratch, injected global mean.
    ///
    /// # Errors
    /// As for [`PipelinePlan::run_into`].
    pub fn run_into_with_mean(
        &mut self,
        orig: &ImageF32,
        mean: Option<f32>,
        out: &mut [f32],
    ) -> Result<crate::gpu::batch::FrameComponents, String> {
        if out.len() != self.res.n {
            return Err(format!(
                "output slice is {}, frame needs {}",
                out.len(),
                self.res.n
            ));
        }
        self.q.reset();
        self.pipe
            .run_frame(&mut self.q, &mut self.res, orig, mean, out)?;
        let mut c = crate::gpu::batch::FrameComponents {
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
    /// their [`CostCounters`], so efficiency telemetry can be derived.
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
        crate::telemetry::FrameTelemetry::collect(
            self.q.records(),
            self.q.device(),
            self.res.w,
            self.res.h,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPipeline;
    use imagekit::generate;
    use simgpu::device::DeviceSpec;

    fn vctx() -> Context {
        Context::with_validation(DeviceSpec::firepro_w8000())
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
    fn host_scratch_is_sized_by_what_the_config_reads() {
        let (w, h) = (64, 48);
        let ns = device_stride(w) * h;
        let scratch = |opts: OptConfig, tuning: Tuning| {
            let pipe =
                GpuPipeline::new(vctx(), SharpnessParams::default(), opts).with_tuning(tuning);
            let res = FrameResources::new(&pipe, w, h).unwrap();
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

    fn img64() -> ImageF32 {
        generate::natural(64, 64, 21)
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
