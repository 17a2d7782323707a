//! The closed-form cost predictor: exact simulated seconds of one frame
//! with zero execution.
//!
//! [`predict_frame`] walks the same commit-ordered dispatch enumeration
//! [`crate::gpu::verify`] produces and replays the monolithic command
//! stream — uploads, kernels, host stages, transfers, `finish` calls — as
//! an ordered `f64` sum, calling the identical [`simgpu::timing`] cost
//! functions the executing [`simgpu::queue::CommandQueue`] would call, in
//! the identical order. Because the executed virtual clock is itself an
//! ordered `f64` sum (`clock += duration` per command) and every duration
//! is a pure function of integer work counters known in closed form, the
//! prediction is `.to_bits()`-identical to what running the pipeline
//! reports — not merely close. The agreement sweep in `tests/tune.rs`
//! enforces that across all 64 configs and multiple device profiles.
//!
//! This module must stay execution-free — no pipelines, no queues, no
//! buffers (a lint rule enforces it). It holds no cost recipe of its own:
//! a kernel's counters are its declared access summary (the very
//! declaration the executor charges), and the host stages use the
//! pipeline's shared recipes.

use simgpu::device::{CpuSpec, DeviceSpec};
use simgpu::timing::{
    bulk_transfer_time, cpu_stage_time, host_memcpy_time, kernel_time, map_transfer_time,
    rect_transfer_time,
};

use crate::gpu::kernels::reduction::stage1_groups;
use crate::gpu::pipeline::{border_elems, border_host_counters, host_sum_counters};
use crate::gpu::{enumerate_access, OptConfig, Tuning};
use crate::params::{device_stride, SCALE};

/// One predicted command record: the name the executing queue would give
/// it and its simulated duration.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedCommand {
    /// Command name (kernel name, `"write:padded"`, `"host:reduction"`,
    /// `"finish"`, ...), matching the executed record's name.
    pub name: String,
    /// Simulated duration in seconds.
    pub seconds: f64,
}

/// The predicted frame: total simulated seconds plus the per-command
/// breakdown, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted end-to-end simulated seconds (`.to_bits()`-identical to
    /// the executed `RunReport::total_s`).
    pub total_s: f64,
    /// Per-command breakdown in the order the queue would record them.
    pub commands: Vec<PredictedCommand>,
}

/// Frame geometry of the replayed transfers, mirroring
/// `gpu::pipeline::FrameResources`.
struct Geom {
    w: usize,
    h: usize,
    /// Vec4-aligned device row stride.
    ws: usize,
    /// Pixels (`w * h`).
    n: usize,
    /// Strided elements (`ws * h`).
    ns: usize,
    /// Padded row pitch (`ws + 2`).
    pw: usize,
    /// Downscaled grid (`⌈w/4⌉ × ⌈h/4⌉`).
    wd: usize,
    hd: usize,
}

impl Geom {
    fn new(w: usize, h: usize) -> Self {
        let ws = device_stride(w);
        Geom {
            w,
            h,
            ws,
            n: w * h,
            ns: ws * h,
            pw: ws + 2,
            wd: w.div_ceil(SCALE),
            hd: h.div_ceil(SCALE),
        }
    }
}

/// The replayed virtual clock: an ordered `f64` sum with the queue's
/// pending-command `finish` semantics.
struct Clock<'a> {
    dev: &'a DeviceSpec,
    total: f64,
    pending: usize,
    commands: Vec<PredictedCommand>,
}

impl<'a> Clock<'a> {
    fn new(dev: &'a DeviceSpec) -> Self {
        Clock {
            dev,
            total: 0.0,
            pending: 0,
            commands: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, seconds: f64) {
        self.commands.push(PredictedCommand {
            name: name.to_string(),
            seconds,
        });
        self.total += seconds;
        self.pending += 1;
    }

    /// `clFinish`: charges the sync overhead only when commands are
    /// pending, exactly like `CommandQueue::finish`.
    fn finish(&mut self) {
        if self.pending > 0 {
            self.commands.push(PredictedCommand {
                name: "finish".to_string(),
                seconds: self.dev.sync_overhead_s,
            });
            self.total += self.dev.sync_overhead_s;
        }
        self.pending = 0;
    }

    /// The pipeline's inter-stage sync: elided when the `others`
    /// optimization removes redundant synchronisation.
    fn sync(&mut self, opts: &OptConfig) {
        if !opts.others {
            self.finish();
        }
    }
}

/// Predicts the exact simulated seconds of one `(w, h)` frame under the
/// given configuration, with zero execution.
///
/// The dispatch list is enumerated by [`enumerate_access`] (validating the
/// schedule exactly as execution would); the inter-kernel command stream
/// is replayed from the same branch structure
/// `GpuPipeline::run_frame_monolithic` executes. The result is
/// `.to_bits()`-identical to `GpuPipeline::run(...).total_s`.
///
/// # Errors
/// On unsupported shapes, or an enumeration that
/// desynchronises from the replay (a bug, surfaced loudly).
pub fn predict_frame(
    w: usize,
    h: usize,
    opts: &OptConfig,
    tuning: &Tuning,
    dev: &DeviceSpec,
    cpu: &CpuSpec,
) -> Result<Prediction, String> {
    let dispatches = enumerate_access(w, h, opts, tuning)?;
    let g = Geom::new(w, h);
    let t = &dev.transfer;
    let mut clk = Clock::new(dev);
    let mut cursor = 0usize;

    let kernel = |clk: &mut Clock, cursor: &mut usize, expect: &str| -> Result<(), String> {
        let d = dispatches.get(*cursor).ok_or_else(|| {
            format!("predictor desync: expected a {expect} dispatch, enumeration exhausted")
        })?;
        *cursor += 1;
        if !d.desc.name.starts_with(expect) {
            return Err(format!(
                "predictor desync: expected {expect}, enumeration has {}",
                d.desc.name
            ));
        }
        clk.push(&d.desc.name, kernel_time(dev, &d.access.charged).total_s);
        Ok(())
    };

    // ---- upload -------------------------------------------------------
    if opts.data_transfer {
        // One rect-write pads during the transfer.
        clk.push(
            "rect-write:padded",
            rect_transfer_time(t, g.h as u64, (g.n * 4) as u64),
        );
    } else {
        // Host-side padding, then both matrices through map/unmap.
        let padded_bytes = (g.pw * (g.h + 2) * 4) as u64;
        clk.push("host:padding", host_memcpy_time(cpu, padded_bytes));
        clk.push("map-write:padded", map_transfer_time(t, padded_bytes));
        clk.push("map-write:original", map_transfer_time(t, (g.n * 4) as u64));
    }
    clk.sync(opts);

    // ---- downscale ----------------------------------------------------
    kernel(&mut clk, &mut cursor, "downscale")?;
    clk.sync(opts);

    // ---- upscale border -----------------------------------------------
    if opts.border_gpu && w >= tuning.border_gpu_min_width {
        for _ in 0..4 {
            kernel(&mut clk, &mut cursor, "upscale_border")?;
        }
        clk.sync(opts);
    } else {
        let down_bytes = (g.wd * g.hd * 4) as u64;
        if opts.data_transfer {
            clk.push("read:down", bulk_transfer_time(t, down_bytes));
        } else {
            clk.push("map-read:down", map_transfer_time(t, down_bytes));
        }
        clk.push(
            "host:upscale_border",
            cpu_stage_time(cpu, &border_host_counters(w, h)),
        );
        let bytes = border_elems(w, h) * 4;
        if opts.data_transfer {
            clk.push("write:up_border", bulk_transfer_time(t, bytes));
        } else {
            clk.push("map-write:up_border", map_transfer_time(t, bytes));
        }
        // No sync: the CPU border path ends on the write-back.
    }

    // ---- upscale center -----------------------------------------------
    if g.wd > 1 && g.hd > 1 {
        kernel(&mut clk, &mut cursor, "upscale_center")?;
        clk.sync(opts);
    }

    // ---- Sobel --------------------------------------------------------
    kernel(&mut clk, &mut cursor, "sobel")?;
    clk.sync(opts);

    // ---- reduction ----------------------------------------------------
    if opts.reduction_gpu {
        kernel(&mut clk, &mut cursor, "reduction_stage1")?;
        clk.sync(opts);
        let groups = stage1_groups(g.ns);
        if groups > tuning.stage2_gpu_threshold {
            kernel(&mut clk, &mut cursor, "reduction_stage2")?;
            clk.sync(opts);
            if opts.data_transfer {
                clk.push("read:reduction_out", bulk_transfer_time(t, 4));
            } else {
                clk.push("map-read:reduction_out", map_transfer_time(t, 4));
            }
        } else {
            let bytes = (groups * 4) as u64;
            if opts.data_transfer {
                clk.push("read:partials", bulk_transfer_time(t, bytes));
            } else {
                clk.push("map-read:partials", map_transfer_time(t, bytes));
            }
            clk.push(
                "host:reduction_stage2",
                cpu_stage_time(cpu, &host_sum_counters(groups)),
            );
        }
    } else {
        let bytes = (g.ns * 4) as u64;
        if opts.data_transfer {
            clk.push("read:pEdge", bulk_transfer_time(t, bytes));
        } else {
            clk.push("map-read:pEdge", map_transfer_time(t, bytes));
        }
        clk.push(
            "host:reduction",
            cpu_stage_time(cpu, &host_sum_counters(g.ns)),
        );
    }

    // ---- sharpening tail ----------------------------------------------
    if opts.kernel_fusion {
        kernel(&mut clk, &mut cursor, "sharpness")?;
        clk.sync(opts);
    } else {
        kernel(&mut clk, &mut cursor, "perror")?;
        clk.sync(opts);
        kernel(&mut clk, &mut cursor, "preliminary")?;
        clk.sync(opts);
        kernel(&mut clk, &mut cursor, "overshoot")?;
        clk.sync(opts);
    }

    // ---- readback -----------------------------------------------------
    clk.finish();
    if g.ws == g.w {
        let bytes = (g.n * 4) as u64;
        if opts.data_transfer {
            clk.push("read:final", bulk_transfer_time(t, bytes));
        } else {
            clk.push("map-read:final", map_transfer_time(t, bytes));
        }
    } else if opts.data_transfer {
        clk.push(
            "rect-read:final",
            rect_transfer_time(t, g.h as u64, (g.n * 4) as u64),
        );
    } else {
        clk.push("map-read:final", map_transfer_time(t, (g.ns * 4) as u64));
    }

    if cursor != dispatches.len() {
        return Err(format!(
            "predictor desync: {} of {} dispatches consumed",
            cursor,
            dispatches.len()
        ));
    }
    Ok(Prediction {
        total_s: clk.total,
        commands: clk.commands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_rejects_tiny_shapes() {
        let dev = DeviceSpec::firepro_w8000();
        let cpu = CpuSpec::core_i5_3470();
        let tuning = Tuning::default();
        assert!(predict_frame(2, 2, &OptConfig::all(), &tuning, &dev, &cpu).is_err());
    }

    #[test]
    fn prediction_total_is_the_ordered_command_sum() {
        let dev = DeviceSpec::firepro_w8000();
        let cpu = CpuSpec::core_i5_3470();
        let p = predict_frame(256, 256, &OptConfig::all(), &Tuning::default(), &dev, &cpu).unwrap();
        let mut sum = 0.0f64;
        for cmd in &p.commands {
            sum += cmd.seconds;
        }
        assert_eq!(sum.to_bits(), p.total_s.to_bits());
        assert!(p.total_s > 0.0);
    }
}
