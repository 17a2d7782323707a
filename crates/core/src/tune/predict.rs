//! The closed-form cost predictor: exact simulated seconds of one frame
//! with zero execution.
//!
//! [`predict_frame`] folds the [`simgpu::timing`] cost functions over the
//! steps of the frame program (`gpu::program::FrameProgram`) — the very steps the
//! executing pipeline walks: each transfer, host stage and kernel
//! dispatch costs what the executing [`simgpu::queue::CommandQueue`]
//! charges for it, and `finish` costs the sync overhead only when
//! commands are pending, as the queue's does. Because the executed
//! virtual clock is itself an ordered `f64` sum (`clock += duration` per
//! command) and every duration is a pure function of integer work
//! counters known in closed form, the prediction is `.to_bits()`-identical
//! to what running the pipeline reports — not merely close. The agreement
//! sweep in `tests/tune.rs` enforces that across all 64 configs and
//! multiple device profiles.
//!
//! This module must stay execution-free — no pipelines, no queues, no
//! buffers (a lint rule enforces it). It holds no cost recipe of its own:
//! a kernel's counters are its declared access summary (the very
//! declaration the executor charges), and a host stage's cost is the one
//! its program step carries.

use simgpu::device::{CpuSpec, DeviceSpec};
use simgpu::timing::kernel_time;

use crate::gpu::program::{FrameProgram, Step};
use crate::gpu::{OptConfig, Tuning};

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

/// Predicts the exact simulated seconds of one `(w, h)` frame under the
/// given configuration, with zero execution: the timing model folded over
/// the frame program's steps in order. The result is
/// `.to_bits()`-identical to `GpuPipeline::run(...).total_s`.
///
/// # Errors
/// On unsupported shapes.
pub fn predict_frame(
    w: usize,
    h: usize,
    opts: &OptConfig,
    tuning: &Tuning,
    dev: &DeviceSpec,
    cpu: &CpuSpec,
) -> Result<Prediction, String> {
    let prog = FrameProgram::build(w, h, opts, tuning)?;
    let mut p = Prediction {
        total_s: 0.0,
        commands: Vec::new(),
    };
    // Commands recorded since the last charged finish.
    let mut pending = false;
    for step in prog.steps() {
        let (name, seconds) = match step {
            Step::Transfer(t) => (t.name.clone(), t.seconds(&dev.transfer)),
            Step::Host(s) => (s.name().to_string(), s.seconds(cpu)),
            Step::Dispatch(_, d) => (
                d.desc.name.clone(),
                kernel_time(dev, &d.access.charged).total_s,
            ),
            Step::Finish if pending => ("finish".to_string(), dev.sync_overhead_s),
            Step::Finish | Step::Open(_) | Step::Close | Step::Pass(_) => continue,
        };
        pending = !matches!(step, Step::Finish);
        p.total_s += seconds;
        p.commands.push(PredictedCommand { name, seconds });
    }
    Ok(p)
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
