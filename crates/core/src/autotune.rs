//! Autotuning of the hardware-dependent choices the paper "tested in
//! advance": the border CPU/GPU crossover (Fig. 17), the reduction
//! stage-2 host/device threshold, and the reduction unrolling strategy
//! (Fig. 15).
//!
//! The paper hard-codes these after manual measurement; this module
//! automates the derivation against whatever device the context models,
//! so re-targeting the pipeline to another [`DeviceSpec`] re-derives
//! them. The probes are the closed-form stage models in [`crate::tune`],
//! microseconds per candidate, so autotuning costs nothing at startup;
//! the tune agreement sweep holds the same kernel declarations and host
//! recipes bit-identical to execution inside whole frames.
//!
//! [`DeviceSpec`]: simgpu::device::DeviceSpec

use std::sync::OnceLock;

use simgpu::context::Context;

use crate::gpu::kernels::reduction::{ReductionStrategy, ELEMS_PER_GROUP};
use crate::gpu::opts::Tuning;
use crate::tune;

/// Finds the smallest square-image width (among `candidates`, ascending)
/// at which the GPU border beats the CPU border; returns
/// `usize::MAX`-capped fallback of the largest candidate + step if the GPU
/// never wins.
pub fn tune_border_crossover(ctx: &Context, candidates: &[usize]) -> usize {
    for &w in candidates {
        let t_cpu = tune::border_cpu_model(ctx.device(), ctx.cpu(), w, w);
        let t_gpu = tune::border_gpu_model(ctx.device(), w, w);
        if t_gpu <= t_cpu {
            return w;
        }
    }
    candidates.last().map(|&w| w * 2).unwrap_or(usize::MAX)
}

/// Picks the fastest reduction tail strategy for `n`-element inputs.
pub fn tune_reduction_strategy(ctx: &Context, n: usize) -> ReductionStrategy {
    let strategies = [
        ReductionStrategy::NoUnroll,
        ReductionStrategy::UnrollOne,
        ReductionStrategy::UnrollTwo,
    ];
    let mut best = ReductionStrategy::UnrollOne;
    let mut best_t = f64::INFINITY;
    for s in strategies {
        let t = tune::reduction_gpu_model(ctx.device(), ctx.cpu(), n, s, usize::MAX);
        if t < best_t {
            best_t = t;
            best = s;
        }
    }
    best
}

/// Finds a partial-count threshold above which finishing the reduction on
/// the device beats reading partials back and summing on the host.
/// Probes input sizes quadrupling from 256² to 4096² and returns the
/// partial count at the first size where the device stage 2 wins.
pub fn tune_stage2_threshold(ctx: &Context) -> usize {
    let mut n: usize = 256 * 256;
    while n <= 4096 * 4096 {
        let groups = n.div_ceil(ELEMS_PER_GROUP);
        let (dev, cpu) = (ctx.device(), ctx.cpu());
        let t_host =
            tune::reduction_gpu_model(dev, cpu, n, ReductionStrategy::UnrollOne, usize::MAX);
        let t_dev = tune::reduction_gpu_model(dev, cpu, n, ReductionStrategy::UnrollOne, 0);
        if t_dev < t_host {
            return groups.saturating_sub(1);
        }
        n *= 4;
    }
    usize::MAX
}

/// Bytes of the largest data cache the host advertises, read once from
/// `/sys/devices/system/cpu/cpu0/cache` (the usual Linux sysfs layout);
/// falls back to 8 MiB when the hierarchy cannot be read.
pub fn detected_cache_bytes() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| read_cache_bytes().unwrap_or(8 << 20))
}

fn read_cache_bytes() -> Option<usize> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best = 0usize;
    for entry in std::fs::read_dir(base).ok()? {
        let dir = entry.ok()?.path();
        let is_data = std::fs::read_to_string(dir.join("type"))
            .map(|t| matches!(t.trim(), "Data" | "Unified"))
            .unwrap_or(false);
        if !is_data {
            continue;
        }
        let size = std::fs::read_to_string(dir.join("size")).ok()?;
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().ok()? << 10
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().ok()? << 20
        } else {
            size.parse::<usize>().ok()?
        };
        best = best.max(bytes);
    }
    (best > 0).then_some(best)
}

/// Full autotune pass: derives a [`Tuning`] for the context's device.
pub fn autotune(ctx: &Context) -> Tuning {
    let candidates: Vec<usize> = (1..=32).map(|k| k * 64).collect();
    Tuning {
        reduction_strategy: tune_reduction_strategy(ctx, 2048 * 2048),
        stage2_gpu_threshold: tune_stage2_threshold(ctx),
        border_gpu_min_width: tune_border_crossover(ctx, &candidates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::device::DeviceSpec;

    fn ctx() -> Context {
        Context::new(DeviceSpec::firepro_w8000())
    }

    #[test]
    fn reduction_strategy_is_unroll_one_on_w8000() {
        // Fig. 15's conclusion.
        assert_eq!(
            tune_reduction_strategy(&ctx(), 2048 * 2048),
            ReductionStrategy::UnrollOne
        );
    }

    #[test]
    fn border_crossover_is_finite_and_plausible() {
        let candidates: Vec<usize> = (1..=32).map(|k| k * 64).collect();
        let x = tune_border_crossover(&ctx(), &candidates);
        // Fig. 17 reports 768 on the W8000; accept the right order of
        // magnitude from the model.
        assert!((256..=2048).contains(&x), "crossover {x}");
    }

    #[test]
    fn autotune_produces_usable_tuning() {
        let t = autotune(&ctx());
        assert!(t.border_gpu_min_width >= 64);
        assert_eq!(t.reduction_strategy, ReductionStrategy::UnrollOne);
    }
}
