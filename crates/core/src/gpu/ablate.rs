//! Standalone stage measurements for the paper's component figures:
//! reduction CPU-vs-GPU (Fig. 16), reduction unrolling (Fig. 15) and the
//! upscale border CPU-vs-GPU (Fig. 17).
//!
//! All functions measure *in-pipeline* cost: the stage input is already
//! resident on the device (as it is mid-pipeline), so the CPU variants pay
//! the device→host transfer the paper highlights ("the procedure of
//! reduction on CPU includes transferring the pEdge matrix from GPU to
//! CPU").

use simgpu::context::Context;

use crate::gpu::kernels::reduction::{
    reduction_stage1_kernel, reduction_stage2_kernel, stage1_groups, ReductionStrategy,
};
use crate::gpu::kernels::upscale::upscale_border_gpu;
use crate::gpu::kernels::KernelTuning;
use crate::gpu::pipeline::{border_elems, border_host_counters, host_sum_counters};
use crate::params::{device_stride, SCALE};

/// Simulated time of the two-stage GPU reduction of `n` elements,
/// including the stage-2 host finish (or device stage 2 above
/// `stage2_threshold` partials) and the small result readback.
pub fn reduction_gpu_time(
    ctx: &Context,
    n: usize,
    strategy: ReductionStrategy,
    stage2_threshold: usize,
) -> f64 {
    let mut q = ctx.queue();
    let data = vec![1.0f32; n];
    let src = ctx.buffer_from("pEdge", &data);
    let partials = ctx.buffer::<f32>("partials", stage1_groups(n));
    let (groups, _) =
        reduction_stage1_kernel(&mut q, &src.view(), n, &partials, strategy).expect("stage1");
    if groups > stage2_threshold {
        let result = ctx.buffer::<f32>("reduction_out", 1);
        reduction_stage2_kernel(&mut q, &partials.view(), groups, &result).expect("stage2");
        let mut one = [0.0f32];
        q.enqueue_read(&result, &mut one).expect("read result");
    } else {
        let mut part = vec![0.0f32; groups];
        q.enqueue_read(&partials, &mut part).expect("read partials");
        q.charge_host("host:reduction_stage2", &host_sum_counters(groups));
    }
    q.elapsed()
}

/// Simulated time of the CPU reduction of `n` device-resident elements:
/// full transfer back plus a serial host sum.
pub fn reduction_cpu_time(ctx: &Context, n: usize) -> f64 {
    let mut q = ctx.queue();
    let data = vec![1.0f32; n];
    let src = ctx.buffer_from("pEdge", &data);
    let mut host = vec![0.0f32; n];
    q.enqueue_read(&src, &mut host).expect("read pEdge");
    q.charge_host("host:reduction", &host_sum_counters(n));
    q.elapsed()
}

/// Simulated time of the GPU upscale-border for a `w × h` image (four
/// small, divergence-heavy kernels).
pub fn border_gpu_time(ctx: &Context, w: usize, h: usize) -> f64 {
    let (w4, h4) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let ws = device_stride(w);
    let mut q = ctx.queue();
    let down = ctx.buffer::<f32>("down", w4 * h4);
    down.fill_from(&vec![1.0f32; w4 * h4]);
    let up = ctx.buffer::<f32>("up", ws * h);
    upscale_border_gpu(&mut q, &down.view(), &up, w, h, ws, KernelTuning::default())
        .expect("border kernels");
    q.elapsed()
}

/// Simulated time of the CPU upscale-border for a `w × h` image:
/// downscaled matrix read back, host interpolation, border region written
/// to the device — charged exactly as the pipeline's CPU border stage
/// charges them.
pub fn border_cpu_time(ctx: &Context, w: usize, h: usize) -> f64 {
    let (w4, h4) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let mut q = ctx.queue();
    let down = ctx.buffer::<f32>("down", w4 * h4);
    down.fill_from(&vec![1.0f32; w4 * h4]);
    let mut host = vec![0.0f32; w4 * h4];
    q.enqueue_read(&down, &mut host).expect("read down");
    q.charge_host("host:upscale_border", &border_host_counters(w, h));
    q.charge_bulk(
        "write:up_border",
        simgpu::queue::CommandKind::WriteBuffer,
        border_elems(w, h) * 4,
    );
    q.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::device::DeviceSpec;

    fn ctx() -> Context {
        Context::new(DeviceSpec::firepro_w8000())
    }

    #[test]
    fn gpu_reduction_beats_cpu_at_scale() {
        // Fig. 16: at large sizes the GPU reduction wins by a wide margin.
        let c = ctx();
        let n = 4096 * 4096;
        let t_cpu = reduction_cpu_time(&c, n);
        let t_gpu = reduction_gpu_time(&c, n, ReductionStrategy::UnrollOne, 4096);
        assert!(t_gpu * 5.0 < t_cpu, "gpu {t_gpu} vs cpu {t_cpu}");
    }

    #[test]
    fn reduction_times_scale_with_n() {
        let c = ctx();
        let small = reduction_gpu_time(&c, 256 * 256, ReductionStrategy::UnrollOne, 4096);
        let large = reduction_gpu_time(&c, 2048 * 2048, ReductionStrategy::UnrollOne, 4096);
        assert!(large > small);
    }

    #[test]
    fn border_cpu_wins_small_gpu_wins_large() {
        // Fig. 17: the crossover sits between the smallest and largest
        // tested sizes.
        let c = ctx();
        assert!(border_cpu_time(&c, 448, 448) < border_gpu_time(&c, 448, 448));
        assert!(border_gpu_time(&c, 1536, 1536) < border_cpu_time(&c, 1536, 1536));
    }

    #[test]
    fn stage2_threshold_changes_path() {
        let c = ctx();
        let n = 2048 * 2048;
        // Force device stage 2 vs host stage 2; both must complete.
        let t_dev = reduction_gpu_time(&c, n, ReductionStrategy::UnrollOne, 0);
        let t_host = reduction_gpu_time(&c, n, ReductionStrategy::UnrollOne, usize::MAX);
        assert!(t_dev > 0.0 && t_host > 0.0);
    }
}
