//! Model ablations: how sensitive are the paper's conclusions to the
//! device parameters the simulator assumes?
//!
//! DESIGN.md calls out the load-bearing model constants — coalescing
//! factors (drives the vectorization win), launch overhead (drives the
//! small-image behaviour and the border crossover), PCI-E bandwidth
//! (drives the data-transfer optimization and the reduction/border
//! CPU-vs-GPU splits). Each sweep here perturbs exactly one constant and
//! re-measures the affected experiment, so a reviewer can see which
//! conclusions are robust and which are testbed-specific.

use sharpness_core::autotune::tune_border_crossover;
use sharpness_core::gpu::{GpuPipeline, OptConfig};
use sharpness_core::params::SharpnessParams;
use simgpu::context::Context;
use simgpu::device::{CpuSpec, DeviceSpec};

use crate::workload;

/// Runs the optimized and base pipelines on a modified device, returning
/// `(base_s, opt_s)`.
fn run_pair(dev: DeviceSpec, width: usize) -> (f64, f64) {
    let img = workload(width);
    let params = SharpnessParams::default();
    let base = GpuPipeline::new(Context::new(dev.clone()), params, OptConfig::none())
        .run(&img)
        .expect("base run")
        .total_s;
    let opt = GpuPipeline::new(Context::new(dev), params, OptConfig::all())
        .run(&img)
        .expect("opt run")
        .total_s;
    (base, opt)
}

/// Sweep of the vector-access coalescing factor: the vectorization win
/// (Section V-D) exists only while `vload4` coalesces better than scalar
/// stencil access. Returns `(factor, opt_over_base)` rows.
pub fn sweep_coalesce_vector(width: usize, factors: &[f64]) -> Vec<(f64, f64)> {
    factors
        .iter()
        .map(|&f| {
            let mut dev = DeviceSpec::firepro_w8000();
            dev.coalesce_vector = f;
            let (base, opt) = run_pair(dev, width);
            (f, base / opt)
        })
        .collect()
}

/// Sweep of the kernel-launch overhead: fusion's value and the border
/// crossover both hinge on it. Returns
/// `(launch_us, opt_over_base_at_width, border_crossover)` rows.
pub fn sweep_launch_overhead(width: usize, launch_us: &[f64]) -> Vec<(f64, f64, usize)> {
    let candidates: Vec<usize> = (1..=32).map(|k| k * 64).collect();
    launch_us
        .iter()
        .map(|&us| {
            let mut dev = DeviceSpec::firepro_w8000();
            dev.launch_overhead_s = us * 1e-6;
            let (base, opt) = run_pair(dev.clone(), width);
            let crossover = tune_border_crossover(&Context::new(dev), &candidates);
            (us, base / opt, crossover)
        })
        .collect()
}

/// Sweep of the PCI-E bulk bandwidth: the transfer optimization and the
/// CPU-vs-GPU stage splits are bandwidth stories. Returns
/// `(gbps, base_s, opt_s)` rows.
pub fn sweep_pcie_bandwidth(width: usize, gbps: &[f64]) -> Vec<(f64, f64, f64)> {
    gbps.iter()
        .map(|&bw| {
            let mut dev = DeviceSpec::firepro_w8000();
            dev.transfer.bulk_bw = bw * 1e9;
            dev.transfer.rect_bw = bw * 1e9;
            dev.transfer.map_bw = bw * 1e9 * (5.2 / 6.0); // keep the mode ratio
            let (base, opt) = run_pair(dev, width);
            (bw, base, opt)
        })
        .collect()
}

/// Sweep of the barrier stall cost: the Fig. 15 unrolling gap scales with
/// it. Returns `(stall_cycles, unroll1_s, unroll2_s, no_unroll_s)` rows.
pub fn sweep_barrier_cost(n: usize, stalls: &[f64]) -> Vec<(f64, f64, f64, f64)> {
    use sharpness_core::gpu::kernels::reduction::ReductionStrategy;
    use sharpness_core::tune::reduction_gpu_model;
    let cpu = CpuSpec::core_i5_3470();
    stalls
        .iter()
        .map(|&cycles| {
            let mut dev = DeviceSpec::firepro_w8000();
            dev.barrier_stall_cycles = cycles;
            let t = |s| reduction_gpu_model(&dev, &cpu, n, s, usize::MAX);
            (
                cycles,
                t(ReductionStrategy::UnrollOne),
                t(ReductionStrategy::UnrollTwo),
                t(ReductionStrategy::NoUnroll),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectorization_win_grows_with_coalescing_gap() {
        let rows = sweep_coalesce_vector(256, &[0.55, 0.7, 0.95]);
        // opt/base must improve as vector accesses coalesce better.
        assert!(rows[2].1 > rows[0].1, "{rows:?}");
    }

    #[test]
    fn launch_overhead_pushes_border_crossover_up() {
        let rows = sweep_launch_overhead(256, &[5.0, 40.0]);
        let (cheap, expensive) = (rows[0].2, rows[1].2);
        assert!(
            expensive > cheap,
            "costlier launches must favour the CPU border: {cheap} vs {expensive}"
        );
    }

    #[test]
    fn faster_pcie_compresses_totals() {
        let rows = sweep_pcie_bandwidth(256, &[3.0, 12.0]);
        assert!(rows[1].1 < rows[0].1); // base faster with faster bus
        assert!(rows[1].2 < rows[0].2); // opt too
    }

    #[test]
    fn barrier_cost_widens_unroll_gap() {
        let rows = sweep_barrier_cost(1024 * 1024, &[16.0, 256.0]);
        let gap_small = rows[0].3 - rows[0].1; // no-unroll minus unroll1
        let gap_big = rows[1].3 - rows[1].1;
        assert!(gap_big > gap_small, "{rows:?}");
        // Ordering holds at both extremes.
        for (_, one, two, none) in rows {
            assert!(one <= two && two <= none);
        }
    }
}
