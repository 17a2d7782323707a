//! # sharpness-bench — harness regenerating the paper's tables and figures
//!
//! Each `figNN_*` function reruns the corresponding experiment of
//! *Optimizing Image Sharpening Algorithm on GPU* (ICPP 2015) against the
//! simulated AMD FirePro W8000 and the modeled Core i5-3470, returning the
//! series the paper plots. The `repro` binary prints them; `EXPERIMENTS.md`
//! records paper-vs-measured values.
//!
//! All times are *simulated model seconds* (deterministic on any host).
//! The benches under `benches/` time host execution: `tune_model` times
//! the schedule search per candidate and `service_load` compares the
//! sharpen service with per-request plans on one stream. Every bench
//! prints to stdout and writes no file. End-to-end host wall time is
//! measured by the `e2ebench` package's paired protocol.

#![warn(missing_docs)]

pub mod ablation;
pub mod csv;

use imagekit::{generate, ImageF32};
use sharpness_core::cpu::CpuPipeline;
use sharpness_core::gpu::kernels::reduction::ReductionStrategy;
use sharpness_core::gpu::{GpuPipeline, OptConfig};
use sharpness_core::params::SharpnessParams;
use sharpness_core::report::{classify_cpu_stage, classify_gpu_stage, RunReport};
use sharpness_core::tune::{
    border_cpu_model, border_gpu_model, reduction_cpu_model, reduction_gpu_model,
};
use simgpu::context::Context;
use simgpu::device::{CpuSpec, DeviceSpec};

/// The square image widths of Figs. 12–13 (256² … 4096²).
pub const FIG12_SIZES: [usize; 5] = [256, 512, 1024, 2048, 4096];
/// The square image widths of Figs. 14–16.
pub const FIG14_SIZES: [usize; 3] = [256, 1024, 4096];
/// The square image widths of Fig. 17 (around the border crossover).
pub const FIG17_SIZES: [usize; 4] = [448, 576, 704, 832];
/// Seed for the deterministic workload images.
pub const WORKLOAD_SEED: u64 = 2015;

/// Builds the standard workload image for a given square size.
pub fn workload(width: usize) -> ImageF32 {
    generate::natural(width, width, WORKLOAD_SEED)
}

/// Fresh W8000 context (validation off — measurement runs).
pub fn w8000() -> Context {
    Context::new(DeviceSpec::firepro_w8000())
}

/// One row of Fig. 12: total simulated runtimes and derived speedups.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Row {
    /// Square image width.
    pub width: usize,
    /// CPU version, seconds.
    pub cpu_s: f64,
    /// Base GPU version, seconds.
    pub base_s: f64,
    /// Fully optimized GPU version, seconds.
    pub opt_s: f64,
}

impl Fig12Row {
    /// Speedup of the base GPU version over the CPU version.
    pub fn base_speedup(&self) -> f64 {
        self.cpu_s / self.base_s
    }
    /// Speedup of the optimized GPU version over the CPU version.
    pub fn opt_speedup(&self) -> f64 {
        self.cpu_s / self.opt_s
    }
    /// Further speedup of the optimized over the base GPU version.
    pub fn opt_over_base(&self) -> f64 {
        self.base_s / self.opt_s
    }
}

/// Runs the CPU pipeline at `width` and returns the report.
pub fn run_cpu(width: usize) -> RunReport {
    let img = workload(width);
    CpuPipeline::new(SharpnessParams::default())
        .run(&img)
        .expect("cpu pipeline")
}

/// Runs the GPU pipeline at `width` with `opts` and returns the report.
pub fn run_gpu(width: usize, opts: OptConfig) -> RunReport {
    let img = workload(width);
    GpuPipeline::new(w8000(), SharpnessParams::default(), opts)
        .run(&img)
        .expect("gpu pipeline")
}

/// Fig. 12: CPU vs base GPU vs optimized GPU across image sizes.
pub fn fig12_data(sizes: &[usize]) -> Vec<Fig12Row> {
    sizes
        .iter()
        .map(|&width| Fig12Row {
            width,
            cpu_s: run_cpu(width).total_s,
            base_s: run_gpu(width, OptConfig::none()).total_s,
            opt_s: run_gpu(width, OptConfig::all()).total_s,
        })
        .collect()
}

/// Fig. 13(a): per-stage time fractions of the CPU version.
pub fn fig13a_data(sizes: &[usize]) -> Vec<(usize, Vec<(String, f64)>)> {
    sizes
        .iter()
        .map(|&width| {
            let r = run_cpu(width);
            let cats = r.by_category(classify_cpu_stage);
            let total = r.total_s;
            (
                width,
                cats.into_iter().map(|(c, s)| (c, s / total)).collect(),
            )
        })
        .collect()
}

/// Fig. 13(b)/(c): per-stage time fractions of a GPU version.
pub fn fig13_gpu_data(sizes: &[usize], opts: OptConfig) -> Vec<(usize, Vec<(String, f64)>)> {
    sizes
        .iter()
        .map(|&width| {
            let r = run_gpu(width, opts);
            let cats = r.by_category(classify_gpu_stage);
            let total = r.total_s;
            (
                width,
                cats.into_iter().map(|(c, s)| (c, s / total)).collect(),
            )
        })
        .collect()
}

/// Fig. 14: cumulative optimization steps; returns, per size, the
/// `(step name, seconds)` series in the paper's order.
pub fn fig14_data(sizes: &[usize]) -> Vec<(usize, Vec<(&'static str, f64)>)> {
    sizes
        .iter()
        .map(|&width| {
            let series = OptConfig::cumulative_steps()
                .into_iter()
                .map(|(name, opts)| (name, run_gpu(width, opts).total_s))
                .collect();
            (width, series)
        })
        .collect()
}

/// Fig. 15: reduction with one vs two unrolled wavefronts (plus the
/// barrier-per-step tree for context). Returns
/// `(width, unroll1_s, unroll2_s, no_unroll_s)` per size.
pub fn fig15_data(sizes: &[usize]) -> Vec<(usize, f64, f64, f64)> {
    let ctx = w8000();
    let (dev, cpu) = (ctx.device(), ctx.cpu());
    sizes
        .iter()
        .map(|&width| {
            let n = width * width;
            let t = |s| reduction_gpu_model(dev, cpu, n, s, usize::MAX);
            let one = t(ReductionStrategy::UnrollOne);
            let two = t(ReductionStrategy::UnrollTwo);
            let none = t(ReductionStrategy::NoUnroll);
            (width, one, two, none)
        })
        .collect()
}

/// Fig. 16: reduction on CPU (including the pEdge transfer) vs optimized
/// GPU reduction. Returns `(width, cpu_s, gpu_s)` per size.
pub fn fig16_data(sizes: &[usize]) -> Vec<(usize, f64, f64)> {
    let ctx = w8000();
    let (dev, host) = (ctx.device(), ctx.cpu());
    sizes
        .iter()
        .map(|&width| {
            let n = width * width;
            let cpu = reduction_cpu_model(dev, host, n);
            let gpu = reduction_gpu_model(dev, host, n, ReductionStrategy::UnrollOne, 4096);
            (width, cpu, gpu)
        })
        .collect()
}

/// Fig. 17: upscale border on CPU vs GPU around the crossover. Returns
/// `(width, cpu_s, gpu_s)` per size.
pub fn fig17_data(sizes: &[usize]) -> Vec<(usize, f64, f64)> {
    let ctx = w8000();
    let (dev, host) = (ctx.device(), ctx.cpu());
    sizes
        .iter()
        .map(|&width| {
            let cpu = border_cpu_model(dev, host, width, width);
            let gpu = border_gpu_model(dev, width, width);
            (width, cpu, gpu)
        })
        .collect()
}

/// Table I: the hardware platform comparison.
pub fn table1() -> String {
    let g = DeviceSpec::firepro_w8000();
    let c = CpuSpec::core_i5_3470();
    let mut s = String::new();
    s.push_str("Table I — experimental hardware platform specifications\n");
    s.push_str(&format!("{:<28}{:>20}{:>22}\n", "", g.name, c.name));
    s.push_str(&format!(
        "{:<28}{:>20}{:>22}\n",
        "Processor main frequency",
        format!("{:.2} GHz", g.clock_ghz),
        format!("{:.1} GHz", c.clock_ghz)
    ));
    s.push_str(&format!(
        "{:<28}{:>20}{:>22}\n",
        "Number of cores", g.total_lanes, 4
    ));
    s.push_str(&format!(
        "{:<28}{:>20}{:>22}\n",
        "Peak GFlops",
        format!("{:.2} TFlops", g.peak_gflops / 1000.0),
        "57.76 GFlops"
    ));
    s.push_str(&format!(
        "{:<28}{:>20}{:>22}\n",
        "Memory bandwidth",
        format!("{:.0} GB/s", g.mem_bw / 1e9),
        "25 GB/s"
    ));
    s
}

/// Formats seconds adaptively (µs/ms/s) for table output.
pub fn fmt_time(s: f64) -> String {
    if s < 1e-3 {
        format!("{:8.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:8.2} ms", s * 1e3)
    } else {
        format!("{:8.3} s ", s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_small_sizes_have_sane_shape() {
        let rows = fig12_data(&[256, 512]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.cpu_s > r.base_s,
                "GPU base should beat CPU at {}",
                r.width
            );
            assert!(
                r.opt_s <= r.base_s * 1.05,
                "opt should not regress at {}",
                r.width
            );
        }
        // Speedup grows with size.
        assert!(rows[1].opt_speedup() > rows[0].opt_speedup());
    }

    #[test]
    fn fig13_fractions_sum_to_one() {
        for (_, cats) in fig13a_data(&[256]) {
            let total: f64 = cats.iter().map(|(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        for (_, cats) in fig13_gpu_data(&[256], OptConfig::none()) {
            let total: f64 = cats.iter().map(|(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig15_unroll_one_wins() {
        for (w, one, two, none) in fig15_data(&[256, 1024]) {
            assert!(one < two, "{w}: unroll1 {one} < unroll2 {two}");
            assert!(two < none, "{w}: unroll2 {two} < no-unroll {none}");
        }
    }

    #[test]
    fn fig16_gpu_wins_at_scale() {
        let data = fig16_data(&[1024]);
        let (_, cpu, gpu) = data[0];
        assert!(gpu < cpu);
    }

    #[test]
    fn table1_mentions_both_machines() {
        let t = table1();
        assert!(t.contains("W8000"));
        assert!(t.contains("i5"));
    }

    #[test]
    fn fmt_time_ranges() {
        assert!(fmt_time(5e-6).contains("µs"));
        assert!(fmt_time(5e-2).contains("ms"));
        assert!(fmt_time(2.0).contains("s "));
    }
}
