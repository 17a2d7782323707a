//! # sharpness-core — the ICPP 2015 sharpness pipeline
//!
//! Reproduction of the algorithm and optimizations from *Optimizing Image
//! Sharpening Algorithm on GPU* (Fan, Jia, Zhang, An, Cao — ICPP 2015).
//!
//! The sharpness algorithm (paper Section III) processes a brightness
//! matrix through: **downscale** (4×4 block means) → **upscale** (border
//! interpolation + `P·D·Pᵀ` body blocks) → **pError** (original −
//! upscaled) → **Sobel** (`|Gx|+|Gy|`) → **reduction** (pEdge mean) →
//! **strength + preliminary** (adaptive edge amplification, the `pow`-heavy
//! stage) → **overshoot control** (clamping against the local 3×3
//! envelope).
//!
//! Two implementations share the exact per-pixel math in [`math`]:
//!
//! * [`cpu::CpuPipeline`] — the serial "well-optimized CPU version"
//!   baseline, timed against a Core i5-3470 model;
//! * [`gpu::GpuPipeline`] — the OpenCL-style port running on the simulated
//!   AMD FirePro W8000 of the [`simgpu`] crate, configurable with
//!   [`gpu::OptConfig`] to reproduce the paper's base version and every
//!   step of its optimization ladder (Section V): data-transfer
//!   optimization, kernel fusion, GPU tree reduction with wavefront
//!   unrolling, vectorization for data locality, border CPU/GPU selection,
//!   and the "other" micro-optimizations.
//!
//! ```
//! use imagekit::generate;
//! use sharpness_core::cpu::CpuPipeline;
//! use sharpness_core::gpu::{GpuPipeline, OptConfig};
//! use sharpness_core::params::SharpnessParams;
//! use simgpu::prelude::{Context, DeviceSpec};
//!
//! let img = generate::natural(256, 256, 7);
//! let params = SharpnessParams::default();
//! let cpu = CpuPipeline::new(params).run(&img).unwrap();
//! let ctx = Context::new(DeviceSpec::firepro_w8000());
//! let gpu = GpuPipeline::new(ctx, params, OptConfig::all()).run(&img).unwrap();
//! assert!(gpu.output.max_abs_diff(&cpu.output) < 0.05);
//! assert!(gpu.total_s < cpu.total_s); // simulated seconds: GPU wins at 256²+
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod autotune;
pub mod color;
pub mod cpu;
pub mod gpu;
pub mod math;
pub mod memory;
pub mod params;
pub mod report;
pub mod service;
pub mod telemetry;
pub mod tune;

pub use cpu::CpuPipeline;
pub use gpu::kernels::simd;
pub use gpu::{GpuPipeline, InputFrame, OptConfig, Tuning};
pub use params::SharpnessParams;
pub use report::RunReport;
