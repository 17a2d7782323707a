//! # sharpness — umbrella crate for the ICPP 2015 sharpness reproduction
//!
//! Re-exports the three layers of the system so examples and downstream
//! users need a single dependency:
//!
//! * [`simgpu`] — the simulated OpenCL-like GPU substrate (device model,
//!   buffers, command queues, kernels, PCI-E transfer model, timing);
//! * [`imagekit`] — image matrices, synthetic generators, Netpbm I/O and
//!   quality metrics;
//! * [`core`] (crate `sharpness-core`) — the sharpness pipeline itself:
//!   the CPU reference and the optimization-configurable GPU port.
//!
//! See the repository `README.md` for a tour and `DESIGN.md` for the
//! paper-to-module map.
//!
//! ## Quickstart
//!
//! ```
//! use sharpness::prelude::*;
//!
//! let image = imagekit::generate::natural(256, 256, 42);
//! let ctx = Context::new(DeviceSpec::firepro_w8000());
//! let pipeline = GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all());
//! let run = pipeline.run(&image).unwrap();
//! assert_eq!(run.output.width(), 256);
//! println!("sharpened in {:.3} simulated ms", run.total_s * 1e3);
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use imagekit;
pub use sharpness_core as core;
pub use simgpu;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use imagekit::{generate, metrics, ImageF32, ImageU8, RgbImageU8};
    pub use sharpness_core::cpu::CpuPipeline;
    pub use sharpness_core::gpu::{
        enumerate_access, verify_static, GpuPipeline, OptConfig, PipelinePlan, StaticDispatch,
        StaticReport, Tuning,
    };
    pub use sharpness_core::params::SharpnessParams;
    pub use sharpness_core::report::RunReport;
    pub use simgpu::context::Context;
    pub use simgpu::device::{CpuSpec, DeviceSpec};
}
