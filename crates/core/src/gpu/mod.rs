//! GPU implementation: kernels, optimization flags, ablation measurements
//! and the pipeline.

pub mod ablate;
pub mod batch;
pub mod kernels;
pub mod opts;
pub mod pipeline;
pub mod strips;
pub mod verify;

pub use opts::{OptConfig, Tuning};
pub use pipeline::{GpuPipeline, PipelinePlan};
pub use verify::{enumerate_access, verify_static, StaticDispatch, StaticReport};
