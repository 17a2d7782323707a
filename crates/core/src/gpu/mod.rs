//! GPU implementation: kernels, optimization flags, the frame program and
//! its executor.

pub mod batch;
pub mod kernels;
pub mod opts;
pub mod pipeline;
pub(crate) mod program;
pub mod verify;

pub use opts::{OptConfig, Tuning};
pub use pipeline::{GpuPipeline, InputFrame, PipelinePlan};
pub use verify::{enumerate_access, verify_static, StaticDispatch, StaticReport};
