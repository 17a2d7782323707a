//! The model-based schedule autotuner: predict simulated cost without
//! execution, search the full configuration space.
//!
//! The paper hand-picks its winning schedule (kernel fusion on, vec4
//! vectorization, a ~768-wide border crossover) after manual measurement
//! on one FirePro W8000. This module derives those choices — and better
//! ones on devices the paper never tried — from the analytical cost model
//! alone:
//!
//! * [`predict`] is the closed-form cost predictor: the exact simulated
//!   seconds of any `(w, h, OptConfig, Tuning, DeviceSpec)`
//!   with zero execution, `.to_bits()`-identical to what running the
//!   pipeline reports (the agreement sweep in `tests/tune.rs` enforces
//!   bit equality, not approximation).
//! * [`search`] enumerates the candidate space over the predictor —
//!   exhaustively or axis-by-axis — and returns the argmin per
//!   `(shape, device)`, plus the closed-form stage probes that
//!   [`crate::autotune`] decides from and the paper's component figures
//!   (Figs. 15–17) plot.
//!
//! The proved-vs-searched boundary: the static verifier
//! ([`crate::gpu::verify`]) proves what a schedule *touches*; this module
//! only ranks schedules by *cost*. A wrong cost recipe here can pick a
//! slow schedule, never an incorrect one — and the bit-exactness sweep
//! makes a wrong recipe loudly visible. Nothing in this module may
//! execute: a lint rule bans pipelines, queues and buffers from the
//! whole directory.

pub mod predict;
pub mod search;

pub use predict::{predict_frame, PredictedCommand, Prediction};
pub use search::{
    border_cpu_model, border_gpu_model, flags_label, reduction_cpu_model, reduction_gpu_model,
    search, search_pixel_invariant, SearchMode, TuneReport,
};
