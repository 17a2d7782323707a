//! Static access-summary verification: prove kernel bounds, race-freedom
//! and byte accounting for a pipeline configuration **without executing
//! anything** (DESIGN.md §15).
//!
//! [`enumerate_access`] returns the dispatch steps of the frame program
//! (`gpu::program::FrameProgram`) — the very steps the executor commits: for a
//! `(w, h)` shape, an [`OptConfig`] and a [`Tuning`], every kernel
//! dispatch the frame issues, in commit order, each carrying the
//! closed-form [`AccessSummary`](simgpu::access::AccessSummary) it declares, cost counters included (the
//! program builds them with pure arithmetic, so no device, queue or pixel
//! data is involved). [`verify_static`] then proves, per dispatch:
//!
//! * **(a) bounds** — every declared window stays inside its buffer,
//!   including the ragged tails of non-multiple-of-4 shapes;
//! * **(b) race-freedom** — write windows are internally disjoint and
//!   pairwise disjoint, so no element is stored twice in one dispatch;
//! * **(c) accounting** — the bytes the dispatch charges the cost model
//!   equal the declared write traffic exactly and bound the declared read
//!   traffic within the summary's exact overcharge ratio.
//!
//! The executed pipeline commits the same summaries (the queue charges
//! exactly their counters, and the sanitizer audits them against observed
//! per-element traffic), and the agreement test compares
//! [`CommandQueue::take_access_log`] of a live run against this module's
//! enumeration, dispatch for dispatch.
//!
//! [`CommandQueue::take_access_log`]: simgpu::queue::CommandQueue::take_access_log

use simgpu::access::{verify_summary, AccessError, VerifyStats};

use crate::gpu::opts::{OptConfig, Tuning};
use crate::gpu::program::FrameProgram;
pub use crate::gpu::program::StaticDispatch;

/// The verdict of [`verify_static`]: every enumerated dispatch proved
/// sound, with aggregate counters for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticReport {
    /// Kernel dispatches enumerated.
    pub kernels: usize,
    /// Aggregated verifier counters over every dispatch.
    pub stats: VerifyStats,
}

impl StaticReport {
    /// Publishes the verifier counters as `verify.*` metrics gauges, so
    /// the committed metric baselines catch accounting regressions.
    pub fn to_registry(&self, reg: &mut simgpu::metrics::MetricsRegistry) {
        reg.set_gauge("verify.kernels", self.kernels as f64);
        reg.set_gauge("verify.dispatches", self.stats.dispatches as f64);
        reg.set_gauge("verify.windows", self.stats.windows as f64);
        reg.set_gauge(
            "verify.declared_read_bytes",
            self.stats.declared_read_bytes as f64,
        );
        reg.set_gauge(
            "verify.declared_write_bytes",
            self.stats.declared_write_bytes as f64,
        );
        reg.set_gauge(
            "verify.charged_read_bytes",
            self.stats.charged_read_bytes as f64,
        );
        reg.set_gauge(
            "verify.charged_write_bytes",
            self.stats.charged_write_bytes as f64,
        );
        reg.set_gauge("verify.max_ratio_slack", self.stats.max_ratio_slack);
    }

    /// One human-readable line for CLI summaries.
    pub fn summary_line(&self) -> String {
        format!(
            "static verifier: {} dispatches ({} windows) proved in-bounds, \
             race-free and exactly charged; {:.3} MiB writes, {:.3} MiB reads \
             (ratio slack {:.4})",
            self.kernels,
            self.stats.windows,
            self.stats.charged_write_bytes as f64 / (1024.0 * 1024.0),
            self.stats.charged_read_bytes as f64 / (1024.0 * 1024.0),
            self.stats.max_ratio_slack,
        )
    }
}

/// Enumerates, in commit order, every kernel dispatch one frame of the
/// pipeline issues for this shape, flag set and tuning — the frame
/// program's dispatch steps, with the access summaries the executor
/// commits. Purely arithmetic: nothing is allocated on the simulated
/// device and nothing executes.
///
/// # Errors
/// On unsupported shapes (below the 3×3 minimum).
pub fn enumerate_access(
    w: usize,
    h: usize,
    opts: &OptConfig,
    tuning: &Tuning,
) -> Result<Vec<StaticDispatch>, String> {
    Ok(FrameProgram::build(w, h, opts, tuning)?.into_dispatches())
}

/// Statically verifies one frame of the pipeline: enumerates the schedule
/// via [`enumerate_access`] and proves bounds, write disjointness, charge
/// accounting for every dispatch.
///
/// # Errors
/// On unsupported shapes, or with the first [`AccessError`] (rendered to a
/// string) if any property fails — which would indicate a rotted
/// closed-form summary, since the same summaries gate live dispatch.
pub fn verify_static(
    w: usize,
    h: usize,
    opts: &OptConfig,
    tuning: &Tuning,
) -> Result<StaticReport, String> {
    let dispatches = enumerate_access(w, h, opts, tuning)?;
    let mut stats = VerifyStats::default();
    for d in &dispatches {
        check_dispatch(d).map_err(|e| e.to_string())?;
        stats.absorb(&d.access);
    }
    Ok(StaticReport {
        kernels: dispatches.len(),
        stats,
    })
}

/// Proves one dispatch sound: the summary matches the dispatch's grid and
/// passes the window checks [`simgpu::queue::CommandQueue`] applies before
/// running it.
fn check_dispatch(d: &StaticDispatch) -> Result<(), AccessError> {
    let s = &d.access;
    if s.kernel != d.desc.name || s.total_groups != d.desc.total_groups() || !s.covers_full_grid() {
        return Err(AccessError::GridMismatch {
            kernel: d.desc.name.clone(),
            detail: format!(
                "declares kernel `{}` over groups {:?} of {}, dispatch is `{}` over {}",
                s.kernel,
                s.groups,
                s.total_groups,
                d.desc.name,
                d.desc.total_groups()
            ),
        });
    }
    verify_summary(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_configs() -> Vec<OptConfig> {
        (0u32..64)
            .map(|bits| OptConfig {
                data_transfer: bits & 1 != 0,
                kernel_fusion: bits & 2 != 0,
                reduction_gpu: bits & 4 != 0,
                vectorization: bits & 8 != 0,
                border_gpu: bits & 16 != 0,
                others: bits & 32 != 0,
            })
            .collect()
    }

    #[test]
    fn verifies_all_configs_on_a_ragged_shape() {
        let tuning = Tuning::default();
        for opts in all_configs() {
            let r = verify_static(1001, 701, &opts, &tuning)
                .unwrap_or_else(|e| panic!("{opts:?}: {e}"));
            assert!(r.kernels >= 4, "{opts:?}: only {} dispatches", r.kernels);
            assert_eq!(r.stats.dispatches, r.kernels as u64);
            assert!(r.stats.max_ratio_slack >= 0.0);
            assert!(r.stats.charged_write_bytes == r.stats.declared_write_bytes);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(verify_static(2, 2, &OptConfig::none(), &Tuning::default()).is_err());
    }

    #[test]
    fn small_stage2_threshold_adds_device_stage2() {
        let opts = OptConfig {
            reduction_gpu: true,
            ..OptConfig::none()
        };
        let tuning = Tuning {
            stage2_gpu_threshold: 1,
            ..Tuning::default()
        };
        let names: Vec<String> = enumerate_access(256, 256, &opts, &tuning)
            .unwrap()
            .into_iter()
            .map(|d| d.desc.name)
            .collect();
        assert!(names.iter().any(|n| n == "reduction_stage2"));
    }
}
