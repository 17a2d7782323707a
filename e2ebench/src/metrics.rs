//! The benchmark's metric table: every name it reports, with unit,
//! direction and regression bound. `BENCHMARK.json` at the repository root
//! repeats the `Report::Driver` end-to-end rows; a test keeps the two equal.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, SLO share).
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// End-to-end (what a user of the system sees) or one layer's share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// A user-visible result of the whole workload.
    EndToEnd,
    /// One layer of the traced decomposition.
    Layer,
}

/// Where a metric is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// In the one-line driver result, on every workload: a wall-clock or
    /// memory measurement (end-to-end metrics with `--trace 0`, per-layer
    /// ones with `--trace 1`).
    Driver,
    /// Only in the detail record and result files: a deterministic count
    /// or simulated time, or a number only some workloads have.
    Detail,
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression; `Some(0.0)` for deterministic metrics,
    /// which must be identical; `None` for layer metrics, which have none.
    pub bound: Option<f64>,
    /// End-to-end or per-layer.
    pub level: Level,
    /// Driver line or detail only.
    pub report: Report,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    level: Level,
    report: Report,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        level,
        report,
    }
}

use Better::{Higher, Lower};
use Level::{EndToEnd, Layer};
use Report::{Detail, Driver};

/// Every metric, end-to-end first.
pub const METRICS: &[MetricDef] = &[
    m("frame_ms.p50", "ms", Lower, Some(0.15), EndToEnd, Driver),
    m("frame_ms.p95", "ms", Lower, Some(0.20), EndToEnd, Driver),
    m("frames_per_s", "1/s", Higher, Some(0.15), EndToEnd, Driver),
    m("peak_rss_mib", "MiB", Lower, Some(0.10), EndToEnd, Driver),
    m("setup_s", "s", Lower, Some(0.25), EndToEnd, Driver),
    m("sim_ms", "ms", Lower, Some(0.0), EndToEnd, Detail),
    m("slo_met_frac", "frac", Higher, Some(0.0), EndToEnd, Detail),
    m("sim_p99_ms", "ms", Lower, Some(0.0), EndToEnd, Detail),
    m("failed_frac", "frac", Lower, Some(0.0), EndToEnd, Detail),
    m("gen.natural_ms", "ms", Lower, None, Layer, Driver),
    m("io.decode_ms", "ms", Lower, None, Layer, Driver),
    m("io.encode_ms", "ms", Lower, None, Layer, Driver),
    m("image.to_f32_ms", "ms", Lower, None, Layer, Driver),
    m("image.to_u8_ms", "ms", Lower, None, Layer, Driver),
    m(
        "summary.gradient_energy_ms",
        "ms",
        Lower,
        None,
        Layer,
        Driver,
    ),
    m("image.free_ms", "ms", Lower, None, Layer, Driver),
    m("pipeline.run_ms", "ms", Lower, None, Layer, Driver),
    m("pipeline.prepare_ms", "ms", Lower, None, Layer, Driver),
    m("pipeline.run_into_ms", "ms", Lower, None, Layer, Driver),
    m("pipeline.alloc_tax_ms", "ms", Lower, None, Layer, Driver),
    m("span.upload_ms", "ms", Lower, None, Layer, Driver),
    m("span.downscale_ms", "ms", Lower, None, Layer, Driver),
    m("span.upscale_ms", "ms", Lower, None, Layer, Driver),
    m("span.sobel_ms", "ms", Lower, None, Layer, Driver),
    m("span.reduction_ms", "ms", Lower, None, Layer, Driver),
    m("span.sharpen_ms", "ms", Lower, None, Layer, Driver),
    m("span.readback_ms", "ms", Lower, None, Layer, Driver),
    m("span.frame_self_ms", "ms", Lower, None, Layer, Driver),
    m("trace.coverage", "ratio", Higher, None, Layer, Driver),
    m("trace.overhead_frac", "ratio", Lower, None, Layer, Driver),
    m("sim.upload_ms", "ms", Lower, Some(0.0), Layer, Detail),
    m("sim.compute_ms", "ms", Lower, Some(0.0), Layer, Detail),
    m("sim.download_ms", "ms", Lower, Some(0.0), Layer, Detail),
    m("simgpu.global_bytes", "B", Lower, Some(0.0), Layer, Detail),
    m("simgpu.commands", "count", Lower, Some(0.0), Layer, Detail),
    m("simgpu.pool_hit_frac", "frac", Higher, None, Layer, Detail),
    m("service.payload_gen_s", "s", Lower, None, Layer, Detail),
    m("service.run_into_s", "s", Lower, None, Layer, Detail),
    m("service.prepare_s", "s", Lower, None, Layer, Detail),
    m(
        "service.cache_hit_frac",
        "frac",
        Higher,
        Some(0.0),
        Layer,
        Detail,
    ),
    m("service.batches", "count", Lower, Some(0.0), Layer, Detail),
    m(
        "service.coalesced",
        "count",
        Higher,
        Some(0.0),
        Layer,
        Detail,
    ),
    m("service.shed", "count", Lower, Some(0.0), Layer, Detail),
    m(
        "service.peak_queued",
        "count",
        Lower,
        Some(0.0),
        Layer,
        Detail,
    ),
    m("service.sim_busy_s", "s", Lower, Some(0.0), Layer, Detail),
];

/// The definition of `name`.
///
/// # Panics
/// If `name` is not in [`METRICS`] (a bug in the benchmark).
pub fn def(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
}

/// The metrics the driver line must carry: end-to-end ones untraced,
/// per-layer ones traced.
pub fn driver_metrics(traced: bool) -> impl Iterator<Item = &'static MetricDef> {
    let level = if traced { Layer } else { EndToEnd };
    METRICS
        .iter()
        .filter(move |d| d.report == Driver && d.level == level)
}
