//! Run reports: simulated per-stage timings for one pipeline execution.
//!
//! The figure-reproduction harness consumes these to print the paper's
//! Fig. 12 (totals), Fig. 13 (per-stage fractions), and Figs. 14–17
//! (variant comparisons).

use std::sync::Arc;

use imagekit::ImageF32;

/// One timed stage (or command group) of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (pipeline-level, e.g. `"sobel"`, `"reduction"`).
    /// Shares the command queue's interned allocation: cloning a report's
    /// stages bumps refcounts instead of copying strings.
    pub name: Arc<str>,
    /// Simulated duration in seconds.
    pub seconds: f64,
}

/// The result of running a pipeline on one image: the sharpened output and
/// the simulated time breakdown.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The final sharpened image.
    pub output: ImageF32,
    /// Total simulated time, seconds.
    pub total_s: f64,
    /// Ordered stage records; their sum equals `total_s` (validated by
    /// tests).
    pub stages: Vec<StageRecord>,
}

impl RunReport {
    /// Sum of all stage durations.
    pub fn stages_total(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Aggregates stages into `(category, seconds)` pairs using a
    /// classifier function, preserving first-seen category order. Used to
    /// group fine-grained command records into the paper's Fig. 13 stage
    /// legend.
    pub fn by_category(&self, classify: impl Fn(&str) -> &'static str) -> Vec<(String, f64)> {
        let mut order: Vec<&'static str> = Vec::new();
        let mut totals: std::collections::HashMap<&'static str, f64> =
            std::collections::HashMap::new();
        for s in &self.stages {
            let cat = classify(&s.name);
            if !totals.contains_key(cat) {
                order.push(cat);
            }
            *totals.entry(cat).or_insert(0.0) += s.seconds;
        }
        order
            .into_iter()
            .map(|c| (c.to_string(), totals[c]))
            .collect()
    }
}

/// Which engine a command occupies in the double-buffered overlap model:
/// the upload DMA engine, the compute device (plus host stages and sync),
/// or the download DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageLane {
    /// Host→device transfers (bulk, rect, and map writes).
    Upload,
    /// Kernels, host-side stages, synchronisation.
    Compute,
    /// Device→host transfers (bulk, rect, and map reads).
    Download,
}

/// Classifies a command/stage name into its overlap [`StageLane`] from the
/// queue's `"<kind>:<buffer>"` naming convention. The single source of
/// truth for lane splits — `gpu/batch.rs` and `PipelinePlan::run_into`
/// both use it, so a renamed stage cannot silently land in the wrong lane.
pub fn classify_stage_lane(name: &str) -> StageLane {
    if name.starts_with("write:")
        || name.starts_with("rect-write:")
        || name.starts_with("map-write:")
    {
        StageLane::Upload
    } else if name.starts_with("read:")
        || name.starts_with("rect-read:")
        || name.starts_with("map-read:")
    {
        StageLane::Download
    } else {
        StageLane::Compute
    }
}

/// Maps a CPU-pipeline stage name to the paper's Fig. 13(a) legend
/// categories: sobel / pError / upscale / strength matrix / overshoot
/// control / downscale.
pub fn classify_cpu_stage(name: &str) -> &'static str {
    match name {
        "downscale" => "downscale",
        "upscale_border" | "upscale_body" => "upscale",
        "perror" => "pError",
        "sobel" => "sobel",
        "reduction" | "strength_preliminary" => "strength matrix",
        "overshoot" => "overshoot control",
        _ => "other",
    }
}

/// Maps a GPU-pipeline command name to the paper's Fig. 13(b)/(c) legend
/// categories: data init / downscale / border / center / padding / sobel /
/// reduction / sharpness.
pub fn classify_gpu_stage(name: &str) -> &'static str {
    // Command names are "<kind>:<buffer>" for transfers and kernel names
    // for dispatches; host work carries pipeline-chosen labels.
    if name.starts_with("write:original")
        || name.starts_with("map-write:original")
        || name.starts_with("rect-write:padded")
        || name.starts_with("map-write:padded")
        || name.starts_with("write:padded")
        || name.starts_with("read:final")
        || name.starts_with("map-read:final")
        || name == "finish"
    {
        return "data init";
    }
    if name == "host:padding" {
        return "padding";
    }
    if name.starts_with("downscale") {
        return "downscale";
    }
    if name.contains("border") || name.starts_with("read:down") || name.starts_with("map-read:down")
    {
        return "border";
    }
    if name.starts_with("upscale_center") {
        return "center";
    }
    if name.starts_with("sobel") {
        return "sobel";
    }
    if name.contains("reduction")
        || name.starts_with("read:pEdge")
        || name.starts_with("map-read:pEdge")
        || name.starts_with("read:partials")
        || name.starts_with("map-read:partials")
    {
        return "reduction";
    }
    if name.starts_with("perror")
        || name.starts_with("preliminary")
        || name.starts_with("overshoot")
        || name.starts_with("sharpness")
    {
        return "sharpness";
    }
    "other"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            output: ImageF32::zeros(4, 4),
            total_s: 1.0,
            stages: vec![
                StageRecord {
                    name: "sobel".into(),
                    seconds: 0.25,
                },
                StageRecord {
                    name: "reduction".into(),
                    seconds: 0.5,
                },
                StageRecord {
                    name: "strength_preliminary".into(),
                    seconds: 0.25,
                },
            ],
        }
    }

    #[test]
    fn stages_total_sums_the_stages() {
        let r = report();
        assert!((r.stages_total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn category_aggregation_merges_strength_matrix() {
        let r = report();
        let cats = r.by_category(classify_cpu_stage);
        let strength: f64 = cats
            .iter()
            .filter(|(c, _)| c == "strength matrix")
            .map(|(_, s)| *s)
            .sum();
        assert!((strength - 0.75).abs() < 1e-12);
    }

    #[test]
    fn gpu_classifier_buckets() {
        assert_eq!(classify_gpu_stage("rect-write:padded"), "data init");
        assert_eq!(classify_gpu_stage("map-write:original"), "data init");
        assert_eq!(classify_gpu_stage("host:padding"), "padding");
        assert_eq!(classify_gpu_stage("downscale"), "downscale");
        assert_eq!(classify_gpu_stage("downscale_vec4"), "downscale");
        assert_eq!(classify_gpu_stage("upscale_border_top"), "border");
        assert_eq!(classify_gpu_stage("host:upscale_border_cpu"), "border");
        assert_eq!(classify_gpu_stage("read:down"), "border");
        assert_eq!(classify_gpu_stage("upscale_center_vec4"), "center");
        assert_eq!(classify_gpu_stage("sobel_vec4"), "sobel");
        assert_eq!(classify_gpu_stage("reduction_stage1"), "reduction");
        assert_eq!(classify_gpu_stage("host:reduction_stage2"), "reduction");
        assert_eq!(classify_gpu_stage("read:pEdge"), "reduction");
        assert_eq!(classify_gpu_stage("sharpness_fused"), "sharpness");
        assert_eq!(classify_gpu_stage("perror"), "sharpness");
        assert_eq!(classify_gpu_stage("overshoot"), "sharpness");
        assert_eq!(classify_gpu_stage("read:final"), "data init");
        assert_eq!(classify_gpu_stage("finish"), "data init");
    }

    #[test]
    fn lane_classifier_covers_every_transfer_kind() {
        assert_eq!(classify_stage_lane("write:original"), StageLane::Upload);
        assert_eq!(classify_stage_lane("rect-write:padded"), StageLane::Upload);
        assert_eq!(classify_stage_lane("map-write:padded"), StageLane::Upload);
        assert_eq!(classify_stage_lane("read:final"), StageLane::Download);
        assert_eq!(classify_stage_lane("rect-read:down"), StageLane::Download);
        assert_eq!(classify_stage_lane("map-read:pEdge"), StageLane::Download);
        assert_eq!(classify_stage_lane("sobel_vec4"), StageLane::Compute);
        assert_eq!(classify_stage_lane("host:padding"), StageLane::Compute);
        assert_eq!(classify_stage_lane("finish"), StageLane::Compute);
    }

    #[test]
    fn cpu_classifier_buckets() {
        assert_eq!(classify_cpu_stage("upscale_border"), "upscale");
        assert_eq!(classify_cpu_stage("upscale_body"), "upscale");
        assert_eq!(classify_cpu_stage("overshoot"), "overshoot control");
        assert_eq!(classify_cpu_stage("mystery"), "other");
    }
}
