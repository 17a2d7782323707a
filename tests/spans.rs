//! Hierarchical span tracing is observation-only: enabling spans must not
//! perturb a single pixel bit or a single simulated-clock bit, on any
//! optimization config, shape, or kernel placement, and must stay
//! sanitizer-clean. The structural tests then pin the shape of the tree a
//! frame emits (frame → phase → kernel dispatch, plus
//! transfer/readback/host/sync leaves).

use imagekit::generate;
use sharpness::prelude::*;
use simgpu::span::{aggregate, span_tree, SpanKind, SpanRecord};

fn spec() -> DeviceSpec {
    DeviceSpec::firepro_w8000()
}

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

/// The two kernel placements the sweeps cover: the paper's default
/// tuning, and reduction stage 2 plus the upscale border forced onto the
/// device (when the config enables them).
fn schedules() -> [Tuning; 2] {
    [
        Tuning::default(),
        Tuning {
            stage2_gpu_threshold: 0,
            border_gpu_min_width: 0,
            ..Tuning::default()
        },
    ]
}

/// Runs one config/placement with and without spans and asserts bit
/// identity of pixels and simulated seconds.
fn assert_span_invariant(w: usize, h: usize, seed: u64, cfg: OptConfig, schedule: Tuning) {
    let img = generate::natural(w, h, seed);
    let plain = GpuPipeline::new(Context::new(spec()), SharpnessParams::default(), cfg)
        .with_tuning(schedule)
        .run(&img)
        .unwrap();
    let spanned = GpuPipeline::new(
        Context::new(spec()).with_spans(),
        SharpnessParams::default(),
        cfg,
    )
    .with_tuning(schedule)
    .run(&img)
    .unwrap();
    assert_eq!(
        plain.output.pixels(),
        spanned.output.pixels(),
        "pixels differ with spans on, {cfg:?} {schedule:?} at {w}x{h}"
    );
    assert_eq!(
        plain.total_s.to_bits(),
        spanned.total_s.to_bits(),
        "simulated seconds differ with spans on, {cfg:?} {schedule:?} at {w}x{h}"
    );
}

#[test]
fn spans_are_observation_only_across_all_configs_and_schedules() {
    for cfg in all_configs() {
        for schedule in schedules() {
            assert_span_invariant(64, 64, 7, cfg, schedule);
        }
    }
}

#[test]
fn spans_are_observation_only_on_ragged_shapes() {
    // Ragged widths exercise the strided tails; the full 64-config sweep
    // above covers the flag space, so a representative subset suffices.
    for cfg in [
        OptConfig::none(),
        OptConfig::all(),
        OptConfig {
            vectorization: true,
            reduction_gpu: true,
            ..OptConfig::none()
        },
    ] {
        for schedule in schedules() {
            assert_span_invariant(61, 47, 13, cfg, schedule);
        }
    }
}

#[test]
fn spans_stay_sanitizer_clean() {
    let img = generate::natural(64, 64, 19);
    for schedule in schedules() {
        let ctx = Context::sanitized(spec()).with_spans();
        GpuPipeline::new(ctx.clone(), SharpnessParams::default(), OptConfig::all())
            .with_tuning(schedule)
            .run(&img)
            .unwrap();
        assert!(
            ctx.sanitize_report().unwrap().is_clean(),
            "sanitizer violations with spans on, {schedule:?}"
        );
    }
}

/// Prepared plan for one frame with spans on; returns the frame's spans.
fn frame_spans(cfg: OptConfig, schedule: Tuning, w: usize, h: usize) -> Vec<SpanRecord> {
    let img = generate::natural(w, h, 3);
    let pipe = GpuPipeline::new(
        Context::new(spec()).with_spans(),
        SharpnessParams::default(),
        cfg,
    )
    .with_tuning(schedule);
    let mut plan = pipe.prepared(w, h).unwrap();
    let mut out = vec![0.0f32; w * h];
    plan.run_into(&img, &mut out).unwrap();
    plan.spans()
}

#[test]
fn monolithic_tree_has_frame_phases_and_leaves() {
    let spans = frame_spans(OptConfig::all(), Tuning::default(), 64, 64);
    let root = &spans[0];
    assert_eq!(root.kind, SpanKind::Frame);
    assert_eq!(&*root.name, "frame");
    assert_eq!(root.parent, u64::MAX);
    // Every phase of the frame appears, in order, under the frame root.
    let phases: Vec<&str> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Phase)
        .map(|s| &*s.name)
        .collect();
    assert_eq!(
        phases,
        [
            "upload",
            "downscale",
            "upscale",
            "sobel",
            "reduction",
            "sharpen",
            "readback"
        ]
    );
    for s in spans.iter().filter(|s| s.kind == SpanKind::Phase) {
        assert_eq!(s.parent, root.id, "phase {} not under frame", s.name);
    }
    // Kernel leaves nest under phases, transfers under upload/readback.
    let sobel = spans
        .iter()
        .find(|s| s.kind == SpanKind::Kernel && s.name.starts_with("sobel"))
        .expect("sobel kernel span");
    let sobel_phase = spans.iter().find(|s| s.id == sobel.parent).unwrap();
    assert_eq!(sobel_phase.kind, SpanKind::Phase);
    assert_eq!(&*sobel_phase.name, "sobel");
    assert!(spans.iter().any(|s| s.kind == SpanKind::Transfer));
    assert!(spans.iter().any(|s| s.kind == SpanKind::Readback));
    // All-opts removes intermediate finishes; exactly one sync remains.
    assert_eq!(spans.iter().filter(|s| s.kind == SpanKind::Sync).count(), 1);
}

#[test]
fn wall_and_sim_intervals_nest_within_parents() {
    for schedule in schedules() {
        let spans = frame_spans(OptConfig::all(), schedule, 64, 64);
        for s in &spans {
            assert!(s.wall_end_ns >= s.wall_start_ns);
            assert!(s.sim_end_s >= s.sim_start_s);
            if s.parent == u64::MAX {
                continue;
            }
            let p = spans.iter().find(|t| t.id == s.parent).unwrap();
            assert!(
                s.wall_start_ns >= p.wall_start_ns && s.wall_end_ns <= p.wall_end_ns,
                "{schedule:?}: wall interval of {} escapes parent {}",
                s.name,
                p.name
            );
            assert!(
                s.sim_start_s >= p.sim_start_s && s.sim_end_s <= p.sim_end_s,
                "{schedule:?}: sim interval of {} escapes parent {}",
                s.name,
                p.name
            );
        }
    }
}

#[test]
fn frame_span_sim_time_matches_queue_total() {
    for schedule in schedules() {
        let img = generate::natural(64, 64, 3);
        let pipe = GpuPipeline::new(
            Context::new(spec()).with_spans(),
            SharpnessParams::default(),
            OptConfig::all(),
        )
        .with_tuning(schedule);
        let mut plan = pipe.prepared(64, 64).unwrap();
        let mut out = vec![0.0f32; 64 * 64];
        plan.run_into(&img, &mut out).unwrap();
        let spans = plan.spans();
        // The clock advances as `clock = start + dur` per command, so the
        // frame's close time is exactly the latest record end, bit for bit.
        let total = plan
            .records()
            .iter()
            .map(|r| r.start_s + r.duration_s)
            .fold(0.0f64, f64::max);
        let frame = &spans[0];
        assert_eq!(frame.sim_start_s, 0.0);
        assert_eq!(
            frame.sim_end_s.to_bits(),
            total.to_bits(),
            "{schedule:?}: frame span must cover the whole simulated frame"
        );
        // Kernel leaves carry exactly their records' simulated intervals.
        for r in plan
            .records()
            .iter()
            .filter(|r| matches!(r.kind, simgpu::queue::CommandKind::Kernel))
        {
            let s = spans
                .iter()
                .find(|s| {
                    s.kind == SpanKind::Kernel
                        && s.name == r.name
                        && s.sim_start_s.to_bits() == r.start_s.to_bits()
                })
                .unwrap_or_else(|| panic!("no span for kernel {}", r.name));
            assert_eq!(
                s.sim_end_s.to_bits(),
                (r.start_s + r.duration_s).to_bits(),
                "kernel {} span interval drifted from its record",
                r.name
            );
        }
    }
}

#[test]
fn plan_reuse_resets_the_ring_each_frame() {
    let img = generate::natural(64, 64, 3);
    let pipe = GpuPipeline::new(
        Context::new(spec()).with_spans(),
        SharpnessParams::default(),
        OptConfig::all(),
    );
    let mut plan = pipe.prepared(64, 64).unwrap();
    let mut out = vec![0.0f32; 64 * 64];
    plan.run_into(&img, &mut out).unwrap();
    let first = plan.spans();
    plan.run_into(&img, &mut out).unwrap();
    let second = plan.spans();
    assert_eq!(first.len(), second.len());
    // Same tree shape; ids keep increasing across frames.
    assert!(second[0].id > first[0].id);
    assert_eq!(&*second[0].name, "frame");
}

#[test]
fn aggregation_and_exports_cover_the_frame_tree() {
    let spans = frame_spans(OptConfig::none(), Tuning::default(), 64, 64);

    // Path aggregation folds the repeated per-kernel finishes of the base
    // configuration.
    let agg = aggregate(&spans);
    let finishes = agg
        .iter()
        .find(|a| a.path == "frame/sharpen/finish")
        .expect("aggregated finish path");
    assert_eq!(finishes.count, 3);

    // Terminal renderer shows the folded tree.
    let tree = span_tree(&spans);
    assert!(tree.contains("frame"), "{tree}");
    assert!(tree.contains("finish ×3"), "{tree}");

    // Metrics export lands in the span.* namespace.
    let mut reg = simgpu::metrics::MetricsRegistry::new();
    simgpu::span::to_registry(&spans, &mut reg);
    assert_eq!(reg.counter("span.frame.count"), 1);
    assert!(reg.gauge("span.frame.sim_s") > 0.0);
    let jsonl = reg.to_jsonl();
    assert!(jsonl.contains("span.frame/sharpen/finish"));

    // Chrome trace gains the span process and stays brace-balanced.
    let img = generate::natural(64, 64, 3);
    let pipe = GpuPipeline::new(
        Context::new(spec()).with_spans(),
        SharpnessParams::default(),
        OptConfig::all(),
    );
    let mut plan = pipe.prepared(64, 64).unwrap();
    let mut out = vec![0.0f32; 64 * 64];
    plan.run_into(&img, &mut out).unwrap();
    let j = simgpu::trace::to_chrome_json_with_spans(plan.records(), &plan.spans());
    assert!(j.contains("\"spans (wall clock)\""));
    assert_eq!(j.matches('{').count(), j.matches('}').count());
}
