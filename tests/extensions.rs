//! Integration tests for the extension layers: streaming overlap, colour
//! sharpening, memory planning, tracing, and the CLI plumbing.

use sharpness::core::color::{sharpen_rgb, ColorMode};
use sharpness::core::gpu::batch::{pipelined_time, FrameComponents, StreamingPipeline};
use sharpness::core::memory;
use sharpness::prelude::*;
use sharpness::simgpu::trace;

fn gpu(opts: OptConfig) -> GpuPipeline {
    GpuPipeline::new(
        Context::new(DeviceSpec::firepro_w8000()),
        SharpnessParams::default(),
        opts,
    )
}

#[test]
fn streaming_respects_frame_order_and_content() {
    let frames: Vec<_> = (0..4).map(|i| generate::natural(64, 64, i)).collect();
    let stream = StreamingPipeline::new(gpu(OptConfig::all()))
        .run_stream(&frames)
        .unwrap();
    assert_eq!(stream.outputs.len(), 4);
    // Different frames give different outputs (order preserved).
    assert_ne!(stream.outputs[0], stream.outputs[1]);
    for (f, out) in frames.iter().zip(&stream.outputs) {
        assert_eq!((f.width(), f.height()), (out.width(), out.height()));
    }
}

#[test]
fn streaming_overlap_bounded_by_components() {
    let frames: Vec<_> = (0..5)
        .map(|i| generate::natural(128, 128, 10 + i))
        .collect();
    let stream = StreamingPipeline::new(gpu(OptConfig::all()))
        .run_stream(&frames)
        .unwrap();
    let up: f64 = stream.frames.iter().map(|f| f.upload_s).sum();
    let comp: f64 = stream.frames.iter().map(|f| f.compute_s).sum();
    let down: f64 = stream.frames.iter().map(|f| f.download_s).sum();
    assert!(stream.pipelined_s >= up.max(comp).max(down) - 1e-12);
    assert!(stream.pipelined_s <= stream.serial_s + 1e-12);
    // Recomputing from components matches the report.
    assert!((pipelined_time(&stream.frames) - stream.pipelined_s).abs() < 1e-15);
}

#[test]
fn base_pipeline_streams_too() {
    // The base (map/unmap) configuration also decomposes cleanly.
    let frames: Vec<_> = (0..3).map(|i| generate::natural(64, 64, i)).collect();
    let stream = StreamingPipeline::new(gpu(OptConfig::none()))
        .run_stream(&frames)
        .unwrap();
    for f in &stream.frames {
        assert!(f.upload_s > 0.0 && f.compute_s > 0.0 && f.download_s > 0.0);
    }
}

#[test]
fn empty_stream_is_empty() {
    let stream = StreamingPipeline::new(gpu(OptConfig::all()))
        .run_stream(&[])
        .unwrap();
    assert_eq!(stream.outputs.len(), 0);
    assert_eq!(stream.pipelined_s, 0.0);
    assert_eq!(stream.serial_s, 0.0);
}

#[test]
fn color_modes_work_on_gpu_and_cpu() {
    let g = generate::natural(64, 64, 4).to_u8();
    let frame = imagekit::rgb::gray_to_rgb(&g);
    let cpu = CpuPipeline::new(SharpnessParams::default());
    for mode in [ColorMode::LumaOnly, ColorMode::PerChannel] {
        let a = sharpen_rgb(&cpu, &frame, mode).unwrap();
        let b = sharpen_rgb(&gpu(OptConfig::all()), &frame, mode).unwrap();
        assert_eq!(a.output.width(), 64);
        // CPU and GPU colour outputs within one quantisation level.
        for (x, y) in a.output.bytes().iter().zip(b.output.bytes()) {
            assert!(x.abs_diff(*y) <= 1);
        }
    }
}

#[test]
fn memory_plan_matches_streaming_needs() {
    let opts = OptConfig::all();
    let per_frame = memory::device_bytes_required(1920, 1088, &opts);
    // Double buffering of full-HD f32 frames fits comfortably in the
    // W8000's 4 GiB.
    assert!(2 * per_frame < 4 << 30);
    assert!(memory::frames_resident(4 << 30, 1920, 1088, &opts) >= 2);
}

/// The memory plan is what a prepared plan allocates: every device buffer
/// of the plan returns to the pool when the plan drops, and the parked
/// bytes equal the declared footprint, for every config on aligned,
/// ragged and large shapes (the large one crosses the default stage-2
/// threshold, so the one-element stage-2 total is allocated there only).
/// The simulated device holds every buffer; on the host a validating
/// context gives each one a plane, while a plain one skips exactly the
/// planes the frame does without — `final` always, `up` when the border
/// runs on the device, `pEdge` when stage 1 runs on the device beside the
/// fused tail.
#[test]
fn device_bytes_required_is_what_a_plan_allocates() {
    let parked = |ctx: Context, opts, w, h| {
        let plan = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), opts)
            .prepared(w, h)
            .unwrap();
        drop(plan);
        ctx.pool_stats().pooled_bytes
    };
    for (w, h) in [(256, 256), (1001, 701), (4096, 4096)] {
        for bits in 0..64u32 {
            let opts = OptConfig::from_bits(bits);
            let device = memory::device_bytes_required(w, h, &opts);
            let spec = DeviceSpec::firepro_w8000;
            if w < 4096 {
                let ctx = Context::with_validation(spec()).with_pooling(true);
                assert_eq!(parked(ctx, opts, w, h), device, "{w}x{h} {opts:?}");
            }
            let plane = (sharpness::core::params::device_stride(w) * h * 4) as u64;
            // No `final` plane; no `up` plane with the border on the
            // device; no `pEdge` plane when stage 1 and the fused tail
            // rebuild their Sobel rows.
            let gpu_border = opts.border_gpu && w >= Tuning::default().border_gpu_min_width;
            let rebuilt_edges = opts.reduction_gpu && opts.kernel_fusion;
            let dropped = plane * (1 + u64::from(gpu_border) + u64::from(rebuilt_edges));
            let ctx = Context::new(spec()).with_pooling(true);
            assert_eq!(
                parked(ctx, opts, w, h) + dropped,
                device,
                "{w}x{h} {opts:?}"
            );
        }
    }
}

#[test]
fn trace_of_a_real_run_covers_all_lanes() {
    let img = generate::natural(64, 64, 6);
    let run = gpu(OptConfig::all()).run(&img).unwrap();
    let records = sharpness::cli::report_to_records(&run);
    let json = trace::to_chrome_json(&records);
    // All three lanes appear: transfers, kernels, host work.
    assert!(json.contains("bus: transfers"));
    assert!(json.contains("device: kernels"));
    assert!(json.contains("host: cpu work"));
    let g = trace::gantt(&records, 80);
    assert_eq!(g.lines().count(), records.len() + 1);
    // Timeline reconstruction is contiguous: starts sum to durations.
    let mut t = 0.0;
    for r in &records {
        assert!((r.start_s - t).abs() < 1e-12);
        t += r.duration_s;
    }
}

#[test]
fn pipelined_time_degenerate_components() {
    // Zero-length stages collapse gracefully.
    let frames = vec![
        FrameComponents {
            upload_s: 0.0,
            compute_s: 1.0,
            download_s: 0.0
        };
        4
    ];
    assert!((pipelined_time(&frames) - 4.0).abs() < 1e-12);
    assert_eq!(pipelined_time(&[]), 0.0);
}

#[test]
fn minimum_size_image_works_with_every_flag_set() {
    // 16×16 is the smallest legal frame; vec4 kernels, GPU border and the
    // tree reduction must all cope.
    let img = generate::natural(16, 16, 3);
    let cpu = CpuPipeline::new(SharpnessParams::default())
        .run(&img)
        .unwrap();
    let tuning = Tuning {
        border_gpu_min_width: 0,
        ..Tuning::default()
    }; // force the GPU border even here
    let gpu_run = GpuPipeline::new(
        Context::with_validation(DeviceSpec::firepro_w8000()),
        SharpnessParams::default(),
        OptConfig::all(),
    )
    .with_tuning(tuning)
    .run(&img)
    .unwrap();
    assert!(gpu_run.output.max_abs_diff(&cpu.output) < 0.05);
}

#[test]
fn wide_and_tall_extremes() {
    for (w, h) in [(256, 16), (16, 256)] {
        let img = generate::natural(w, h, 8);
        let cpu = CpuPipeline::new(SharpnessParams::default())
            .run(&img)
            .unwrap();
        let gpu_run = GpuPipeline::new(
            Context::with_validation(DeviceSpec::firepro_w8000()),
            SharpnessParams::default(),
            OptConfig::all(),
        )
        .run(&img)
        .unwrap();
        assert!(gpu_run.output.max_abs_diff(&cpu.output) < 0.05, "{w}x{h}");
    }
}

#[test]
fn all_reduction_strategies_through_the_full_pipeline() {
    use sharpness::core::gpu::kernels::reduction::ReductionStrategy;
    let img = generate::natural(96, 96, 12);
    let cpu = CpuPipeline::new(SharpnessParams::default())
        .run(&img)
        .unwrap();
    for strategy in [
        ReductionStrategy::NoUnroll,
        ReductionStrategy::UnrollOne,
        ReductionStrategy::UnrollTwo,
    ] {
        let tuning = Tuning {
            reduction_strategy: strategy,
            ..Tuning::default()
        };
        let run = gpu(OptConfig::all()).with_tuning(tuning).run(&img).unwrap();
        assert!(run.output.max_abs_diff(&cpu.output) < 0.05, "{strategy:?}");
    }
}

#[test]
fn stage2_on_device_through_the_full_pipeline() {
    let img = generate::natural(128, 128, 13);
    let cpu = CpuPipeline::new(SharpnessParams::default())
        .run(&img)
        .unwrap();
    let tuning = Tuning {
        stage2_gpu_threshold: 0,
        ..Tuning::default()
    }; // force device stage 2
    let run = gpu(OptConfig::all()).with_tuning(tuning).run(&img).unwrap();
    assert!(run.output.max_abs_diff(&cpu.output) < 0.05);
    assert!(run
        .stages
        .iter()
        .any(|s| s.name.as_ref() == "reduction_stage2"));
}

#[test]
fn other_device_presets_run_the_full_pipeline() {
    let img = generate::natural(64, 64, 14);
    let cpu = CpuPipeline::new(SharpnessParams::default())
        .run(&img)
        .unwrap();
    for dev in [DeviceSpec::midrange_gpu(), DeviceSpec::apu()] {
        let run = GpuPipeline::new(
            Context::new(dev),
            SharpnessParams::default(),
            OptConfig::all(),
        )
        .run(&img)
        .unwrap();
        // Timing differs per device; pixels must not.
        assert!(run.output.max_abs_diff(&cpu.output) < 0.05);
    }
}
