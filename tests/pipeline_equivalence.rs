//! Cross-crate integration tests: the GPU pipeline must reproduce the CPU
//! reference output for every optimization configuration, on every
//! workload shape, under the write-race-validating context.

use imagekit::{generate, ImageF32};
use sharpness::prelude::*;

fn vctx() -> Context {
    Context::with_validation(DeviceSpec::firepro_w8000())
}

fn all_configs() -> Vec<OptConfig> {
    // Every combination of the six flags.
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
fn every_opt_combination_matches_cpu() {
    let img = generate::natural(64, 64, 77);
    let cpu = CpuPipeline::new(SharpnessParams::default())
        .run(&img)
        .unwrap();
    for opts in all_configs() {
        let gpu = GpuPipeline::new(vctx(), SharpnessParams::default(), opts)
            .run(&img)
            .unwrap_or_else(|e| panic!("{opts:?}: {e}"));
        let diff = gpu.output.max_abs_diff(&cpu.output);
        if opts.reduction_gpu {
            assert!(diff < 0.05, "{opts:?}: diff {diff}");
        } else {
            // CPU-side reduction computes the identical mean, so the whole
            // pipeline must agree bit-exactly.
            assert_eq!(gpu.output, cpu.output, "{opts:?}");
        }
    }
}

#[test]
fn gpu_border_forced_on_still_matches() {
    // Push the crossover to zero so every combination takes the GPU border
    // path even on a 64-pixel image.
    let img = generate::natural(64, 64, 3);
    let cpu = CpuPipeline::new(SharpnessParams::default())
        .run(&img)
        .unwrap();
    let tuning = Tuning {
        border_gpu_min_width: 0,
        ..Tuning::default()
    };
    for base in [OptConfig::none(), OptConfig::all()] {
        let opts = OptConfig {
            border_gpu: true,
            ..base
        };
        let gpu = GpuPipeline::new(vctx(), SharpnessParams::default(), opts)
            .with_tuning(tuning)
            .run(&img)
            .unwrap();
        assert!(gpu.output.max_abs_diff(&cpu.output) < 0.05);
    }
}

#[test]
fn non_square_images_work() {
    for (w, h) in [(64, 32), (32, 64), (128, 48), (48, 128), (20, 16), (16, 20)] {
        let img = generate::natural(w, h, 9);
        let cpu = CpuPipeline::new(SharpnessParams::default())
            .run(&img)
            .unwrap();
        let gpu = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::all())
            .run(&img)
            .unwrap_or_else(|e| panic!("{w}x{h}: {e}"));
        let diff = gpu.output.max_abs_diff(&cpu.output);
        assert!(diff < 0.05, "{w}x{h}: diff {diff}");
    }
}

#[test]
fn extreme_parameters_stay_in_range() {
    let img = generate::checkerboard(64, 64, 4);
    for (gain, gamma, osc) in [(0.01, 0.2, 0.0), (4.0, 2.0, 1.0), (1.0, 0.5, 0.5)] {
        let params = SharpnessParams {
            gain,
            gamma,
            osc,
            ..SharpnessParams::default()
        };
        let cpu = CpuPipeline::new(params).run(&img).unwrap();
        let gpu = GpuPipeline::new(vctx(), params, OptConfig::all())
            .run(&img)
            .unwrap();
        assert!(gpu.output.max_abs_diff(&cpu.output) < 0.05);
        assert_eq!(imagekit::metrics::out_of_range_fraction(&gpu.output), 0.0);
    }
}

#[test]
fn degenerate_content_is_handled() {
    // Constant (zero-edge) images hit the eps path of the strength curve;
    // extreme contrast hits both overshoot branches everywhere.
    for img in [
        ImageF32::filled(32, 32, 0.0),
        ImageF32::filled(32, 32, 255.0),
        generate::checkerboard(32, 32, 1),
    ] {
        let cpu = CpuPipeline::new(SharpnessParams::default())
            .run(&img)
            .unwrap();
        let gpu = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::all())
            .run(&img)
            .unwrap();
        assert!(gpu.output.max_abs_diff(&cpu.output) < 0.05);
        assert_eq!(imagekit::metrics::out_of_range_fraction(&gpu.output), 0.0);
    }
}

#[test]
fn pipeline_is_deterministic_across_runs() {
    let img = generate::natural(96, 96, 13);
    let p = GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::all());
    let a = p.run(&img).unwrap();
    let b = p.run(&img).unwrap();
    assert_eq!(a.output, b.output);
    assert_eq!(a.total_s, b.total_s);
    assert_eq!(a.stages.len(), b.stages.len());
}

#[test]
fn prepared_plan_matches_fresh_runs_for_every_config() {
    // The persistent-plan hot path must be invisible: bit-identical pixels
    // and identical simulated seconds versus a fresh-buffer run, for every
    // optimization combination, across repeated frames on one plan.
    let imgs = [generate::natural(64, 64, 21), generate::natural(64, 64, 22)];
    for opts in all_configs() {
        let pipe = GpuPipeline::new(vctx(), SharpnessParams::default(), opts);
        let mut plan = pipe.prepared(64, 64).unwrap();
        for img in &imgs {
            let fresh = pipe.run(img).unwrap_or_else(|e| panic!("{opts:?}: {e}"));
            let planned = plan.run(img).unwrap_or_else(|e| panic!("{opts:?}: {e}"));
            assert_eq!(planned.output, fresh.output, "{opts:?}: pixels diverged");
            assert_eq!(
                planned.total_s, fresh.total_s,
                "{opts:?}: simulated time diverged"
            );
            assert_eq!(
                planned.stages, fresh.stages,
                "{opts:?}: stage breakdown diverged"
            );
        }
    }
}

#[test]
fn pooled_context_is_equivalent_to_unpooled() {
    let img = generate::natural(96, 96, 41);
    let params = SharpnessParams::default();
    let pooled = Context::new(DeviceSpec::firepro_w8000());
    let unpooled = Context::new(DeviceSpec::firepro_w8000()).with_pooling(false);
    let a = GpuPipeline::new(pooled, params, OptConfig::all())
        .run(&img)
        .unwrap();
    let b = GpuPipeline::new(unpooled, params, OptConfig::all())
        .run(&img)
        .unwrap();
    assert_eq!(a.output, b.output);
    assert_eq!(a.total_s, b.total_s);
}

#[test]
fn repeated_runs_recycle_buffers_without_live_growth() {
    let img = generate::natural(64, 64, 8);
    let ctx = Context::new(DeviceSpec::firepro_w8000());
    let pipe = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), OptConfig::all());
    pipe.run(&img).unwrap(); // warm the pool
    let warm = ctx.pool_stats();
    for _ in 0..5 {
        pipe.run(&img).unwrap();
    }
    let after = ctx.pool_stats();
    assert!(
        after.hits > warm.hits,
        "warm runs should recycle pooled slabs (hits {} -> {})",
        warm.hits,
        after.hits
    );
    // Steady state: no buffer outlives its run, so the live count cannot
    // grow across runs.
    assert_eq!(after.live, warm.live, "live allocations grew across runs");
    // And warm runs should introduce no fresh allocations at all.
    assert_eq!(after.misses, warm.misses, "warm runs still allocated");
}

#[test]
fn cpu_border_path_allocates_no_device_buffers_after_warmup() {
    // border_gpu=false routes the final border rows/columns through the
    // host-side cpu_border fixup, which historically built per-frame
    // temporaries; warm frames must stay allocation-free there too.
    let img = generate::natural(97, 61, 12);
    let ctx = Context::new(DeviceSpec::firepro_w8000());
    let cfg = OptConfig {
        border_gpu: false,
        ..OptConfig::all()
    };
    let pipe = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), cfg);
    let mut out = vec![0.0f32; 97 * 61];
    let mut plan = pipe.prepared(97, 61).unwrap();
    plan.run_into(&img, &mut out).unwrap(); // warm scratch + pool
    let warm = ctx.pool_stats();
    for _ in 0..4 {
        plan.run_into(&img, &mut out).unwrap();
    }
    let after = ctx.pool_stats();
    assert_eq!(after.misses, warm.misses, "warm cpu-border run allocated");
    assert_eq!(after.live, warm.live, "live buffers grew");
}

#[test]
fn plan_run_into_allocates_no_device_buffers_after_warmup() {
    let img = generate::natural(97, 61, 12);
    let ctx = Context::new(DeviceSpec::firepro_w8000());
    let pipe = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), OptConfig::all());
    let mut out = vec![0.0f32; 97 * 61];
    let mut plan = pipe.prepared(97, 61).unwrap();
    plan.run_into(&img, &mut out).unwrap(); // warm scratch + pool
    let warm = ctx.pool_stats();
    for _ in 0..4 {
        plan.run_into(&img, &mut out).unwrap();
    }
    let after = ctx.pool_stats();
    // The plan owns every buffer it needs: warm frames must neither
    // allocate fresh device storage nor leave anything extra live.
    assert_eq!(after.misses, warm.misses, "warm run_into still allocated");
    assert_eq!(after.live, warm.live, "live buffers grew");
}

#[test]
fn umbrella_prelude_compiles_the_quickstart_flow() {
    let image = generate::natural(32, 32, 1);
    let ctx = Context::new(DeviceSpec::firepro_w8000());
    let run = GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all())
        .run(&image)
        .unwrap();
    assert_eq!(run.output.width(), 32);
    assert!(run.total_s > 0.0);
}
