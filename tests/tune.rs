//! The tuner's load-bearing guarantee: the closed-form predictor in
//! `core::tune` reports simulated seconds that are `.to_bits()`-identical
//! to actually executing the pipeline — same configs, same shapes, same
//! kernel placements, same device profiles. Plus the rediscovery acceptance: the
//! search must land on the paper's hand-tuned W8000 configuration without
//! hints, and shift in the physically expected direction on other
//! presets.

use sharpness::core::autotune;
use sharpness::core::tune::{self, SearchMode};
use sharpness::prelude::*;

fn all_configs() -> Vec<OptConfig> {
    (0..64u32).map(OptConfig::from_bits).collect()
}

/// The paper's default tuning, and the placement that forces reduction
/// stage 2 and the upscale border onto the device (when the config
/// enables them): the two schedules every agreement sweep covers.
fn default_schedule() -> Tuning {
    Tuning::default()
}

fn device_schedule() -> Tuning {
    Tuning {
        stage2_gpu_threshold: 0,
        border_gpu_min_width: 0,
        ..Tuning::default()
    }
}

/// Predicts and executes one frame, asserting bit-identical simulated
/// seconds; on mismatch, prints the first diverging command record.
fn assert_agreement(w: usize, h: usize, opts: OptConfig, schedule: Tuning, dev: &DeviceSpec) {
    let cpu = CpuSpec::core_i5_3470();
    let p = tune::predict_frame(w, h, &opts, &schedule, dev, &cpu)
        .unwrap_or_else(|e| panic!("predict {opts:?} {schedule:?} {w}x{h}: {e}"));
    let img = generate::natural(w, h, 11);
    let pipe = GpuPipeline::new(Context::new(dev.clone()), SharpnessParams::default(), opts)
        .with_tuning(schedule);
    let r = pipe
        .run(&img)
        .unwrap_or_else(|e| panic!("run {opts:?} {schedule:?} {w}x{h}: {e}"));
    if p.total_s.to_bits() == r.total_s.to_bits() {
        return;
    }
    // Locate the first command whose name or duration diverges so recipe
    // bugs point straight at the responsible kernel.
    for i in 0..p.commands.len().max(r.stages.len()) {
        let pred = p.commands.get(i);
        let exec = r.stages.get(i);
        let same = match (pred, exec) {
            (Some(p), Some(e)) => *p.name == *e.name && p.seconds.to_bits() == e.seconds.to_bits(),
            _ => false,
        };
        if !same {
            panic!(
                "prediction diverges at command {i} for {opts:?} {schedule:?} {w}x{h} on {}:\n  \
                 predicted: {pred:?}\n  executed:  {exec:?}\n  \
                 totals: predicted {} vs executed {}",
                dev.name, p.total_s, r.total_s
            );
        }
    }
    panic!(
        "totals differ but all {} commands match for {opts:?} {schedule:?} {w}x{h} on {}: \
         predicted {} vs executed {}",
        p.commands.len(),
        dev.name,
        p.total_s,
        r.total_s
    );
}

/// Fast default gate: every config at 256² on the paper's device,
/// predicted with zero execution, bit-equal to execution.
#[test]
fn predicted_seconds_match_executed_for_all_64_configs() {
    let dev = DeviceSpec::firepro_w8000();
    for opts in all_configs() {
        assert_agreement(256, 256, opts, default_schedule(), &dev);
    }
}

/// Fast default gate: the device placement, ragged odd shapes and a
/// second device profile on a representative config subset.
#[test]
fn predicted_seconds_match_executed_across_schedules_shapes_and_devices() {
    let representative: Vec<OptConfig> = [0u32, 5, 21, 42, 63]
        .into_iter()
        .map(OptConfig::from_bits)
        .collect();
    for dev in [DeviceSpec::firepro_w8000(), DeviceSpec::midrange_gpu()] {
        for &opts in &representative {
            assert_agreement(256, 256, opts, device_schedule(), &dev);
            assert_agreement(253, 131, opts, default_schedule(), &dev);
            assert_agreement(253, 131, opts, device_schedule(), &dev);
        }
    }
}

/// The full acceptance sweep (release-only, run by `ci.sh` every pass):
/// 64 configs × {256², 768², 1001×701} × {default, device placement} ×
/// two device profiles, every one `.to_bits()`-identical.
#[test]
#[ignore = "full sweep; run with --release via ci.sh"]
fn full_agreement_sweep_64_configs_3_shapes_2_schedules_2_devices() {
    for dev in [DeviceSpec::firepro_w8000(), DeviceSpec::midrange_gpu()] {
        for (w, h) in [(256, 256), (768, 768), (1001, 701)] {
            for opts in all_configs() {
                assert_agreement(w, h, opts, default_schedule(), &dev);
                assert_agreement(w, h, opts, device_schedule(), &dev);
            }
        }
    }
}

/// Per-command agreement: every executed command record — transfers, host
/// stages, kernels and finishes — equals the predicted one, name for name
/// and `.to_bits()` for `.to_bits()`, in order, for every config under
/// both placements on an aligned and a ragged shape.
#[test]
fn executed_records_match_predicted_commands_one_for_one() {
    let dev = DeviceSpec::firepro_w8000();
    let cpu = CpuSpec::core_i5_3470();
    for (w, h) in [(256, 256), (1001, 701)] {
        let img = generate::natural(w, h, 11);
        for opts in all_configs() {
            for schedule in [default_schedule(), device_schedule()] {
                let p = tune::predict_frame(w, h, &opts, &schedule, &dev, &cpu).unwrap();
                let r =
                    GpuPipeline::new(Context::new(dev.clone()), SharpnessParams::default(), opts)
                        .with_tuning(schedule)
                        .run(&img)
                        .unwrap();
                let predicted: Vec<(&str, u64)> = p
                    .commands
                    .iter()
                    .map(|c| (c.name.as_str(), c.seconds.to_bits()))
                    .collect();
                let executed: Vec<(&str, u64)> = r
                    .stages
                    .iter()
                    .map(|s| (&*s.name, s.seconds.to_bits()))
                    .collect();
                assert_eq!(predicted, executed, "{w}x{h} {opts:?} {schedule:?}");
            }
        }
    }
}

/// ROADMAP win condition: with no hand-seeded hints, the search on the
/// W8000 profile lands on the paper's Fig. 14 winners — kernel fusion
/// and vectorization on — and the model-driven crossover derivation
/// lands in the 768-neighborhood of Fig. 17.
#[test]
fn tuner_rediscovers_the_papers_w8000_config() {
    let dev = DeviceSpec::firepro_w8000();
    let cpu = CpuSpec::core_i5_3470();
    for (w, h) in [(1024, 1024), (2048, 2048)] {
        let r = tune::search(w, h, &dev, &cpu, SearchMode::Guided).unwrap();
        assert!(r.opts.kernel_fusion, "{w}x{h}: {}", r.summary_line());
        assert!(r.opts.vectorization, "{w}x{h}: {}", r.summary_line());
        assert!(r.speedup_vs_default() >= 1.0);
    }
    let tuned = autotune::autotune(&Context::new(dev));
    assert!(
        (512..=1024).contains(&tuned.border_gpu_min_width),
        "W8000 crossover {} outside the paper's 768-neighborhood",
        tuned.border_gpu_min_width
    );
}

/// The tuned choices must shift in the physically expected direction
/// across device presets. The border crossover is launch-overhead and
/// kernel-speed dominated: the four border kernels run on data already
/// resident on the device, while the CPU path pays two (small) bus
/// crossings plus host interpolation. So a *faster* GPU pulls the
/// crossover down, a *weaker* GPU (or pricier launches) pushes it up —
/// and, less intuitively, a *slower* bus also pulls it down, because
/// only the CPU path touches the bus at all.
#[test]
fn tuning_shifts_in_the_physically_expected_direction_across_presets() {
    let crossover = |dev: DeviceSpec| autotune::autotune(&Context::new(dev)).border_gpu_min_width;
    let w8000 = crossover(DeviceSpec::firepro_w8000());
    // Fast HBM part: kernels and launches are cheap, GPU wins earlier.
    assert!(
        crossover(DeviceSpec::hbm_gpu()) < w8000,
        "HBM crossover must drop below the W8000's {w8000}"
    );
    // APU: weak ALUs make the four border kernels expensive while the
    // shared-memory bus makes the CPU path's crossings cheap.
    let apu = crossover(DeviceSpec::apu());
    assert!(apu > w8000, "APU crossover {apu} must exceed {w8000}");
    // Embedded SoC: weaker still, plus slower launches — within the
    // probed range the GPU border never wins at all.
    let embedded = crossover(DeviceSpec::embedded_gpu());
    assert!(
        embedded > apu,
        "embedded crossover {embedded} must exceed the APU's {apu}"
    );

    // The bus axis in isolation: degrading only the interconnect of the
    // W8000 penalizes the CPU border path (its two bus crossings) and
    // leaves the device-resident GPU path untouched, so the crossover
    // must move DOWN monotonically.
    let mut prev = w8000;
    for scale in [0.25, 0.0625] {
        let mut dev = DeviceSpec::firepro_w8000();
        dev.transfer.bulk_bw *= scale;
        dev.transfer.rect_bw *= scale;
        dev.transfer.map_bw *= scale;
        let x = crossover(dev);
        assert!(
            x < prev,
            "bus x{scale}: crossover {x} must drop below {prev}"
        );
        prev = x;
    }

    // A weak device with cheap readbacks should keep the small-image
    // reduction on the CPU, where the W8000 sends it to the GPU.
    let cpu = CpuSpec::core_i5_3470();
    let on_w8000 = tune::search(
        256,
        256,
        &DeviceSpec::firepro_w8000(),
        &cpu,
        SearchMode::Exhaustive,
    )
    .unwrap();
    let on_embedded = tune::search(
        256,
        256,
        &DeviceSpec::embedded_gpu(),
        &cpu,
        SearchMode::Exhaustive,
    )
    .unwrap();
    assert!(on_w8000.opts.reduction_gpu, "{}", on_w8000.summary_line());
    assert!(
        !on_embedded.opts.reduction_gpu,
        "{}",
        on_embedded.summary_line()
    );
}

/// `sharpen --autotune` level sanity on every preset: the derived tuning
/// is usable and the per-shape search beats-or-ties the paper default.
#[test]
fn search_never_loses_to_the_paper_default_on_any_preset() {
    let cpu = CpuSpec::core_i5_3470();
    for dev in [
        DeviceSpec::firepro_w8000(),
        DeviceSpec::midrange_gpu(),
        DeviceSpec::apu(),
        DeviceSpec::embedded_gpu(),
        DeviceSpec::hbm_gpu(),
    ] {
        for (w, h) in [(256, 256), (1001, 701)] {
            let r = tune::search(w, h, &dev, &cpu, SearchMode::Exhaustive).unwrap();
            assert!(
                r.speedup_vs_default() >= 1.0,
                "{}: {}",
                dev.name,
                r.summary_line()
            );
        }
    }
}

/// The CPU border probe on shapes below 4 pixels on an axis, where the
/// write-back deduplicates border rows or columns: the closed-form model
/// and the pipeline's own three border records (`read:down`,
/// `host:upscale_border`, `write:up_border`, summed in that order) agree
/// bit for bit.
#[test]
fn cpu_border_model_matches_probe_and_pipeline_on_tiny_shapes() {
    let opts = OptConfig {
        data_transfer: true,
        ..OptConfig::none()
    };
    for (w, h) in [(3, 3), (8, 3), (3, 9)] {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let model = tune::border_cpu_model(ctx.device(), ctx.cpu(), w, h);
        let r = GpuPipeline::new(ctx, SharpnessParams::default(), opts)
            .run(&generate::natural(w, h, 3))
            .unwrap();
        let stage = |name: &str| {
            r.stages
                .iter()
                .find(|s| &*s.name == name)
                .unwrap_or_else(|| panic!("{w}x{h}: no {name} record"))
                .seconds
        };
        let mut pipeline = stage("read:down");
        pipeline += stage("host:upscale_border");
        pipeline += stage("write:up_border");
        assert_eq!(
            model.to_bits(),
            pipeline.to_bits(),
            "{w}x{h}: model vs pipeline"
        );
    }
}
