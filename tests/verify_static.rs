//! The static access-summary verifier (DESIGN.md §15): every pipeline
//! configuration proves bounds, write disjointness and charge accounting
//! symbolically — and the static enumeration agrees, dispatch for dispatch,
//! with what a live run actually declares.

use sharpness::prelude::*;
use simgpu::access::AccessSummary;

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

/// The paper's default tuning, and reduction stage 2 plus the upscale
/// border forced onto the device (when the config enables them): the two
/// kernel placements the sweeps cover.
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

/// Acceptance sweep: all 64 configs × four shapes (aligned, large-aligned,
/// ragged, odd) × both placements verify statically — no execution at all.
#[test]
fn static_sweep_covers_all_configs_shapes_and_schedules() {
    for (w, h) in [(256, 256), (768, 768), (1001, 701), (1023, 769)] {
        for opts in all_configs() {
            for schedule in schedules() {
                let r = verify_static(w, h, &opts, &schedule)
                    .unwrap_or_else(|e| panic!("{w}x{h} {opts:?} {schedule:?}: {e}"));
                assert!(r.kernels >= 4, "{w}x{h} {opts:?}: {} dispatches", r.kernels);
                // Writes are always accounted exactly; reads may be
                // overcharged but never undercharged.
                assert_eq!(r.stats.charged_write_bytes, r.stats.declared_write_bytes);
                assert!(r.stats.charged_read_bytes >= r.stats.declared_read_bytes);
            }
        }
    }
}

/// The GPU border path must verify on both sides of the tuned crossover.
#[test]
fn static_sweep_covers_border_crossover() {
    let tuning = Tuning {
        border_gpu_min_width: 64,
        ..Tuning::default()
    };
    let opts = OptConfig {
        border_gpu: true,
        ..OptConfig::none()
    };
    let r = verify_static(101, 67, &opts, &tuning).unwrap();
    assert!(r.kernels >= 8, "border dispatches missing: {}", r.kernels);
}

fn dynamic_log(opts: &OptConfig, schedule: Tuning, w: usize, h: usize) -> Vec<AccessSummary> {
    let ctx = Context::with_validation(DeviceSpec::firepro_w8000()).with_access_log();
    let img = generate::natural(w, h, 17);
    let mut plan = GpuPipeline::new(ctx, SharpnessParams::default(), *opts)
        .with_tuning(schedule)
        .prepared(w, h)
        .unwrap();
    plan.run(&img).unwrap();
    plan.take_access_log()
}

/// Agreement: a sanitized live run under `with_access_log` declares
/// exactly the summaries the static enumerator predicts — same kernels,
/// same windows, same charges, same ratios, in the same commit order. Any drift between the executor and the static
/// schedule model fails here.
#[test]
fn static_enumeration_matches_dynamic_declarations() {
    for (w, h) in [(256, 256), (1001, 701)] {
        for opts in all_configs() {
            for schedule in schedules() {
                let log = dynamic_log(&opts, schedule, w, h);
                let predicted: Vec<AccessSummary> = enumerate_access(w, h, &opts, &schedule)
                    .unwrap()
                    .into_iter()
                    .map(|d| d.access)
                    .collect();
                assert_eq!(
                    log.len(),
                    predicted.len(),
                    "{w}x{h} {opts:?} {schedule:?}: {} declared vs {} predicted",
                    log.len(),
                    predicted.len()
                );
                for (i, (got, want)) in log.iter().zip(&predicted).enumerate() {
                    assert_eq!(
                        got, want,
                        "{w}x{h} {opts:?} {schedule:?}: summary {i} (`{}`) diverges",
                        want.kernel
                    );
                }
            }
        }
    }
}

/// Full cross-validation under the shadow-execution sanitizer: every
/// config runs with the sanitizer auditing actual memory traffic AND the
/// access requirement on, and the declared summaries still agree with the
/// static enumeration byte for byte. This is the "summaries cannot rot"
/// guarantee: a declaration the kernel's real accesses outgrow is caught
/// by the sanitizer, and a schedule the enumerator mispredicts is caught
/// by the agreement check. Run by `ci.sh --full`.
#[test]
#[ignore = "minutes of sanitized execution; run via ci.sh --full"]
fn sanitized_sweep_cross_validates_declarations() {
    let mut cases: Vec<(usize, usize, OptConfig)> = all_configs()
        .into_iter()
        .map(|opts| (256, 256, opts))
        .collect();
    cases.push((1001, 701, OptConfig::none()));
    cases.push((1001, 701, OptConfig::all()));
    for (w, h, opts) in cases {
        for schedule in schedules() {
            let ctx = Context::sanitized(DeviceSpec::firepro_w8000()).with_access_log();
            let img = generate::natural(w, h, 17);
            let mut plan = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), opts)
                .with_tuning(schedule)
                .prepared(w, h)
                .unwrap();
            plan.run(&img).unwrap();
            let san = ctx.sanitize_report().expect("sanitizer enabled");
            assert!(san.is_clean(), "{w}x{h} {opts:?} {schedule:?}: {san}");
            let log = plan.take_access_log();
            let predicted: Vec<AccessSummary> = enumerate_access(w, h, &opts, &schedule)
                .unwrap()
                .into_iter()
                .map(|d| d.access)
                .collect();
            assert_eq!(log, predicted, "{w}x{h} {opts:?} {schedule:?}");
        }
    }
}

/// Declaring access summaries (and verifying them on every dispatch) is
/// observation-only: pixels and simulated seconds are bit-identical with
/// the requirement on or off.
#[test]
fn access_verification_is_observation_only() {
    let img = generate::natural(167, 103, 23);
    for opts in [OptConfig::none(), OptConfig::all()] {
        for schedule in schedules() {
            let base = GpuPipeline::new(
                Context::new(DeviceSpec::firepro_w8000()),
                SharpnessParams::default(),
                opts,
            )
            .with_tuning(schedule)
            .run(&img)
            .unwrap();
            let checked = GpuPipeline::new(
                Context::with_validation(DeviceSpec::firepro_w8000()).with_access_log(),
                SharpnessParams::default(),
                opts,
            )
            .with_tuning(schedule)
            .run(&img)
            .unwrap();
            assert_eq!(base.output.pixels(), checked.output.pixels());
            assert_eq!(base.total_s.to_bits(), checked.total_s.to_bits());
        }
    }
}
