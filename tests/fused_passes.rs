//! The fused host passes change only the host order of a frame's
//! row-local work and where its intermediates live: a plain context
//! (bodies deferred and run as two windowed passes, no host `final`
//! plane, with the border on the device no `up` plane — each sharpening
//! unit rebuilds its `up` rows — and with stage 1 on the device and the
//! fused tail no `pEdge` plane — stage 1 and the tail rebuild their Sobel
//! rows) and a sanitized context (every body right after its commit,
//! per-kernel order, every plane) must produce identical pixels, command
//! records and total simulated bits, for every optimization config, on
//! ragged, tiny, narrow-stride and aligned shapes, on both sides of the
//! border crossover width, with one to three dispatch threads.

use imagekit::{generate, ImageF32};
use sharpness::prelude::*;
use sharpness::simgpu::queue::CommandRecord;

/// Everything a frame leaves behind that must not depend on host order.
fn fingerprint(report: &RunReport, records: &[CommandRecord]) -> (Vec<u32>, Vec<String>, u64) {
    let pixels = report.output.pixels().iter().map(|v| v.to_bits()).collect();
    let recs = records
        .iter()
        .map(|r| {
            format!(
                "{} {:?} {:#x} {:?}",
                r.name,
                r.kind,
                r.duration_s.to_bits(),
                r.counters
            )
        })
        .collect();
    (pixels, recs, report.total_s.to_bits())
}

/// The frame's fingerprint, and how many device buffers the plan holds
/// host storage for.
fn run(
    ctx: Context,
    opts: OptConfig,
    tuning: Tuning,
    img: &ImageF32,
) -> ((Vec<u32>, Vec<String>, u64), u64) {
    let mut plan = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), opts)
        .with_tuning(tuning)
        .prepared(img.width(), img.height())
        .unwrap_or_else(|e| panic!("{opts:?}: {e}"));
    let planes = ctx.pool_stats().live;
    let report = plan.run(img).unwrap_or_else(|e| panic!("{opts:?}: {e}"));
    (fingerprint(&report, plan.records()), planes)
}

fn sweep(w: usize, h: usize, threads: &[usize], tuning: Tuning) {
    let img = generate::natural(w, h, 61);
    for bits in 0u32..64 {
        let opts = OptConfig::from_bits(bits);
        let (per_kernel, all_planes) = run(
            Context::sanitized(DeviceSpec::firepro_w8000()).with_dispatch_threads(1),
            opts,
            tuning,
            &img,
        );
        // `final` never needs a plane; `up` needs none when the border
        // runs on the device, `pEdge` none when stage 1 runs on the
        // device with the fused tail (both rebuild their Sobel rows).
        let gpu_border = opts.border_gpu && w >= tuning.border_gpu_min_width;
        let rebuilt_edges = opts.reduction_gpu && opts.kernel_fusion;
        let dropped = 1 + u64::from(gpu_border) + u64::from(rebuilt_edges);
        for &t in threads {
            let (fused, planes) = run(
                Context::new(DeviceSpec::firepro_w8000()).with_dispatch_threads(t),
                opts,
                tuning,
                &img,
            );
            assert_eq!(
                planes + dropped,
                all_planes,
                "{w}x{h} {opts:?} threads {t}: host planes"
            );
            assert!(
                fused.1 == per_kernel.1,
                "{w}x{h} {opts:?} threads {t}: records differ"
            );
            assert!(
                fused.2 == per_kernel.2,
                "{w}x{h} {opts:?} threads {t}: total bits differ"
            );
            let bad = fused.0.iter().zip(&per_kernel.0).position(|(a, b)| a != b);
            assert!(
                bad.is_none(),
                "{w}x{h} {opts:?} threads {t}: first differing pixel at {:?}",
                bad.map(|i| (i % w, i / w))
            );
        }
    }
}

/// Both placements of the border and of reduction stage 2 at small sizes.
fn tunings() -> [Tuning; 2] {
    [
        Tuning::default(),
        Tuning {
            border_gpu_min_width: 0,
            stage2_gpu_threshold: 0,
            ..Tuning::default()
        },
    ]
}

#[test]
fn fused_order_matches_per_kernel_order_on_small_shapes() {
    for tuning in tunings() {
        for (w, h) in [(3, 3), (8, 300), (256, 256)] {
            sweep(w, h, &[1, 2, 3], tuning);
        }
        // Tiny frames without a center dispatch, and frames of one window
        // either side of the default border crossover width.
        for (w, h) in [(4, 9), (7, 5), (767, 10), (768, 10), (769, 37)] {
            sweep(w, h, &[1, 2], tuning);
        }
    }
}

/// The ragged half of the sweep. Heavy in a debug build — run with
/// `cargo test -q --release --test fused_passes -- --ignored` or
/// `scripts/ci.sh --full`.
#[test]
#[ignore = "64 configs x ragged shapes, sanitized; run via ci.sh --full"]
fn fused_order_matches_per_kernel_order_on_ragged_shapes() {
    for tuning in tunings() {
        for (w, h) in [(1001, 701), (1023, 769)] {
            sweep(w, h, &[1, 2, 3], tuning);
        }
        for (w, h) in [(767, 130), (768, 63), (769, 129)] {
            sweep(w, h, &[1, 2], tuning);
        }
    }
}

/// Two caller threads run prepared plans from clones of one context — so
/// on one dispatch pool — at the same time. Whichever finds the pool held
/// runs its pass inline; neither may block the other, and both must get
/// the pixels of a one-thread run.
#[test]
fn clones_of_one_context_serve_two_callers_at_once() {
    let shapes = [(256, 256), (333, 217)];
    let imgs = shapes.map(|(w, h)| generate::natural(w, h, 23));
    let opts = OptConfig::all();
    let expected = imgs.clone().map(|img| {
        let ctx = Context::new(DeviceSpec::firepro_w8000()).with_dispatch_threads(1);
        let report = GpuPipeline::new(ctx, SharpnessParams::default(), opts)
            .run(&img)
            .unwrap();
        report
            .output
            .pixels()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    });
    let shared = Context::new(DeviceSpec::firepro_w8000()).with_dispatch_threads(2);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for (img, want) in imgs.iter().zip(&expected) {
            let (ctx, start) = (shared.clone(), &start);
            s.spawn(move || {
                let mut plan = GpuPipeline::new(ctx, SharpnessParams::default(), opts)
                    .prepared(img.width(), img.height())
                    .unwrap();
                let mut out = vec![0.0f32; img.pixels().len()];
                start.wait();
                for frame in 0..12 {
                    plan.run_into(img, &mut out).unwrap();
                    assert!(
                        out.iter().map(|v| v.to_bits()).eq(want.iter().copied()),
                        "{}x{} frame {frame}",
                        img.width(),
                        img.height()
                    );
                }
            });
        }
    });
}
