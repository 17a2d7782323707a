//! Failure-injection tests: the runtime must reject malformed inputs and
//! catch data races instead of silently corrupting results.

use sharpness::prelude::*;
use sharpness::simgpu::access::{AccessSummary, AccessWindow};
use sharpness::simgpu::error::Error;
use sharpness::simgpu::kernel::{items, KernelDesc};

fn vctx() -> Context {
    Context::with_validation(DeviceSpec::firepro_w8000())
}

#[test]
fn racy_kernel_is_rejected_with_index() {
    let ctx = vctx();
    let mut q = ctx.queue();
    let out = ctx.buffer::<f32>("out", 8);
    let w = out.write_view();
    let desc = KernelDesc::new("racy", [32, 1], [8, 1]);
    // Declared as if each item owned one slot; the kernel disagrees.
    let mut decl = AccessSummary::new(&desc, 0..4);
    decl.push(AccessWindow::write(out.info(), 0, 8));
    decl.charge_global_n(0, 0, 4, 0, 8);
    let err = q
        .run(&desc, decl, &[&out], |g| {
            for l in items(g.group_size) {
                w.set_raw(l[0] % 8, 1.0); // all groups hit the same slots
            }
        })
        .unwrap_err();
    match err {
        Error::WriteRace { kernel, index } => {
            assert_eq!(kernel, "racy");
            assert!(index < 8);
        }
        other => panic!("expected WriteRace, got {other}"),
    }
}

#[test]
fn race_free_kernel_passes_validation() {
    let ctx = vctx();
    let mut q = ctx.queue();
    let out = ctx.buffer::<f32>("out", 32);
    let w = out.write_view();
    let desc = KernelDesc::new("clean", [32, 1], [8, 1]);
    let mut decl = AccessSummary::new(&desc, 0..4);
    decl.push(AccessWindow::write(out.info(), 0, 32));
    decl.charge_global_n(0, 0, 4, 0, 32);
    q.run(&desc, decl, &[&out], |g| {
        for l in items(g.group_size) {
            let i = g.global_id(l)[0];
            w.set_raw(i, i as f32);
        }
    })
    .unwrap();
    assert_eq!(out.snapshot()[31], 31.0);
}

#[test]
fn pipeline_kernels_are_race_free_under_validation() {
    // The whole point of the border/center/body split is exactly-once
    // writes; run every config under validation to prove it.
    let img = imagekit::generate::natural(64, 64, 5);
    for opts in [OptConfig::none(), OptConfig::all()] {
        GpuPipeline::new(vctx(), SharpnessParams::default(), opts)
            .run(&img)
            .expect("race-free pipeline");
    }
}

#[test]
fn bad_ndrange_reports_geometry() {
    let ctx = vctx();
    let mut q = ctx.queue();
    let desc = KernelDesc::new("bad", [100, 100], [16, 16]);
    let decl = AccessSummary::new(&desc, 0..desc.total_groups());
    let err = q.run(&desc, decl, &[], |_| {}).unwrap_err();
    assert!(matches!(err, Error::InvalidNdRange { .. }));
    // A zero-sized group has no group count to declare over; the geometry
    // check rejects it before the declaration is looked at.
    let valid = KernelDesc::new("bad", [64, 64], [16, 16]);
    let desc = KernelDesc::new("bad", [64, 64], [0, 16]);
    assert!(matches!(
        q.run(&desc, AccessSummary::new(&valid, 0..16), &[], |_| {}),
        Err(Error::EmptyGroup { .. })
    ));
}

#[test]
fn transfer_bounds_are_enforced() {
    let ctx = vctx();
    let mut q = ctx.queue();
    let buf = ctx.buffer::<f32>("b", 16);
    assert!(matches!(
        q.enqueue_write(&buf, &[0.0; 17]),
        Err(Error::TransferOutOfBounds { .. })
    ));
    let mut big = vec![0.0f32; 17];
    assert!(q.enqueue_read(&buf, &mut big).is_err());
    // Rect region falling off the right edge.
    assert!(q
        .enqueue_write_rect(&buf, 4, 3, 0, &[1.0; 8], 4, 2)
        .is_err());
    // Rect shape inconsistent with host slice.
    assert!(matches!(
        q.enqueue_write_rect(&buf, 4, 0, 0, &[1.0; 7], 4, 2),
        Err(Error::RectShapeMismatch { .. })
    ));
}

#[test]
fn double_map_is_rejected() {
    let ctx = vctx();
    let mut q1 = ctx.queue();
    let mut q2 = ctx.queue();
    let buf = ctx.buffer::<f32>("m", 8);
    let _guard = q1.map_write(&buf).unwrap();
    assert!(matches!(q2.map_read(&buf), Err(Error::AlreadyMapped)));
}

#[test]
fn pipelines_reject_unsupported_shapes() {
    for (w, h) in [(2, 8), (8, 2), (1, 1), (0, 0)] {
        let img = imagekit::ImageF32::zeros(w, h);
        assert!(
            CpuPipeline::new(SharpnessParams::default())
                .run(&img)
                .is_err(),
            "cpu accepted {w}x{h}"
        );
        assert!(
            GpuPipeline::new(vctx(), SharpnessParams::default(), OptConfig::all())
                .run(&img)
                .is_err(),
            "gpu accepted {w}x{h}"
        );
    }
}

#[test]
fn pipelines_reject_invalid_params() {
    let img = imagekit::generate::natural(32, 32, 1);
    let bad = [
        SharpnessParams {
            gain: f32::NAN,
            ..SharpnessParams::default()
        },
        SharpnessParams {
            gamma: 0.0,
            ..SharpnessParams::default()
        },
        SharpnessParams {
            osc: 2.0,
            ..SharpnessParams::default()
        },
        SharpnessParams {
            eps: -1.0,
            ..SharpnessParams::default()
        },
    ];
    for p in bad {
        assert!(CpuPipeline::new(p).run(&img).is_err());
        assert!(GpuPipeline::new(vctx(), p, OptConfig::none())
            .run(&img)
            .is_err());
    }
}
