//! Sanitizer integration tests: the production kernels must sweep clean
//! under the shadow-execution sanitizer for every optimization config, the
//! sanitizer must not perturb results or simulated time, and
//! deliberately-broken fixture kernels must be flagged — one per
//! violation class.

use imagekit::generate;
use sharpness_core::gpu::{GpuPipeline, OptConfig};
use sharpness_core::params::SharpnessParams;
use simgpu::prelude::*;

fn spec() -> DeviceSpec {
    DeviceSpec::firepro_w8000()
}

/// All 64 combinations of the six optimization flags.
fn all_configs() -> Vec<OptConfig> {
    (0..64u32)
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

/// Runs the pipeline for `cfg` under a sanitized context and returns the
/// report (the run itself must succeed).
fn sanitized_sweep(w: usize, h: usize, seed: u64, cfg: OptConfig) -> SanitizeReport {
    let img = generate::natural(w, h, seed);
    let ctx = Context::sanitized(spec());
    let pipe = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), cfg);
    pipe.run(&img).expect("sanitized run failed");
    ctx.sanitize_report().expect("sanitizer was enabled")
}

// ---- production kernels sweep clean -----------------------------------

#[test]
fn every_opt_combination_is_sanitize_clean_at_64x64() {
    for (bits, cfg) in all_configs().into_iter().enumerate() {
        let report = sanitized_sweep(64, 64, 11, cfg);
        assert!(
            report.is_clean(),
            "config bits {bits}: {}",
            report.summary()
        );
        assert!(report.dispatches > 0);
    }
}

#[test]
fn representative_configs_are_clean_at_larger_and_ragged_sizes() {
    // 256x256 (power of two), and 1000x700: divisible by the 4x4 scale
    // block but the 250x175 downscaled image is not a multiple of the
    // 16x16 group, exercising every tail path.
    for cfg in [OptConfig::none(), OptConfig::all()] {
        for (w, h) in [(256, 256), (1000, 700)] {
            let report = sanitized_sweep(w, h, 23, cfg);
            assert!(report.is_clean(), "{w}x{h} {cfg:?}: {}", report.summary());
        }
    }
}

/// The full acceptance sweep: all 64 configs at every required size.
/// Heavy (hours of shadow bookkeeping on one core) — run explicitly with
/// `cargo test -q --test sanitize -- --ignored` or `scripts/ci.sh --full`.
#[test]
#[ignore = "full sweep is expensive; run via ci.sh --full"]
fn full_sweep_all_configs_all_sizes() {
    for (w, h) in [(256, 256), (768, 768), (1024, 1024), (1000, 700)] {
        for (bits, cfg) in all_configs().into_iter().enumerate() {
            let report = sanitized_sweep(w, h, 31, cfg);
            assert!(
                report.is_clean(),
                "{w}x{h} config bits {bits}: {}",
                report.summary()
            );
        }
    }
}

// ---- the sanitizer is observation-only --------------------------------

#[test]
fn sanitized_runs_are_bit_and_time_identical_to_unsanitized() {
    let img = generate::natural(64, 64, 7);
    for (bits, cfg) in all_configs().into_iter().enumerate() {
        let plain = GpuPipeline::new(Context::new(spec()), SharpnessParams::default(), cfg)
            .run(&img)
            .unwrap();
        let sctx = Context::sanitized(spec());
        let sanitized = GpuPipeline::new(sctx.clone(), SharpnessParams::default(), cfg)
            .run(&img)
            .unwrap();
        assert_eq!(
            plain.output.pixels(),
            sanitized.output.pixels(),
            "pixels differ under sanitize, config bits {bits}"
        );
        assert_eq!(
            plain.total_s, sanitized.total_s,
            "simulated seconds differ under sanitize, config bits {bits}"
        );
        assert!(sctx.sanitize_report().unwrap().is_clean());
    }
}

// ---- fixture kernels: every violation class is caught ------------------

fn fixture_ctx() -> Context {
    Context::sanitized(spec())
}

/// A fixture dispatch's declaration: `desc` over its whole grid, declaring
/// `windows` and charging each at exactly its own bytes (scalar class).
/// The race and bounds fixtures declare the footprint they intend; the
/// drift fixtures declare deliberately wrong footprints.
fn declared(desc: &KernelDesc, windows: Vec<AccessWindow>) -> AccessSummary {
    let mut s = AccessSummary::new(desc, 0..desc.total_groups());
    for w in windows {
        match w.role {
            Role::Read => s.charge_global_n(w.bytes(), 0, 0, 0, 1),
            Role::Write => s.charge_global_n(0, 0, w.bytes(), 0, 1),
        }
        s.push(w);
    }
    s
}

#[test]
fn fixture_global_write_write_race_is_flagged() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let out = ctx.buffer::<f32>("out", 64);
    let w = out.write_view();
    let desc = KernelDesc::new_1d("ww_race", 64, 64);
    q.run(
        &desc,
        declared(&desc, vec![AccessWindow::write(out.info(), 0, 1)]),
        &[&out],
        move |g| {
            for l in items(g.group_size) {
                g.begin_item(l);
                // Every item stores to element 0: 63 write/write conflicts.
                w.set_raw(0, l[0] as f32);
            }
        },
    )
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::GlobalRace {
            kind: RaceKind::WriteWrite,
            index: 0,
            ..
        }
    )));
}

#[test]
fn fixture_global_read_write_race_is_flagged() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let buf = ctx.buffer::<f32>("rw", 64);
    let (r, w) = (buf.view(), buf.write_view());
    let desc = KernelDesc::new_1d("rw_race", 64, 64);
    q.run(
        &desc,
        declared(
            &desc,
            vec![
                AccessWindow::read(buf.info(), 5, 1),
                AccessWindow::write(buf.info(), 5, 1),
            ],
        ),
        &[&buf],
        move |g| {
            for l in items(g.group_size) {
                g.begin_item(l);
                if l[0] == 0 {
                    // Item 0 reads what item 5 writes, with no ordering
                    // between global accesses of different items.
                    let _ = r.get_raw(5);
                } else if l[0] == 5 {
                    w.set_raw(5, 1.0);
                }
            }
        },
    )
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::GlobalRace {
            kind: RaceKind::ReadWrite,
            index: 5,
            ..
        }
    )));
}

#[test]
fn fixture_local_race_across_wavefronts_is_flagged() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let out = ctx.buffer::<f32>("out", 1);
    let w = out.write_view();
    // Lane 0 (wavefront 0) writes local[0]; lane 64 (wavefront 1) reads it
    // in the same barrier phase — not lockstep, so it is a real race.
    let desc = KernelDesc::new_1d("local_race", 128, 128);
    q.run(
        &desc,
        declared(&desc, vec![AccessWindow::write(out.info(), 0, 1)]),
        &[&out],
        move |g| {
            g.alloc_local(128);
            g.begin_item([0, 0]);
            g.local_write(0, 3.0);
            g.begin_item([64, 0]);
            let v = g.local_read(0);
            w.set_raw(0, v);
        },
    )
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::LocalRace {
            kind: RaceKind::ReadWrite,
            index: 0,
            ..
        }
    )));
}

#[test]
fn fixture_lockstep_local_access_is_not_flagged() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let out = ctx.buffer::<f32>("out", 1);
    let w = out.write_view();
    // Lanes 0 and 32 share wavefront 0: same-phase accesses execute in
    // lockstep and are exempt (the reduction kernels' unrolled tail).
    let desc = KernelDesc::new_1d("lockstep", 128, 128);
    q.run(
        &desc,
        declared(&desc, vec![AccessWindow::write(out.info(), 0, 1)]),
        &[&out],
        move |g| {
            g.alloc_local(128);
            g.begin_item([32, 0]);
            g.local_write(0, 3.0);
            g.begin_item([0, 0]);
            let v = g.local_read(0);
            w.set_raw(0, v);
        },
    )
    .unwrap();
    assert!(ctx.sanitize_report().unwrap().is_clean());
}

#[test]
fn fixture_barrier_separated_local_reuse_is_not_flagged() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let out = ctx.buffer::<f32>("out", 1);
    let w = out.write_view();
    let desc = KernelDesc::new_1d("phases", 128, 128);
    q.run(
        &desc,
        declared(&desc, vec![AccessWindow::write(out.info(), 0, 1)]),
        &[&out],
        move |g| {
            g.alloc_local(128);
            for l in items(g.group_size) {
                g.begin_item(l);
                g.local_write(l[0], l[0] as f32);
            }
            g.barrier();
            g.begin_item([0, 0]);
            let v = g.local_read(127); // written by lane 127 before the barrier
            w.set_raw(0, v);
        },
    )
    .unwrap();
    assert!(ctx.sanitize_report().unwrap().is_clean());
}

#[test]
fn fixture_global_oob_is_flagged_and_recovered() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let buf = ctx.buffer::<f32>("small", 8);
    let (r, w) = (buf.view(), buf.write_view());
    // Both the read and the write land past the end; under sanitize the
    // dispatch still completes (read yields 0.0, write is dropped).
    let desc = KernelDesc::new_1d("oob", 64, 64);
    q.run(&desc, declared(&desc, vec![]), &[&buf], move |g| {
        g.begin_item([0, 0]);
        let v = r.get_raw(100);
        w.set_raw(200, v + 1.0);
    })
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::OobGlobal {
            index: 100,
            len: 8,
            write: false,
            ..
        }
    )));
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::OobGlobal {
            index: 200,
            len: 8,
            write: true,
            ..
        }
    )));
}

#[test]
fn fixture_local_oob_is_flagged_and_recovered() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let out = ctx.buffer::<f32>("out", 1);
    let w = out.write_view();
    let desc = KernelDesc::new_1d("oob_local", 64, 64);
    q.run(
        &desc,
        declared(&desc, vec![AccessWindow::write(out.info(), 0, 1)]),
        &[&out],
        move |g| {
            g.alloc_local(16);
            g.begin_item([0, 0]);
            let v = g.local_read(99);
            g.local_write(77, 1.0);
            w.set_raw(0, v);
        },
    )
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::OobLocal {
            index: 99,
            len: 16,
            write: false,
            ..
        }
    )));
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::OobLocal {
            index: 77,
            len: 16,
            write: true,
            ..
        }
    )));
}

#[test]
fn fixture_divergent_barrier_is_flagged() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let out = ctx.buffer::<f32>("out", 64);
    let w = out.write_view();
    let desc = KernelDesc::new_1d("div_barrier", 64, 64);
    q.run(
        &desc,
        declared(&desc, vec![AccessWindow::write(out.info(), 0, 64)]),
        &[&out],
        move |g| {
            g.alloc_local(64);
            for l in items(g.group_size) {
                g.begin_item(l);
                g.local_write(l[0], 1.0);
                if l[0] < 3 {
                    // Item-dependent barrier: items 3.. never reach it.
                    g.barrier();
                }
                let v = g.local_read(l[0]);
                w.set_raw(l[0], v);
            }
        },
    )
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::BarrierDivergence { .. })));
}

#[test]
fn fixture_uncharged_reads_are_flagged_as_drift() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let src = ctx.buffer_from("src", &[1.0f32; 32]);
    let out = ctx.buffer::<f32>("out", 1);
    let (r, w) = (src.view(), out.write_view());
    // The declaration omits the kernel's read of `src`: observed > charged.
    let desc = KernelDesc::new_1d("drift_under", 64, 64);
    let decl = declared(&desc, vec![AccessWindow::write(out.info(), 0, 1)]);
    q.run(&desc, decl, &[&out], move |g| {
        g.begin_item([0, 0]);
        let v = r.get_raw(3);
        w.set_raw(0, v);
    })
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::AccountingDrift {
            class: DriftClass::Read,
            ..
        }
    )));
}

#[test]
fn fixture_phantom_charges_are_flagged_as_drift() {
    let ctx = fixture_ctx();
    let mut q = ctx.queue();
    let out = ctx.buffer::<f32>("out", 11);
    let w = out.write_view();
    // The declaration claims eleven stores; the kernel performs one, so
    // charged > observed.
    let desc = KernelDesc::new_1d("drift_over", 64, 64);
    let decl = declared(&desc, vec![AccessWindow::write(out.info(), 0, 11)]);
    q.run(&desc, decl, &[&out], move |g| {
        g.begin_item([0, 0]);
        w.set_raw(0, 1.0);
    })
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(report.violations.iter().any(|v| matches!(
        v,
        Violation::AccountingDrift {
            class: DriftClass::Write,
            ..
        }
    )));
}

#[test]
fn fixture_uninit_read_is_flagged_in_strict_mode() {
    let config = SanitizeConfig {
        check_uninit_reads: true,
        ..SanitizeConfig::default()
    };
    let ctx = Context::new(spec()).with_sanitize(config);
    let mut q = ctx.queue();
    let src = ctx.buffer::<f32>("never_written", 16);
    let out = ctx.buffer::<f32>("out", 1);
    let (r, w) = (src.view(), out.write_view());
    let desc = KernelDesc::new_1d("uninit", 64, 64);
    q.run(
        &desc,
        declared(
            &desc,
            vec![
                AccessWindow::read(src.info(), 4, 1),
                AccessWindow::write(out.info(), 0, 1),
            ],
        ),
        &[&out],
        move |g| {
            g.begin_item([0, 0]);
            let v = r.get_raw(4);
            w.set_raw(0, v);
        },
    )
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::UninitRead { index: 4, .. })));
}

// ---- error-path hygiene: panics become errors --------------------------

#[test]
fn unsanitized_oob_store_returns_kernel_panic_error() {
    let ctx = Context::new(spec());
    let mut q = ctx.queue();
    let buf = ctx.buffer::<f32>("small", 8);
    let w = buf.write_view();
    let desc = KernelDesc::new_1d("oob_panic", 64, 64);
    let err = q
        .run(&desc, declared(&desc, vec![]), &[&buf], move |g| {
            g.begin_item([0, 0]);
            w.set_raw(999, 1.0);
        })
        .unwrap_err();
    match err {
        Error::KernelPanic { kernel, message } => {
            assert_eq!(kernel, "oob_panic");
            assert!(!message.is_empty());
        }
        other => panic!("expected KernelPanic, got {other:?}"),
    }
    // The queue remains usable: no command was recorded for the failed
    // dispatch and a subsequent good dispatch succeeds.
    let before = q.records().len();
    let ok = ctx.buffer::<f32>("ok", 64);
    let w2 = ok.write_view();
    let desc = KernelDesc::new_1d("good", 64, 64);
    q.run(
        &desc,
        declared(&desc, vec![AccessWindow::write(ok.info(), 0, 64)]),
        &[&ok],
        move |g| {
            for l in items(g.group_size) {
                g.begin_item(l);
                w2.set_raw(l[0], 1.0);
            }
        },
    )
    .unwrap();
    assert_eq!(q.records().len(), before + 1);
}

// ---- buffer pool under the sanitizer -----------------------------------

#[test]
fn plan_drop_releases_pooled_buffers() {
    let img = generate::natural(64, 64, 3);
    let ctx = Context::new(spec());
    let pipe = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), OptConfig::all());
    let plan = pipe.prepared(64, 64).unwrap();
    let live_with_plan = ctx.pool_stats().live;
    assert!(live_with_plan > 0, "a plan should hold pooled buffers");
    drop(plan);
    assert_eq!(
        ctx.pool_stats().live,
        0,
        "dropping the plan must retire every pooled buffer"
    );
    // And a throwaway full run leaves nothing live either.
    pipe.run(&img).unwrap();
    assert_eq!(ctx.pool_stats().live, 0);
}

#[test]
fn recycled_slabs_carry_no_stale_initialised_state() {
    // A recycled slab must look *uninitialised* to the sanitizer: if the
    // shadow survived recycling, stale data from the previous life could
    // be read silently. Strict mode must flag the read.
    let config = SanitizeConfig {
        check_uninit_reads: true,
        ..SanitizeConfig::default()
    };
    let ctx = Context::new(spec()).with_sanitize(config);
    {
        let b = ctx.buffer::<f32>("recycled", 32);
        b.fill_from(&[7.0; 32]); // fully initialised in its first life
    }
    assert_eq!(ctx.pool_stats().returns, 1);
    let b = ctx.buffer::<f32>("recycled", 32);
    assert_eq!(ctx.pool_stats().hits, 1, "slab must actually be recycled");
    let out = ctx.buffer::<f32>("out", 1);
    let (r, w) = (b.view(), out.write_view());
    let mut q = ctx.queue();
    let desc = KernelDesc::new_1d("stale", 64, 64);
    q.run(
        &desc,
        declared(
            &desc,
            vec![
                AccessWindow::read(b.info(), 0, 1),
                AccessWindow::write(out.info(), 0, 1),
            ],
        ),
        &[&out],
        move |g| {
            g.begin_item([0, 0]);
            let v = r.get_raw(0);
            w.set_raw(0, v);
        },
    )
    .unwrap();
    let report = ctx.sanitize_report().unwrap();
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UninitRead { .. })),
        "read of a recycled, unwritten slab must be flagged: {}",
        report.summary()
    );
}

#[test]
fn sanitized_pooled_pipeline_stays_clean_across_frames() {
    // Three frames through one sanitized, pooled context: recycled slabs
    // must not produce races, OOB, or drift on later frames.
    let ctx = Context::sanitized(spec());
    let pipe = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), OptConfig::all());
    for seed in [1, 2, 3] {
        let img = generate::natural(64, 64, seed);
        pipe.run(&img).unwrap();
    }
    assert!(ctx.pool_stats().hits > 0, "frames should recycle buffers");
    let report = ctx.sanitize_report().unwrap();
    assert!(report.is_clean(), "{}", report.summary());
}
