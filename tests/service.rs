//! Integration tests for the sharpen service (`core::service`):
//! determinism of the whole serve (stream, batching, shed set, outputs),
//! bit-identity of served frames against direct plan execution, exact
//! request accounting, backpressure under overload, and sanitizer
//! cleanliness of a served stream.

use sharpness_core::gpu::{GpuPipeline, OptConfig};
use sharpness_core::params::SharpnessParams;
use sharpness_core::service::{
    generate_requests, ServiceConfig, ServiceReport, SharpenService, TrafficConfig,
};
use simgpu::prelude::*;

fn pipeline(ctx: Context) -> GpuPipeline {
    GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all())
}

fn traffic(n: usize, seed: u64, gap_s: f64) -> TrafficConfig {
    TrafficConfig {
        requests: n,
        seed,
        mean_gap_s: gap_s,
        ..TrafficConfig::default()
    }
}

fn serve(ctx: Context, cfg: &TrafficConfig, keep_outputs: bool) -> ServiceReport {
    let requests = generate_requests(cfg);
    SharpenService::new(
        pipeline(ctx),
        ServiceConfig {
            keep_outputs,
            ..ServiceConfig::default()
        },
    )
    .serve(&requests)
    .expect("serve")
}

// ---- determinism -------------------------------------------------------

#[test]
fn identical_seed_gives_identical_serve_decisions_and_outputs() {
    let cfg = traffic(96, 41, 2e-4); // hot enough that shedding can occur
    let a = serve(Context::new(DeviceSpec::firepro_w8000()), &cfg, true);
    let b = serve(Context::new(DeviceSpec::firepro_w8000()), &cfg, true);

    // The scheduling decisions replay exactly: same shed set, same batch
    // composition, same outcome counters.
    assert_eq!(a.shed_ids, b.shed_ids);
    assert_eq!(a.served, b.served);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.coalesced, b.coalesced);
    assert_eq!(a.peak_queued, b.peak_queued);
    // Simulated time is bit-identical (the repo-wide invariant).
    assert_eq!(a.sim_end_s.to_bits(), b.sim_end_s.to_bits());
    // Served outputs: same ids in the same completion order, and the
    // pixels are bit-identical.
    assert_eq!(a.outputs.len(), b.outputs.len());
    for ((ida, imga), (idb, imgb)) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(ida, idb);
        assert_eq!(imga.pixels(), imgb.pixels());
    }
}

#[test]
fn different_seed_changes_the_stream() {
    let a = generate_requests(&traffic(64, 1, 2e-3));
    let b = generate_requests(&traffic(64, 2, 2e-3));
    assert_ne!(a, b);
}

// ---- bit-identity vs direct execution ----------------------------------

#[test]
fn served_outputs_are_bit_identical_to_direct_plan_execution() {
    let cfg = traffic(48, 7, 1e-3);
    let report = serve(Context::new(DeviceSpec::firepro_w8000()), &cfg, true);
    assert!(report.served > 0);

    let requests = generate_requests(&cfg);
    let direct = pipeline(Context::new(DeviceSpec::firepro_w8000()));
    for (id, out) in &report.outputs {
        let r = &requests[*id as usize];
        assert_eq!(r.id, *id);
        let frame = r.frame();
        let mut expect = vec![0.0f32; frame.len()];
        let mut plan = direct.prepared(r.width, r.height).expect("prepare");
        plan.run_into(&frame, &mut expect).expect("direct run");
        assert_eq!(
            out.pixels(),
            expect.as_slice(),
            "request {id}: served pixels differ from direct execution"
        );
    }
}

// ---- accounting --------------------------------------------------------

#[test]
fn every_request_is_served_or_shed_exactly_once() {
    let cfg = traffic(128, 13, 1e-4); // saturating: forces sheds
    let report = serve(Context::new(DeviceSpec::firepro_w8000()), &cfg, true);
    assert_eq!(report.served + report.shed, report.requests);
    assert_eq!(report.shed_ids.len() as u64, report.shed);
    assert_eq!(report.outputs.len() as u64, report.served);

    // Served ∪ shed covers the id space with no overlap.
    let mut seen = vec![false; report.requests as usize];
    for id in report
        .shed_ids
        .iter()
        .chain(report.outputs.iter().map(|(id, _)| id))
    {
        assert!(!seen[*id as usize], "request {id} appears twice");
        seen[*id as usize] = true;
    }
    assert!(seen.iter().all(|&s| s));

    // Per-class counters roll up to the same totals.
    for c in &report.classes {
        assert_eq!(c.offered, c.admitted + c.shed);
        assert_eq!(c.admitted, c.served); // the loop drains every queue
    }
}

// ---- backpressure ------------------------------------------------------

#[test]
fn overload_sheds_and_relaxed_load_does_not() {
    // Saturating: the whole stream lands within ~1 ms of simulated time
    // while each frame costs a comparable amount, so bounded queues must
    // overflow (small capacity keeps the threshold far from the stream
    // size — this is a backpressure test, not a tuning test).
    let requests = generate_requests(&traffic(128, 13, 1e-5));
    let hot = SharpenService::new(
        pipeline(Context::new(DeviceSpec::firepro_w8000())),
        ServiceConfig {
            queue_capacity: 8,
            ..ServiceConfig::default()
        },
    )
    .serve(&requests)
    .expect("serve");
    assert!(hot.shed > 0, "saturating load must shed");
    assert_eq!(hot.served + hot.shed, hot.requests);

    let cold = serve(
        Context::new(DeviceSpec::firepro_w8000()),
        &traffic(32, 13, 0.5),
        false,
    );
    assert_eq!(cold.shed, 0, "widely spaced arrivals must all be admitted");
    assert_eq!(cold.served, 32);
}

#[test]
fn batches_respect_max_batch_and_coalescing_is_counted() {
    let cfg = traffic(96, 99, 1e-5); // everything arrives almost at once
    let requests = generate_requests(&cfg);
    let report = SharpenService::new(
        pipeline(Context::new(DeviceSpec::firepro_w8000())),
        ServiceConfig {
            max_batch: 4,
            queue_capacity: 256,
            slo_s: [10.0, 10.0, 10.0], // admit everything: isolate batching
            ..ServiceConfig::default()
        },
    )
    .serve(&requests)
    .expect("serve");
    assert_eq!(report.served, 96);
    // With max_batch=4 a batch serves at most 4 requests, so at least
    // ceil(96/4) batches ran; coalesced counts the riders exactly.
    assert!(report.batches >= 24);
    assert_eq!(report.coalesced, report.served - report.batches);
    assert!(
        report.coalesced > 0,
        "a burst-heavy same-catalog stream must coalesce"
    );
}

// ---- sanitizer ---------------------------------------------------------

#[test]
fn serving_a_stream_is_sanitize_clean_and_unperturbed() {
    let cfg = traffic(24, 5, 1e-3);
    let ctx = Context::sanitized(DeviceSpec::firepro_w8000());
    let report = serve(ctx.clone(), &cfg, true);
    let san = ctx.sanitize_report().expect("sanitizer was enabled");
    assert!(san.is_clean(), "{}", san.summary());
    assert!(san.dispatches > 0);

    // The sanitizer observes without perturbing: identical decisions,
    // identical pixels, bit-identical simulated time vs a plain context.
    let plain = serve(Context::new(DeviceSpec::firepro_w8000()), &cfg, true);
    assert_eq!(report.shed_ids, plain.shed_ids);
    assert_eq!(report.sim_end_s.to_bits(), plain.sim_end_s.to_bits());
    assert_eq!(report.outputs.len(), plain.outputs.len());
    for ((ida, imga), (idb, imgb)) in report.outputs.iter().zip(&plain.outputs) {
        assert_eq!(ida, idb);
        assert_eq!(imga.pixels(), imgb.pixels());
    }
}
