//! Self-timed load bench for the sharpen service (`core::service`).
//!
//! Replays the same deterministic Zipf/bursty request stream at several
//! offered loads (the mean inter-arrival gap is the knob) through two
//! paths:
//!
//! * `service`   — [`SharpenService`]: sharded plan cache, shape-coalescing
//!   batches, model-based admission control;
//! * `unbatched` — the per-request baseline: a fresh `prepared()` plan for
//!   every request, no cache, no coalescing, no shedding.
//!
//! The headline number is the "vs unbatched" ratio — wall frames/s of the
//! service over the baseline on the identical stream — which is what the
//! plan cache and batch coalescing must keep above 1.0. Each line
//! reports both wall *service* time (host per-frame execution) and
//! simulated arrival→completion latency (queueing included; the honest
//! currency on a 1-core host — see the `core::service::scheduler` docs).
//!
//! Run with `cargo bench --bench service_load`. It prints to stdout and
//! writes no file. `SV_REQUESTS` sets the stream length (default 192);
//! the traffic seed is fixed at 2015.

use std::time::Instant;

use sharpness_core::gpu::{GpuPipeline, OptConfig};
use sharpness_core::params::SharpnessParams;
use sharpness_core::service::{generate_requests, ServiceConfig, SharpenService, TrafficConfig};
use simgpu::context::Context;
use simgpu::device::DeviceSpec;

/// Seed of the replayed request stream.
const SEED: u64 = 2015;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn pipeline() -> GpuPipeline {
    let ctx = Context::new(DeviceSpec::firepro_w8000());
    GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all())
}

/// Serves every request with a freshly prepared plan — the cost a caller
/// pays without the service layer. Returns wall seconds for the stream.
fn unbatched_s(requests: &[sharpness_core::service::Request]) -> f64 {
    let pipe = pipeline();
    let mut out = Vec::new();
    let t0 = Instant::now();
    for r in requests {
        let mut plan = pipe.prepared(r.width, r.height).expect("prepare plan");
        let frame = r.frame();
        out.resize(frame.len(), 0.0);
        std::hint::black_box(plan.run_into(&frame, &mut out).expect("run frame"));
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let n = env_u64("SV_REQUESTS", 192) as usize;
    // Offered loads: relaxed → paced → saturating. The mean gap is
    // simulated seconds between arrivals; smaller gap = hotter stream.
    let gaps_us: [u64; 3] = [2000, 500, 125];

    println!("service_load: {n} requests, seed {SEED}, gaps {gaps_us:?} us");

    for gap_us in gaps_us {
        let traffic = TrafficConfig {
            requests: n,
            seed: SEED,
            mean_gap_s: gap_us as f64 * 1e-6,
            ..TrafficConfig::default()
        };
        let requests = generate_requests(&traffic);
        let label = format!("gap={gap_us}us");

        // Warm-up (JIT-free Rust, but page-faults + allocator warmth), then
        // the measured service run on a fresh service (cold plan cache —
        // prepare cost is part of what the cache amortises).
        SharpenService::new(pipeline(), ServiceConfig::default())
            .serve(&requests)
            .expect("warm-up serve");
        let report = SharpenService::new(pipeline(), ServiceConfig::default())
            .serve(&requests)
            .expect("serve");

        let base_s = unbatched_s(&requests);
        let base_fps = requests.len() as f64 / base_s;
        let speedup = report.wall_fps() / base_fps;

        let wall = report.wall_latency();
        let sim = report.sim_latency();
        println!(
            "  {label:<11} served {:>4}/{:<4} shed {:>3} batches {:>4}  {:7.1} frames/s wall \
             ({:4.2}x vs unbatched {:7.1})  wall p50/p99 {:6.3}/{:6.3} ms  \
             sim p50/p99 {:8.3}/{:8.3} ms",
            report.served,
            report.requests,
            report.shed,
            report.batches,
            report.wall_fps(),
            speedup,
            base_fps,
            wall.quantile(0.5) * 1e3,
            wall.quantile(0.99) * 1e3,
            sim.quantile(0.5) * 1e3,
            sim.quantile(0.99) * 1e3,
        );
    }
}
