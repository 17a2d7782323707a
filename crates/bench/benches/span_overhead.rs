//! Wall-clock cost of hierarchical span tracing (not a figure from the
//! paper — spans are observation-only by construction, so the only number
//! that can move is host frames/s).
//!
//! For each square size the bench times the same persistent
//! plan with spans disabled (the default) and enabled
//! (`Context::with_spans()`), and reports the on/off frames-per-second
//! ratio. The acceptance bar is ≤2% overhead (ratio ≥ 0.98). Results land
//! in `SO_OUT` (default the committed `baselines/BENCH_8.json`); the
//! `speedup_vs_monolithic` column holds the spans-on/spans-off ratio
//! (1.0 rows are the spans-off references).
//!
//! Run with `cargo bench --bench span_overhead`. Environment knobs:
//! `SO_SIZES` (default `1024,4096`), `SO_FRAMES` (default 3),
//! `SO_OUT` (output path).

use std::time::Instant;

use sharpness_bench::benchjson::{self, BenchRow};
use sharpness_bench::workload;
use sharpness_core::gpu::{GpuPipeline, OptConfig};
use sharpness_core::params::SharpnessParams;
use simgpu::context::Context;
use simgpu::device::DeviceSpec;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_sizes() -> Vec<usize> {
    std::env::var("SO_SIZES")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1024, 4096])
}

/// Times `frames` runs of a persistent plan, best of `REPS` repetitions
/// (max frames/s — the least-disturbed repetition, since the only noise
/// source on a quiet host is interference slowing a rep down).
fn measure(width: usize, frames: usize, spans: bool) -> f64 {
    const REPS: usize = 3;
    let img = workload(width);
    let ctx = Context::new(DeviceSpec::firepro_w8000());
    let ctx = if spans { ctx.with_spans() } else { ctx };
    let pipe = GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all());
    let mut plan = pipe.prepared(width, width).unwrap();
    let mut out = vec![0.0f32; width * width];
    plan.run_into(&img, &mut out).unwrap(); // warm-up (fills the pool)
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..frames {
            std::hint::black_box(plan.run_into(&img, &mut out).unwrap());
        }
        best = best.max(frames as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let sizes = env_sizes();
    let frames = env_usize("SO_FRAMES", 3);
    let out_path = std::env::var("SO_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/BENCH_8.json").to_string()
    });

    println!("span_overhead: {frames} frames per configuration, OptConfig::all()");
    let mut rows = Vec::new();
    for &width in &sizes {
        let off = measure(width, frames, false);
        let on = measure(width, frames, true);
        let ratio = on / off;
        rows.push(BenchRow::with_active_backend(
            width,
            "monolithic".to_string(),
            off,
            1.0,
        ));
        rows.push(BenchRow::with_active_backend(
            width,
            "monolithic+spans".to_string(),
            on,
            ratio,
        ));
        println!(
            "  {width:>4}²: off {off:7.2} fps | on {on:7.2} fps | \
             ratio {ratio:5.3} ({:+.2}% overhead)",
            (1.0 - ratio) * 100.0
        );
    }
    benchjson::write(&out_path, "span_overhead", &rows).expect("write bench json");
    println!("wrote {out_path}");
}
