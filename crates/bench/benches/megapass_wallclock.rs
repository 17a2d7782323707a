//! Wall-clock comparison of the kernel span backends (not a figure from
//! the paper — the SIMD backends optimize the *host* cost of running the
//! simulator; pixels and simulated seconds are bit-identical by
//! construction, so frames/s of real time is the only number that can
//! move).
//!
//! For each square size the bench runs one persistent plan per backend
//! over the same frame stream: the backend forced to `autovec` (the
//! scalar reference row, speedup 1.0), then the detected SIMD backend.
//! Results land in `MP_OUT` (default the committed `baselines/BENCH_6.json`,
//! so a re-run refreshes the tracked record).
//!
//! Run with `cargo bench --features simd --bench megapass_wallclock`.
//! Environment knobs: `MP_SIZES` (default `1024,2048,4096`), `MP_FRAMES`
//! (default 3), `MP_OUT` (output path).

use std::time::Instant;

use sharpness_bench::benchjson::{self, BenchRow};
use sharpness_bench::ledger::{self, LedgerEntry};
use sharpness_bench::workload;
use sharpness_core::gpu::{GpuPipeline, OptConfig};
use sharpness_core::params::SharpnessParams;
use sharpness_core::simd::{self, Backend};
use simgpu::context::Context;
use simgpu::device::DeviceSpec;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_sizes() -> Vec<usize> {
    std::env::var("MP_SIZES")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1024, 2048, 4096])
}

/// Times `frames` runs of a persistent plan; returns frames/s of
/// wall-clock time.
fn measure(width: usize, frames: usize) -> f64 {
    let img = workload(width);
    let ctx = Context::new(DeviceSpec::firepro_w8000());
    let pipe = GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all());
    let mut plan = pipe.prepared(width, width).unwrap();
    let mut out = vec![0.0f32; width * width];
    plan.run_into(&img, &mut out).unwrap(); // warm-up (fills the pool)
    let t0 = Instant::now();
    for _ in 0..frames {
        std::hint::black_box(plan.run_into(&img, &mut out).unwrap());
    }
    frames as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let sizes = env_sizes();
    let frames = env_usize("MP_FRAMES", 3);
    let out_path = std::env::var("MP_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/BENCH_6.json").to_string()
    });

    println!(
        "megapass_wallclock: {frames} frames per configuration, OptConfig::all(), \
         host features [{}]",
        simd::host_features()
    );
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for &width in &sizes {
        // One spans-enabled observation frame supplies the attribution
        // data carried by the ledger entries; it runs outside every timed
        // loop.
        let shares = ledger::phase_shares(width);

        // Scalar reference: the autovectorized spans.
        simd::set_backend(Some(Backend::Autovec));
        let scalar_fps = measure(width, frames);
        rows.push(BenchRow::with_active_backend(
            width,
            "monolithic".to_string(),
            scalar_fps,
            1.0,
        ));
        entries.push(LedgerEntry::now(
            "megapass_wallclock",
            "monolithic",
            width,
            scalar_fps,
            shares.clone(),
        ));

        // Detected SIMD backend (autovec again when the feature is off).
        simd::set_backend(None);
        let simd_label = simd::active_backend().label();
        let simd_fps = measure(width, frames);
        let simd_speedup = simd_fps / scalar_fps;
        rows.push(BenchRow::with_active_backend(
            width,
            "monolithic".to_string(),
            simd_fps,
            simd_speedup,
        ));
        entries.push(LedgerEntry::now(
            "megapass_wallclock",
            "monolithic",
            width,
            simd_fps,
            shares,
        ));

        println!(
            "  {width:>4}²: autovec {scalar_fps:7.2} fps | {simd_label} {simd_fps:7.2} fps \
             ({simd_speedup:4.2}x)"
        );
    }
    benchjson::write(&out_path, "megapass_wallclock", &rows).expect("write bench json");
    println!("wrote {out_path}");
    let ledger_path = std::env::var("LEDGER_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| ledger::default_path());
    ledger::append(&ledger_path, &entries).expect("append perf ledger");
    println!(
        "appended {} entries to {}",
        entries.len(),
        ledger_path.display()
    );
}
