//! Wall-clock bench of the model-based schedule tuner (`core::tune`):
//! how fast the exhaustive search walks the candidate space, and the
//! simulated speedup of the tuned schedule over the paper's hand-tuned
//! default — per device preset and shape. The picks and speedups are
//! deterministic (pure cost model); only candidates/s measures this host.
//! Whether the guided walk lands on the exhaustive argmin is a unit test
//! in `core::tune::search`.
//!
//! Run with `cargo bench -p sharpness-bench --bench tune_model`. It
//! prints to stdout and writes no file. `TM_SHAPES` sets the shapes
//! (default `256x256,768x768,1001x701`).

use std::time::Instant;

use sharpness_core::tune::{flags_label, search, SearchMode};
use simgpu::device::{CpuSpec, DeviceSpec};

fn env_shapes() -> Vec<(usize, usize)> {
    std::env::var("TM_SHAPES")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| {
                    let (w, h) = s.trim().split_once('x')?;
                    Some((w.parse().ok()?, h.parse().ok()?))
                })
                .collect()
        })
        .filter(|v: &Vec<(usize, usize)>| !v.is_empty())
        .unwrap_or_else(|| vec![(256, 256), (768, 768), (1001, 701)])
}

fn main() {
    let shapes = env_shapes();
    let presets = [
        DeviceSpec::firepro_w8000(),
        DeviceSpec::midrange_gpu(),
        DeviceSpec::apu(),
        DeviceSpec::embedded_gpu(),
        DeviceSpec::hbm_gpu(),
    ];
    let cpu = CpuSpec::core_i5_3470();

    println!("tune_model: exhaustive search per (device, shape), pure cost model (no pipeline executions)");
    for dev in &presets {
        for &(w, h) in &shapes {
            let t0 = Instant::now();
            let ex = search(w, h, dev, &cpu, SearchMode::Exhaustive).expect("exhaustive search");
            let wall = t0.elapsed().as_secs_f64();
            let us_per_candidate = wall * 1e6 / ex.candidates as f64;
            // The acceptance budget: evaluating a candidate must stay
            // well under a millisecond, or the model search loses its
            // reason to exist over measure-by-running.
            assert!(
                us_per_candidate <= 1000.0,
                "{}: {us_per_candidate:.1} us/candidate blows the 1 ms budget",
                dev.name
            );
            println!(
                "  {:>14} {w:>4}x{h:<4}: {} ({:?}) {:.3}x vs default, {:>6.0} cand/s",
                dev.name,
                flags_label(&ex.opts),
                ex.tuning.reduction_strategy,
                ex.speedup_vs_default(),
                ex.candidates as f64 / wall,
            );
        }
    }
}
