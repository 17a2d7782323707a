//! Figure/table reproduction CLI.
//!
//! ```text
//! repro [table1|fig12|fig13a|fig13b|fig13c|fig14|fig15|fig16|fig17|all]
//!       [--sanitize] [--verify-static]
//! ```
//!
//! Prints, for every experiment of the paper's evaluation section, the
//! regenerated rows/series alongside the shape criteria the paper
//! reports. Model times are deterministic; run with `--release` for
//! reasonable wall-clock at 4096².
//!
//! `--sanitize` first verifies every optimization config under the
//! shadow-execution sanitizer (races, out-of-bounds, barrier divergence,
//! accounting drift) and exits non-zero on any finding; alone, it runs
//! only that verification sweep.
//!
//! `--verify-static` runs the static access-summary verifier over every
//! optimization config × shape (aligned/ragged/odd) — proving
//! bounds, write disjointness and byte accounting
//! without executing a single kernel — and exits non-zero on any failed
//! proof; alone, it runs only the static sweep.
//!
//! `--metrics <path>` (also spelled `--metrics-dir`, same flag the
//! `sharpen` tool takes) writes the per-config efficiency metrics — the
//! same JSONL `metrics_baseline` maintains under `baselines/metrics/`.
//! Dir vs file by inspection: a directory path gets one file per
//! cumulative optimization step; a `*.jsonl` file path gets every step in
//! one file with `step-slug.`-prefixed metric names. Alone, it writes
//! only the metrics.

use sharpness_bench::*;
use sharpness_core::gpu::{verify_static, GpuPipeline, OptConfig, Tuning};
use sharpness_core::params::SharpnessParams;
use simgpu::context::Context;
use simgpu::device::DeviceSpec;

/// Runs every optimization config under the sanitizer at 128² plus the
/// end-member configs at a ragged 1000x700; returns whether all came back
/// clean, printing findings as they appear.
fn sanitize_sweep() -> bool {
    println!("sanitizer sweep — every config must be race/OOB/drift-free");
    let mut clean = true;
    let mut check = |w: usize, h: usize, bits: u32, cfg: OptConfig| {
        let img = imagekit::generate::natural(w, h, 17);
        let ctx = Context::sanitized(DeviceSpec::firepro_w8000());
        let run = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), cfg).run(&img);
        let report = ctx.sanitize_report().expect("sanitizer enabled");
        match run {
            Ok(_) if report.is_clean() => {}
            Ok(_) => {
                clean = false;
                println!("  {w}x{h} config {bits:06b}: {report}");
            }
            Err(e) => {
                clean = false;
                println!("  {w}x{h} config {bits:06b}: run failed: {e}");
            }
        }
    };
    for bits in 0..64u32 {
        let cfg = OptConfig {
            data_transfer: bits & 1 != 0,
            kernel_fusion: bits & 2 != 0,
            reduction_gpu: bits & 4 != 0,
            vectorization: bits & 8 != 0,
            border_gpu: bits & 16 != 0,
            others: bits & 32 != 0,
        };
        check(128, 128, bits, cfg);
    }
    check(1000, 700, 0, OptConfig::none());
    check(1000, 700, 63, OptConfig::all());
    if clean {
        println!("  66 sanitized runs, all clean\n");
    }
    clean
}

/// Statically proves the full acceptance grid — all 64 configs × four
/// shapes — without executing a kernel; returns whether
/// every proof succeeded, printing failures as they appear.
fn verify_static_sweep() -> bool {
    println!("static verifier sweep — every config/shape must prove sound");
    let tuning = Tuning::default();
    let mut clean = true;
    let (mut proofs, mut dispatches, mut windows) = (0u64, 0u64, 0u64);
    let mut max_slack = 0.0f64;
    for (w, h) in [(256, 256), (768, 768), (1001, 701), (1023, 769)] {
        for bits in 0..64u32 {
            let cfg = OptConfig {
                data_transfer: bits & 1 != 0,
                kernel_fusion: bits & 2 != 0,
                reduction_gpu: bits & 4 != 0,
                vectorization: bits & 8 != 0,
                border_gpu: bits & 16 != 0,
                others: bits & 32 != 0,
            };
            match verify_static(w, h, &cfg, &tuning) {
                Ok(r) => {
                    proofs += 1;
                    dispatches += r.stats.dispatches;
                    windows += r.stats.windows;
                    max_slack = max_slack.max(r.stats.max_ratio_slack);
                }
                Err(e) => {
                    clean = false;
                    println!("  {w}x{h} config {bits:06b}: {e}");
                }
            }
        }
    }
    if clean {
        println!(
            "  {proofs} configurations proved sound ({dispatches} dispatches, {windows} access \
             windows; max read-overcharge slack {max_slack:.4})\n"
        );
    }
    clean
}

/// Writes the per-config efficiency metrics. Dir vs file by inspection:
/// an existing directory (or any path without a `.jsonl` extension) gets
/// one JSONL file per cumulative step; a `*.jsonl` path gets all steps in
/// one file, each metric name prefixed with its step slug.
fn write_metrics(path: &str) {
    use sharpness_core::telemetry::{baseline_configs, baseline_registry};
    let p = std::path::Path::new(path);
    let single_file = !p.is_dir() && p.extension().is_some_and(|e| e == "jsonl");
    if single_file {
        let mut out = String::new();
        for (slug, cfg) in baseline_configs() {
            let reg = baseline_registry(&cfg).expect("baseline config runs");
            for line in reg.to_jsonl().lines() {
                // Lines are our own emitter's output, so the name field is
                // always the first key; prefix it with the step slug.
                out.push_str(&line.replacen("{\"name\":\"", &format!("{{\"name\":\"{slug}."), 1));
                out.push('\n');
            }
        }
        std::fs::write(p, out).expect("write metrics");
        println!("wrote {}", p.display());
    } else {
        std::fs::create_dir_all(p).expect("create metrics dir");
        for (slug, cfg) in baseline_configs() {
            let reg = baseline_registry(&cfg).expect("baseline config runs");
            let file = p.join(format!("{slug}.jsonl"));
            std::fs::write(&file, reg.to_jsonl()).expect("write metrics");
            println!("wrote {}", file.display());
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sanitize = args.iter().any(|a| a == "--sanitize");
    args.retain(|a| a != "--sanitize");
    let verify = args.iter().any(|a| a == "--verify-static");
    args.retain(|a| a != "--verify-static");
    let metrics_dir = args
        .iter()
        .position(|a| a == "--metrics-dir" || a == "--metrics")
        .map(|i| {
            if i + 1 >= args.len() {
                eprintln!("{} needs a path", args[i]);
                std::process::exit(2);
            }
            let dir = args[i + 1].clone();
            args.drain(i..=i + 1);
            dir
        });
    if verify {
        if !verify_static_sweep() {
            std::process::exit(1);
        }
        if args.is_empty() && !sanitize && metrics_dir.is_none() {
            return;
        }
    }
    if sanitize {
        if !sanitize_sweep() {
            std::process::exit(1);
        }
        if args.is_empty() && metrics_dir.is_none() {
            return;
        }
    }
    if let Some(dir) = &metrics_dir {
        write_metrics(dir);
        if args.is_empty() {
            return;
        }
    }
    let what = args.first().map(String::as_str).unwrap_or("all");
    let all = what == "all";

    if all || what == "table1" {
        println!("{}", table1());
    }
    if all || what == "fig12" {
        fig12();
    }
    if all || what == "fig13a" {
        fig13a();
    }
    if all || what == "fig13b" {
        fig13(
            "Fig. 13(b) — time fraction per stage, base GPU version",
            OptConfig::none(),
        );
    }
    if all || what == "fig13c" {
        fig13(
            "Fig. 13(c) — time fraction per stage, optimized GPU version",
            OptConfig::all(),
        );
    }
    if all || what == "fig14" {
        fig14();
    }
    if all || what == "fig15" {
        fig15();
    }
    if all || what == "fig16" {
        fig16();
    }
    if all || what == "fig17" {
        fig17();
    }
    if all || what == "ablations" {
        ablations();
    }
    if what == "csv" {
        let dir = args.get(1).map(String::as_str).unwrap_or("repro_csv");
        write_csvs(dir);
    }
    if !all
        && ![
            "table1",
            "fig12",
            "fig13a",
            "fig13b",
            "fig13c",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "ablations",
            "csv",
        ]
        .contains(&what)
    {
        eprintln!("unknown experiment `{what}`");
        eprintln!(
            "usage: repro [table1|fig12|fig13a|fig13b|fig13c|fig14|fig15|fig16|fig17|ablations|all|csv <dir>] [--sanitize] [--verify-static] [--metrics <dir-or-file.jsonl>]"
        );
        std::process::exit(2);
    }
}

fn ablations() {
    use sharpness_bench::ablation;
    println!("Model ablations — robustness of the paper's conclusions to device constants");

    println!("  vectorization win vs vector coalescing factor (1024², opt/base):");
    for (f, ratio) in ablation::sweep_coalesce_vector(1024, &[0.55, 0.65, 0.75, 0.85, 0.95]) {
        println!("    coalesce_vector {f:.2} -> {ratio:.2}x");
    }

    println!("  launch overhead vs opt/base (256²) and border crossover:");
    for (us, ratio, crossover) in ablation::sweep_launch_overhead(256, &[5.0, 10.0, 20.0, 40.0]) {
        println!("    launch {us:>4.0} µs -> opt/base {ratio:.2}x, border crossover {crossover}²");
    }

    println!("  PCI-E bandwidth vs totals (1024²):");
    for (bw, base, opt) in ablation::sweep_pcie_bandwidth(1024, &[3.0, 6.0, 12.0]) {
        println!(
            "    {bw:>4.0} GB/s -> base {} opt {}",
            fmt_time(base),
            fmt_time(opt)
        );
    }

    println!("  barrier stall vs reduction strategies (1024²):");
    for (cyc, one, two, none) in ablation::sweep_barrier_cost(1024 * 1024, &[16.0, 64.0, 256.0]) {
        println!(
            "    {cyc:>4.0} cycles -> unroll1 {} unroll2 {} no-unroll {}",
            fmt_time(one),
            fmt_time(two),
            fmt_time(none)
        );
    }
    println!();
}

fn fig12() {
    println!("Fig. 12 — CPU vs base GPU vs optimized GPU (simulated seconds)");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "size", "CPU", "GPU base", "GPU opt", "base x", "opt x", "opt/base"
    );
    for r in fig12_data(&FIG12_SIZES) {
        println!(
            "{:>7}² {}{}{} {:>9.1}x {:>9.1}x {:>9.2}x",
            r.width,
            fmt_time(r.cpu_s),
            fmt_time(r.base_s),
            fmt_time(r.opt_s),
            r.base_speedup(),
            r.opt_speedup(),
            r.opt_over_base(),
        );
    }
    println!("paper shape: base speedup 9.8→35.3 with size; opt adds 1.2–2.0x; total 10.7–69.3x\n");
}

fn fig13a() {
    println!("Fig. 13(a) — time fraction per stage, CPU version");
    print_fractions(fig13a_data(&FIG12_SIZES));
    println!("paper shape: overshoot control + strength matrix dominate; sobel/pError/upscale shrink with size\n");
}

fn fig13(title: &str, opts: OptConfig) {
    println!("{title}");
    print_fractions(fig13_gpu_data(&FIG12_SIZES, opts));
    if opts == OptConfig::none() {
        println!("paper shape: center, sobel and reduction are the base GPU bottlenecks; data-init share shrinks with size\n");
    } else {
        println!("paper shape: fractions evenly distributed, no prominent bottleneck\n");
    }
}

fn print_fractions(data: Vec<(usize, Vec<(String, f64)>)>) {
    // Collect category order from the largest size (most complete).
    let cats: Vec<String> = data
        .last()
        .map(|(_, c)| c.iter().map(|(n, _)| n.clone()).collect())
        .unwrap_or_default();
    print!("{:>10}", "size");
    for c in &cats {
        print!(" {:>12.12}", c);
    }
    println!();
    for (width, row) in &data {
        print!("{width:>9}²");
        for c in &cats {
            let f = row
                .iter()
                .find(|(n, _)| n == c)
                .map(|(_, f)| *f)
                .unwrap_or(0.0);
            print!(" {:>11.1}%", f * 100.0);
        }
        println!();
    }
}

fn fig14() {
    println!("Fig. 14 — cumulative optimization steps (simulated seconds, speedup vs base)");
    for (width, series) in fig14_data(&FIG14_SIZES) {
        println!("  {width}²:");
        let base = series[0].1;
        for (name, s) in series {
            println!("    {:<55} {} ({:>5.2}x)", name, fmt_time(s), base / s);
        }
    }
    println!("paper shape: all steps 1.15–9.04x over base at 8192²; transfer+fusion hurts below 4096²; reduction & vectorization+border give the big wins\n");
}

fn fig15() {
    println!("Fig. 15 — reduction tail strategies (simulated seconds)");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "size", "unroll 1", "unroll 2", "no unroll"
    );
    for (w, one, two, none) in fig15_data(&FIG14_SIZES) {
        println!(
            "{w:>9}² {} {} {}",
            fmt_time(one),
            fmt_time(two),
            fmt_time(none)
        );
    }
    println!("paper shape: unrolling ONE wavefront beats unrolling two (extra barrier)\n");
}

fn fig16() {
    println!("Fig. 16 — reduction on CPU (incl. pEdge transfer) vs on GPU");
    println!(
        "{:>10} {:>12} {:>12} {:>10}",
        "size", "CPU", "GPU", "speedup"
    );
    for (w, cpu, gpu) in fig16_data(&FIG14_SIZES) {
        println!(
            "{w:>9}² {} {} {:>9.1}x",
            fmt_time(cpu),
            fmt_time(gpu),
            cpu / gpu
        );
    }
    println!("paper shape: GPU reduction up to 30.8x faster\n");
}

fn fig17() {
    println!("Fig. 17 — upscale border on CPU vs GPU (simulated seconds)");
    println!("{:>10} {:>12} {:>12} {:>8}", "size", "CPU", "GPU", "winner");
    for (w, cpu, gpu) in fig17_data(&FIG17_SIZES) {
        println!(
            "{w:>9}² {} {} {:>8}",
            fmt_time(cpu),
            fmt_time(gpu),
            if cpu <= gpu { "CPU" } else { "GPU" }
        );
    }
    let ctx = w8000();
    let candidates: Vec<usize> = (1..=32).map(|k| k * 64).collect();
    let crossover = sharpness_core::autotune::tune_border_crossover(&ctx, &candidates);
    println!("autotuned crossover: {crossover}² (paper: 768²)\n");
}

fn write_csvs(dir: &str) {
    use sharpness_bench::csv;
    std::fs::create_dir_all(dir).expect("create csv dir");
    let files: [(&str, String); 7] = [
        ("fig12.csv", csv::fig12_csv(&FIG12_SIZES)),
        ("fig13a.csv", csv::fig13a_csv(&FIG12_SIZES)),
        (
            "fig13b.csv",
            csv::fig13_gpu_csv(&FIG12_SIZES, OptConfig::none()),
        ),
        (
            "fig13c.csv",
            csv::fig13_gpu_csv(&FIG12_SIZES, OptConfig::all()),
        ),
        ("fig14.csv", csv::fig14_csv(&FIG14_SIZES)),
        ("fig15.csv", csv::fig15_csv(&FIG14_SIZES)),
        ("fig16.csv", csv::fig16_csv(&FIG14_SIZES)),
    ];
    for (name, content) in files {
        let path = std::path::Path::new(dir).join(name);
        std::fs::write(&path, content).expect("write csv");
        println!("wrote {}", path.display());
    }
    let path = std::path::Path::new(dir).join("fig17.csv");
    std::fs::write(&path, csv::fig17_csv(&FIG17_SIZES)).expect("write csv");
    println!("wrote {}", path.display());
}
