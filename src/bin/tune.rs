//! `tune` — the model-based schedule autotuner, as a standalone tool.
//!
//! For each requested shape and device preset the tool walks the
//! schedule space with the closed-form cost predictor (`core::tune`),
//! prints the winning schedule with its predicted per-command cost
//! breakdown, then executes the winner exactly once (spans enabled) to
//! (a) assert the prediction is `.to_bits()`-identical to execution and
//! (b) print the `core::analyze` bottleneck attribution for the tuned
//! schedule. The search itself never runs a pipeline — execution happens
//! only for the self-check and the attribution.

use std::time::Instant;

use sharpness::cli::DevicePreset;
use sharpness::core::tune::{self, SearchMode};
use sharpness::prelude::*;

const USAGE: &str = "\
usage: tune [<w>x<h> ...] [options]
Model-based schedule autotuner: searches the optimization space with the
closed-form cost predictor (zero pipeline executions), prints the winner
and its predicted per-command breakdown, then executes the winner once to
self-check bit-identical prediction and attribute the bottlenecks.
Default shapes: 256x256 1024x1024 2048x2048.
options:
  --device <name>   w8000 | midrange | apu | embedded | hbm | all
                    (default w8000; `all` sweeps every preset)
  --exhaustive      walk the full 768-candidate cross product instead of
                    the ~71-candidate guided walk
  --top <n>         predicted-breakdown terms to print (default 6)
  --no-execute      skip the execution self-check and the attribution
                    (model output only)
";

#[derive(Debug, PartialEq)]
struct Args {
    shapes: Vec<(usize, usize)>,
    devices: Vec<DevicePreset>,
    mode: SearchMode,
    top: usize,
    execute: bool,
}

fn parse_shape(s: &str) -> Result<(usize, usize), String> {
    let (w, h) = s
        .split_once('x')
        .ok_or_else(|| format!("bad shape {s:?} (use <w>x<h>, e.g. 1024x1024)"))?;
    let w: usize = w.parse().map_err(|_| format!("bad width in {s:?}"))?;
    let h: usize = h.parse().map_err(|_| format!("bad height in {s:?}"))?;
    if w == 0 || h == 0 {
        return Err(format!("degenerate shape {s:?}"));
    }
    Ok((w, h))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        shapes: Vec::new(),
        devices: vec![DevicePreset::W8000],
        mode: SearchMode::Guided,
        top: 6,
        execute: true,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--device" => match it.next().map(String::as_str) {
                Some("all") => {
                    parsed.devices = vec![
                        DevicePreset::W8000,
                        DevicePreset::Midrange,
                        DevicePreset::Apu,
                        DevicePreset::Embedded,
                        DevicePreset::Hbm,
                    ]
                }
                other => parsed.devices = vec![DevicePreset::parse(other)?],
            },
            "--exhaustive" => parsed.mode = SearchMode::Exhaustive,
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                parsed.top = v.parse().map_err(|_| format!("bad --top {v:?}"))?;
            }
            "--no-execute" => parsed.execute = false,
            s if s.starts_with("--") => return Err(format!("unknown option {s:?}")),
            shape => parsed.shapes.push(parse_shape(shape)?),
        }
    }
    if parsed.shapes.is_empty() {
        parsed.shapes = vec![(256, 256), (1024, 1024), (2048, 2048)];
    }
    Ok(parsed)
}

/// The predicted commands aggregated by name, heaviest first.
fn breakdown(p: &tune::Prediction, top: usize) -> String {
    let mut by_name: Vec<(String, f64, usize)> = Vec::new();
    for c in &p.commands {
        match by_name.iter_mut().find(|(n, _, _)| *n == c.name) {
            Some((_, s, k)) => {
                *s += c.seconds;
                *k += 1;
            }
            None => by_name.push((c.name.clone(), c.seconds, 1)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = String::new();
    for (name, s, count) in by_name.iter().take(top) {
        out.push_str(&format!(
            "    {:<28} {:>9.3} us  ({:>4.1}%, x{count})\n",
            name,
            s * 1e6,
            s / p.total_s * 100.0,
        ));
    }
    let shown: f64 = by_name.iter().take(top).map(|(_, s, _)| s).sum();
    if by_name.len() > top {
        out.push_str(&format!(
            "    {:<28} {:>9.3} us  ({:>4.1}%)\n",
            format!("(+{} more)", by_name.len() - top),
            (p.total_s - shown) * 1e6,
            (p.total_s - shown) / p.total_s * 100.0,
        ));
    }
    out
}

fn run_one(preset: DevicePreset, w: usize, h: usize, args: &Args) -> Result<String, String> {
    let dev = preset.spec();
    let ctx = Context::new(dev.clone());
    let t0 = Instant::now();
    let report = tune::search(w, h, &dev, ctx.cpu(), args.mode)?;
    let wall = t0.elapsed().as_secs_f64();

    let mut out = format!("{}\n", report.summary_line());
    out.push_str(&format!(
        "  search wall {:.2} ms ({:.1} us/candidate, {:.0} candidates/s)\n",
        wall * 1e3,
        wall * 1e6 / report.candidates as f64,
        report.candidates as f64 / wall,
    ));
    let p = tune::predict_frame(w, h, &report.opts, &report.tuning, &dev, ctx.cpu())?;
    out.push_str("  predicted breakdown:\n");
    out.push_str(&breakdown(&p, args.top));

    if !args.execute {
        return Ok(out);
    }
    // One real execution of the winner: the bit-identity self-check, and
    // the span/telemetry data behind the attribution report.
    let pipe = GpuPipeline::new(
        Context::new(dev.clone()).with_spans(),
        SharpnessParams::default(),
        report.opts,
    )
    .with_tuning(report.tuning);
    let mut plan = pipe.prepared(w, h)?;
    let img = generate::natural(w, h, 2015);
    let executed = plan.run(&img)?;
    if executed.total_s.to_bits() == p.total_s.to_bits() {
        out.push_str(&format!(
            "  self-check: executed {:.6} ms — bit-identical to the prediction\n",
            executed.total_s * 1e3
        ));
    } else {
        return Err(format!(
            "self-check FAILED: predicted {} but executed {} ({}x{} on {})",
            p.total_s, executed.total_s, w, h, dev.name
        ));
    }
    let explanation = sharpness::core::analyze::explain(
        &plan.telemetry(),
        &plan.spans(),
        &dev,
        sharpness::core::analyze::host_streams(w, h, &report.opts, &report.tuning)?,
        sharpness::core::autotune::detected_cache_bytes(),
    );
    out.push_str(&explanation.render(args.top));
    Ok(out)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "--help" || a == "-h") {
        eprint!("{USAGE}");
        std::process::exit(0);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    for &preset in &args.devices {
        for &(w, h) in &args.shapes {
            match run_one(preset, w, h, &args) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_shapes_and_flags() {
        let a = parse_args(&strs(&["640x480", "--device", "apu", "--exhaustive"])).unwrap();
        assert_eq!(a.shapes, vec![(640, 480)]);
        assert_eq!(a.devices, vec![DevicePreset::Apu]);
        assert_eq!(a.mode, SearchMode::Exhaustive);
        assert!(a.execute);
    }

    #[test]
    fn defaults_cover_the_papers_sizes() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.shapes, vec![(256, 256), (1024, 1024), (2048, 2048)]);
        assert_eq!(a.mode, SearchMode::Guided);
    }

    #[test]
    fn rejects_bad_shapes_and_devices() {
        assert!(parse_args(&strs(&["640"])).is_err());
        assert!(parse_args(&strs(&["0x64"])).is_err());
        assert!(parse_args(&strs(&["--device", "vega"])).is_err());
        assert!(parse_args(&strs(&["--bogus"])).is_err());
    }

    #[test]
    fn tune_runs_end_to_end_with_selfcheck() {
        let args = Args {
            shapes: vec![(256, 256)],
            devices: vec![DevicePreset::W8000],
            mode: SearchMode::Guided,
            top: 4,
            execute: true,
        };
        let out = run_one(DevicePreset::W8000, 256, 256, &args).unwrap();
        assert!(out.contains("tune: 256x256 on AMD FirePro W8000"), "{out}");
        assert!(out.contains("bit-identical to the prediction"), "{out}");
        assert!(out.contains("predicted breakdown:"), "{out}");
    }
}
