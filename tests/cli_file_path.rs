//! The CLI's PGM path against the call sequence it replaced.
//!
//! `cli::run` uploads the decoded 8-bit image as it is, lets the
//! sharpening pass write the output plane directly, converts with the exact
//! `to_u8` and computes the input's gradient energy over the 8-bit image.
//! Each test rebuilds the earlier sequence — `read_pgm` → `to_f32` →
//! `GpuPipeline::run(&f32)` → `clamp().round() as u8`, and two f32
//! `gradient_energy` sums — and requires the same PGM bytes and the same
//! summary lines.

use std::path::{Path, PathBuf};

use sharpness::cli;
use sharpness::core::{GpuPipeline, OptConfig, SharpnessParams};
use sharpness::imagekit::{generate, io, metrics, ImageU8};
use sharpness::simgpu::context::Context;
use sharpness::simgpu::device::DeviceSpec;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cli-file-path-{}-{name}", std::process::id()))
}

/// PGM bytes and the two summary lines of the earlier sequence.
fn reference(input: &Path, opts: OptConfig, sanitize: bool) -> (Vec<u8>, String) {
    let img = io::read_pgm(input).unwrap().to_f32();
    let ctx = if sanitize {
        Context::sanitized(DeviceSpec::firepro_w8000())
    } else {
        Context::new(DeviceSpec::firepro_w8000())
    };
    let report = GpuPipeline::new(ctx, SharpnessParams::default(), opts)
        .run(&img)
        .unwrap();
    let (w, h) = (img.width(), img.height());
    let mut pgm = format!("P5\n{w} {h}\n255\n").into_bytes();
    pgm.extend(
        report
            .output
            .pixels()
            .iter()
            .map(|&v| v.clamp(0.0, 255.0).round() as u8),
    );
    let summary = format!(
        "sharpened {w}x{h} grayscale in {:.3} simulated ms\ngradient energy {:.3} -> {:.3}\n",
        report.total_s * 1e3,
        metrics::gradient_energy(&img),
        metrics::gradient_energy(&report.output)
    );
    (pgm, summary)
}

fn run_cli(input: &Path, output: &Path, flags: &[&str]) -> Result<String, String> {
    let mut args = vec![input.display().to_string(), output.display().to_string()];
    args.extend(flags.iter().map(|f| f.to_string()));
    cli::run(&cli::parse_args(&args)?)
}

#[test]
fn pgm_path_writes_the_bytes_and_summary_of_the_f32_sequence() {
    for (w, h) in [(64, 64), (1001, 701), (3, 3)] {
        let input = tmp(&format!("{w}x{h}.pgm"));
        let output = tmp(&format!("{w}x{h}-out.pgm"));
        io::write_pgm(&input, &generate::natural(w, h, 2015).to_u8()).unwrap();
        let cases: [(&[&str], OptConfig, bool); 4] = [
            (&["--opts", "all"], OptConfig::all(), false),
            (&["--opts", "none"], OptConfig::none(), false),
            (&["--sanitize"], OptConfig::all(), true),
            (&["--frames", "3"], OptConfig::all(), false),
        ];
        for (flags, opts, sanitize) in cases {
            let (want_pgm, want_summary) = reference(&input, opts, sanitize);
            let summary = run_cli(&input, &output, flags).unwrap();
            let got = std::fs::read(&output).unwrap();
            assert!(got == want_pgm, "{w}x{h} {flags:?}: PGM bytes differ");
            assert!(
                summary.starts_with(&want_summary),
                "{w}x{h} {flags:?}:\n{summary}\nwanted first:\n{want_summary}"
            );
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }
}

#[test]
fn a_full_output_device_fails_the_call() {
    let full = Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let input = tmp("full-in.pgm");
    io::write_pgm(&input, &ImageU8::from_vec(3, 3, vec![9; 9])).unwrap();
    assert!(run_cli(&input, full, &[]).is_err());
    assert!(run_cli(&input, full, &["--cpu"]).is_err());
    std::fs::remove_file(&input).ok();
}
