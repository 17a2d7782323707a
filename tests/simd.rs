//! Backend-equivalence tests for the host-SIMD kernel spans.
//!
//! The contract (DESIGN.md §14): the `autovec`, `sse2`, and `avx2` span
//! backends produce bit-identical pixels and `.to_bits()`-identical
//! simulated seconds for every optimization config and ragged shape, and
//! the sanitizer sweeps clean under every backend. Simulated time is
//! commit-order accounting that never observes the host execution
//! strategy, so any drift here is a real bug in a backend, not noise.
//!
//! Backends are process-global (`simd::set_backend`), so every test that
//! flips them holds [`backend_lock`] for its whole body.

use std::sync::{Mutex, MutexGuard, OnceLock};

use imagekit::{generate, ImageF32};
use sharpness_core::cpu::CpuPipeline;
use sharpness_core::gpu::{GpuPipeline, OptConfig};
use sharpness_core::params::SharpnessParams;
use sharpness_core::simd::{self, Backend};
use simgpu::context::Context;
use simgpu::device::DeviceSpec;

fn spec() -> DeviceSpec {
    DeviceSpec::firepro_w8000()
}

/// Serializes tests that force the process-global backend; restores
/// runtime detection when the guard is held (tests set what they need).
fn backend_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    simd::set_backend(None);
    guard
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

/// Every backend worth comparing on this build. Forcing a tier the
/// build/host cannot honour silently degrades (by design), so each entry
/// is what `active_backend` actually resolves it to — deduplicated.
fn backends() -> Vec<Backend> {
    let mut out: Vec<Backend> = Vec::new();
    for b in [Backend::Autovec, Backend::Sse2, Backend::Avx2] {
        simd::set_backend(Some(b));
        let eff = simd::active_backend();
        if !out.contains(&eff) {
            out.push(eff);
        }
    }
    simd::set_backend(None);
    out
}

/// Runs the GPU pipeline with `backend` forced, returning the pixel bits
/// and the simulated-seconds bits (plus sanitizer cleanliness when asked).
fn run_gpu(img: &ImageF32, cfg: OptConfig, backend: Backend, sanitize: bool) -> (Vec<u32>, u64) {
    simd::set_backend(Some(backend));
    let ctx = if sanitize {
        Context::sanitized(spec())
    } else {
        Context::new(spec())
    };
    let report = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), cfg)
        .run(img)
        .expect("pipeline run failed");
    if sanitize {
        let san = ctx.sanitize_report().expect("sanitizer was enabled");
        assert!(
            san.is_clean(),
            "backend {}: {}",
            backend.label(),
            san.summary()
        );
    }
    simd::set_backend(None);
    let bits = report.output.pixels().iter().map(|p| p.to_bits()).collect();
    (bits, report.total_s.to_bits())
}

/// Asserts all backends agree bit-for-bit on `img` under `cfg`.
fn assert_backends_agree(img: &ImageF32, cfg: OptConfig, bits_label: usize, sanitize: bool) {
    let bs = backends();
    let (ref_px, ref_s) = run_gpu(img, cfg, bs[0], sanitize);
    for &b in &bs[1..] {
        let (px, s) = run_gpu(img, cfg, b, sanitize);
        assert_eq!(
            px,
            ref_px,
            "pixels differ: {} vs {}, config bits {bits_label}, {}x{}",
            b.label(),
            bs[0].label(),
            img.width(),
            img.height()
        );
        assert_eq!(
            s,
            ref_s,
            "simulated seconds differ: {} vs {}, config bits {bits_label}",
            b.label(),
            bs[0].label()
        );
    }
}

#[test]
fn all_64_configs_bit_identical_across_backends_small() {
    let _g = backend_lock();
    let img = generate::natural(96, 64, 19);
    for (bits, cfg) in all_configs().into_iter().enumerate() {
        assert_backends_agree(&img, cfg, bits, false);
    }
}

#[test]
fn ragged_shapes_bit_identical_across_backends() {
    let _g = backend_lock();
    // Shapes chosen to hit every tail: odd widths, non-multiples of the
    // 16-wide group, sub-group images, and a width below the span cutoff.
    for (w, h) in [(97, 61), (33, 29), (17, 23), (5, 7), (3, 3), (66, 18)] {
        let img = generate::natural(w, h, 43);
        for (bits, cfg) in [OptConfig::none(), OptConfig::all()]
            .into_iter()
            .enumerate()
        {
            assert_backends_agree(&img, cfg, bits, false);
        }
    }
}

#[test]
fn cpu_reference_bit_identical_across_backends() {
    let _g = backend_lock();
    let img = generate::natural(97, 61, 7);
    let run = |b: Backend| {
        simd::set_backend(Some(b));
        let rep = CpuPipeline::new(SharpnessParams::default())
            .run(&img)
            .unwrap();
        simd::set_backend(None);
        (
            rep.output
                .pixels()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<u32>>(),
            rep.total_s.to_bits(),
        )
    };
    let bs = backends();
    let (ref_px, ref_s) = run(bs[0]);
    for &b in &bs[1..] {
        assert_eq!(run(b), (ref_px.clone(), ref_s), "backend {}", b.label());
    }
}

#[test]
fn forced_and_env_overrides_resolve_to_supported_backends() {
    let _g = backend_lock();
    // Forcing any tier always resolves to something the build supports,
    // and the default build resolves SIMD tiers to autovec.
    for b in [Backend::Autovec, Backend::Sse2, Backend::Avx2] {
        simd::set_backend(Some(b));
        let eff = simd::active_backend();
        if !simd::simd_compiled() {
            assert_eq!(eff, Backend::Autovec);
        }
        assert!(
            simd::simd_compiled() || eff == Backend::Autovec,
            "unsupported backend {} leaked through",
            eff.label()
        );
    }
    simd::set_backend(None);
    // Host feature reporting never panics and always includes the x86-64
    // baseline on x86-64 hosts.
    let feats = simd::host_features();
    if cfg!(target_arch = "x86_64") {
        assert!(feats.contains("sse2"), "{feats}");
    }
}

/// What forcing tier `b` resolves to on this build and host: the tier
/// itself when the `simd` feature is compiled in and the host has it,
/// SSE2 (the x86-64 baseline) for AVX2 on a host without it, autovec
/// without the feature.
fn resolved(b: Backend) -> Backend {
    let avx2 = simd::host_features().split('+').any(|f| f == "avx2");
    match b {
        _ if !simd::simd_compiled() => Backend::Autovec,
        Backend::Avx2 if !avx2 => Backend::Sse2,
        b => b,
    }
}

#[test]
fn forced_backends_are_reported_and_dispatched() {
    let _g = backend_lock();
    for b in [Backend::Autovec, Backend::Sse2, Backend::Avx2] {
        simd::set_backend(Some(b));
        assert_eq!(simd::active_backend(), resolved(b), "forced {}", b.label());
        // The span dispatch reaches that backend's own spans.
        assert_eq!(
            simd::dispatched_backend(),
            resolved(b),
            "forced {}",
            b.label()
        );
    }
    simd::set_backend(None);
}

#[test]
fn env_override_is_reported_by_the_cli() {
    let dir = std::env::temp_dir().join(format!("simd-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.pgm");
    imagekit::io::write_pgm(&input, &generate::natural(24, 16, 3).to_u8()).unwrap();
    let profile = |env: &str, extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sharpen"))
            .arg(&input)
            .arg(dir.join("out.pgm"))
            .arg("--profile")
            .args(extra)
            .env("SHARPEN_SIMD", env)
            .output()
            .unwrap();
        assert!(out.status.success(), "SHARPEN_SIMD={env} {extra:?}");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = text
            .lines()
            .find(|l| l.contains("kernel backend"))
            .unwrap_or_else(|| panic!("no backend line in {text}"))
            .to_string();
        line.split("kernel backend ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap()
            .to_string()
    };
    for (env, tier) in [
        ("scalar", Backend::Autovec),
        ("sse2", Backend::Sse2),
        ("avx2", Backend::Avx2),
    ] {
        assert_eq!(
            profile(env, &[]),
            resolved(tier).label(),
            "SHARPEN_SIMD={env}"
        );
        // `--no-simd` wins over the environment.
        assert_eq!(
            profile(env, &["--no-simd"]),
            "autovec",
            "SHARPEN_SIMD={env}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sanitizer_clean_under_every_backend() {
    let _g = backend_lock();
    let img = generate::natural(64, 64, 11);
    for cfg in [OptConfig::none(), OptConfig::all()] {
        for b in backends() {
            let _ = run_gpu(&img, cfg, b, true);
        }
    }
}

/// The full acceptance sweep: all 64 configs, sanitized, at 256² and the
/// ragged 1001×701, every backend. Heavy — run explicitly with
/// `cargo test -q --features simd --test simd -- --ignored` or
/// `scripts/ci.sh --full`.
#[test]
#[ignore = "full sweep is expensive; run via ci.sh --full"]
fn full_sweep_all_configs_sanitized_across_backends() {
    let _g = backend_lock();
    for (w, h) in [(256, 256), (1001, 701)] {
        let img = generate::natural(w, h, 31);
        for (bits, cfg) in all_configs().into_iter().enumerate() {
            assert_backends_agree(&img, cfg, bits, true);
        }
    }
}
