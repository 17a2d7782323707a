//! Property-style tests over the pipeline's core invariants.
//!
//! Formerly proptest-based; now driven by a seeded in-tree PRNG
//! (deterministic case sweeps) so the suite builds fully offline. Each
//! test keeps the original invariant and exercises it over a spread of
//! randomised shapes/values.

use imagekit::rng::SplitMix64;
use imagekit::ImageF32;
use sharpness::core::cpu::stages;
use sharpness::core::math;
use sharpness::prelude::*;
use sharpness::simgpu::cost::CostCounters;
use sharpness::simgpu::timing::{bulk_transfer_time, kernel_time};

/// A pipeline-shaped image (dims multiple of 4, 16..=48) with pixel values
/// in the display range, derived from `rng`.
fn rand_image(rng: &mut SplitMix64) -> ImageF32 {
    let w = 4 * (4 + (rng.next_u64() % 9) as usize);
    let h = 4 * (4 + (rng.next_u64() % 9) as usize);
    let data: Vec<f32> = (0..w * h).map(|_| rng.gen_range(0.0, 255.0)).collect();
    ImageF32::from_vec(w, h, data)
}

const CASES: u64 = 24;

#[test]
fn final_output_always_in_display_range() {
    for seed in 0..CASES {
        let img = rand_image(&mut SplitMix64::seed_from_u64(seed));
        let r = CpuPipeline::new(SharpnessParams::default())
            .run(&img)
            .unwrap();
        assert_eq!(
            imagekit::metrics::out_of_range_fraction(&r.output),
            0.0,
            "seed {seed}"
        );
    }
}

#[test]
fn downscale_means_within_block_bounds() {
    for seed in 0..CASES {
        let img = rand_image(&mut SplitMix64::seed_from_u64(seed));
        let (d, _) = stages::downscale(&img);
        let lo = img.pixels().iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = img
            .pixels()
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        for &v in d.pixels() {
            assert!(v >= lo - 1e-3 && v <= hi + 1e-3, "seed {seed}");
        }
    }
}

#[test]
fn upscale_within_downscaled_hull() {
    for seed in 0..CASES {
        let img = rand_image(&mut SplitMix64::seed_from_u64(seed));
        let (d, _) = stages::downscale(&img);
        let (up, _, _) = stages::upscale(&d, img.width(), img.height());
        let lo = d.pixels().iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = d.pixels().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for &v in up.pixels() {
            assert!(v >= lo - 1e-3 && v <= hi + 1e-3, "seed {seed}");
        }
    }
}

#[test]
fn sobel_nonnegative_and_zero_border() {
    for seed in 0..CASES {
        let img = rand_image(&mut SplitMix64::seed_from_u64(seed));
        let (s, _) = stages::sobel(&img);
        let (w, h) = (s.width(), s.height());
        for y in 0..h {
            for x in 0..w {
                let v = s.get(x, y);
                assert!(v >= 0.0, "seed {seed}");
                if x == 0 || y == 0 || x == w - 1 || y == h - 1 {
                    assert_eq!(v, 0.0, "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn sobel_invariant_under_constant_offset() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let img = rand_image(&mut rng);
        let off = rng.gen_range(0.0, 40.0);
        let (s1, _) = stages::sobel(&img);
        let shifted = ImageF32::from_vec(
            img.width(),
            img.height(),
            img.pixels().iter().map(|&v| v + off).collect(),
        );
        let (s2, _) = stages::sobel(&shifted);
        // Gradients of (img + c) equal gradients of img up to f32 error.
        for i in 0..s1.len() {
            assert!(
                (s1.pixels()[i] - s2.pixels()[i]).abs() < 1e-2,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn overshoot_never_exceeds_envelope_by_more_than_osc_fraction() {
    for seed in 0..200 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let prelim = rng.gen_range(-200.0, 500.0);
        let mn = rng.gen_range(0.0, 100.0);
        let span = rng.gen_range(0.0, 150.0);
        let osc = rng.gen_range(0.0, 1.0);
        let mx = mn + span;
        let p = SharpnessParams {
            osc,
            ..SharpnessParams::default()
        };
        let v = math::overshoot(prelim, mn, mx, &p);
        assert!((0.0..=255.0).contains(&v), "seed {seed}");
        // Overshoot past the envelope is at most osc times the excursion.
        if prelim > mx {
            assert!(
                v <= (mx + osc * (prelim - mx)).min(255.0) + 1e-4,
                "seed {seed}"
            );
            assert!(v + 1e-4 >= mx.min(255.0), "seed {seed}");
        } else if prelim < mn {
            assert!(
                v + 1e-4 >= (mn - osc * (mn - prelim)).max(0.0) - 1e-4,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn strength_is_monotone_in_edge() {
    for seed in 0..200 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let e1 = rng.gen_range(0.0, 1000.0);
        let e2 = rng.gen_range(0.0, 1000.0);
        let mean = rng.gen_range(0.0, 500.0);
        let p = SharpnessParams::default();
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        assert!(
            math::strength(lo, mean, &p) <= math::strength(hi, mean, &p) + 1e-6,
            "seed {seed}"
        );
    }
}

#[test]
fn kernel_time_monotone_in_work() {
    let dev = DeviceSpec::firepro_w8000();
    for seed in 0..200 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let base_bytes = 1 + rng.next_u64() % 999_999;
        let extra = rng.next_u64() % 1_000_000;
        let groups = 1 + rng.next_u64() % 9_999;
        let mut a = CostCounters::new();
        a.global_read_scalar = base_bytes;
        a.groups = groups;
        a.group_lanes = 256;
        let mut b = a;
        b.global_read_scalar += extra;
        assert!(
            kernel_time(&dev, &b).total_s >= kernel_time(&dev, &a).total_s,
            "seed {seed}"
        );
    }
}

#[test]
fn transfer_time_monotone_and_superlatency() {
    let t = DeviceSpec::firepro_w8000().transfer;
    for seed in 0..200 {
        let bytes = SplitMix64::seed_from_u64(seed).next_u64() % 100_000_000;
        let cost = bulk_transfer_time(&t, bytes);
        assert!(cost >= t.bulk_latency_s, "seed {seed}");
        assert!(bulk_transfer_time(&t, bytes + 4096) >= cost, "seed {seed}");
    }
}

#[test]
fn padding_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let img = rand_image(&mut rng);
        let replicate = rng.next_u64().is_multiple_of(2);
        let padded = img.padded(2, replicate);
        assert_eq!(padded.cropped(2), img, "seed {seed}");
    }
}
