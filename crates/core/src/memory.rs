//! Device-memory planning for the GPU pipeline.
//!
//! The W8000 carries 4 GiB; a production integration needs to know — per
//! optimization configuration — how much device memory a frame costs and
//! what the largest processable frame is. Kernel fusion (Section V-B)
//! shows up directly here: it removes the pError and preliminary matrices
//! from the footprint, not just their traffic.

use crate::gpu::opts::{OptConfig, Tuning};
use crate::gpu::program;

/// Bytes of device memory one `w × h` frame requires under `opts` with
/// the default tuning: the sum of the frame program's buffer list, so
/// exactly what a plan allocates.
///
/// That is the padded source (plus the raw original in the base transfer
/// mode), downscaled, upscaled, pEdge, final, the reduction partials when
/// the reduction runs on the device (plus the one-element total when
/// stage 2 does), and the pError/preliminary intermediates when fusion is
/// off. Device intermediates live at the vec4-aligned row stride
/// `device_stride(w)`, so widths not a multiple of 4 cost slightly more
/// than `w * h`.
pub fn device_bytes_required(w: usize, h: usize, opts: &OptConfig) -> u64 {
    program::device_bytes(w, h, opts, &Tuning::default())
}

/// Largest square frame width (a multiple of 4) whose pipeline footprint
/// fits in `device_bytes` under `opts`. Returns `None` when not even the
/// 16×16 minimum fits.
pub fn max_square_width(device_bytes: u64, opts: &OptConfig) -> Option<usize> {
    let mut best = None;
    let mut w = 16usize;
    // Footprint is monotone in w; galloping + refinement keeps this exact
    // without probing every multiple of 4.
    while device_bytes_required(w, w, opts) <= device_bytes {
        best = Some(w);
        w *= 2;
    }
    let mut w = best?;
    loop {
        let next = w + 4;
        if device_bytes_required(next, next, opts) > device_bytes {
            return Some(w);
        }
        w = next;
    }
}

/// Frames of a `w × h` stream that fit on the device simultaneously
/// (for double-buffered streaming two are needed).
pub fn frames_resident(device_bytes: u64, w: usize, h: usize, opts: &OptConfig) -> u64 {
    let per = device_bytes_required(w, h, opts);
    device_bytes.checked_div(per).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn fusion_shrinks_footprint() {
        let unfused = OptConfig::none();
        let fused = OptConfig {
            kernel_fusion: true,
            ..OptConfig::none()
        };
        let a = device_bytes_required(1024, 1024, &unfused);
        let b = device_bytes_required(1024, 1024, &fused);
        // Fusion removes two full-size matrices.
        assert_eq!(a - b, 2 * 1024 * 1024 * 4);
    }

    #[test]
    fn data_transfer_opt_drops_the_raw_original() {
        let base = OptConfig::none();
        let dt = OptConfig {
            data_transfer: true,
            ..OptConfig::none()
        };
        let a = device_bytes_required(512, 512, &base);
        let b = device_bytes_required(512, 512, &dt);
        assert_eq!(a - b, 512 * 512 * 4);
    }

    #[test]
    fn footprint_is_monotone_in_size() {
        let opts = OptConfig::all();
        let mut prev = 0;
        for w in [16usize, 64, 256, 1024, 4096] {
            let b = device_bytes_required(w, w, &opts);
            assert!(b > prev);
            prev = b;
        }
    }

    #[test]
    fn w8000_capacity_fits_8k_frames_optimized() {
        // 4 GiB card: an 8192² f32 frame pipeline fits when fully
        // optimized (5 matrices ≈ 1.3 GiB).
        let opts = OptConfig::all();
        assert!(device_bytes_required(8192, 8192, &opts) < 4 * GIB);
        let max = max_square_width(4 * GIB, &opts).unwrap();
        assert!(max >= 8192, "max {max}");
        // The base configuration fits less.
        let max_base = max_square_width(4 * GIB, &OptConfig::none()).unwrap();
        assert!(max_base < max);
    }

    #[test]
    fn max_width_is_exact_boundary() {
        let opts = OptConfig::all();
        let w = max_square_width(64 << 20, &opts).unwrap();
        assert_eq!(w % 4, 0);
        assert!(device_bytes_required(w, w, &opts) <= 64 << 20);
        assert!(device_bytes_required(w + 4, w + 4, &opts) > 64 << 20);
    }

    #[test]
    fn tiny_budget_fits_nothing() {
        assert_eq!(max_square_width(1024, &OptConfig::all()), None);
    }

    #[test]
    fn frames_resident_counts() {
        let opts = OptConfig::all();
        let per = device_bytes_required(1024, 1024, &opts);
        assert_eq!(frames_resident(3 * per, 1024, 1024, &opts), 3);
        assert_eq!(frames_resident(per - 1, 1024, 1024, &opts), 0);
    }
}
