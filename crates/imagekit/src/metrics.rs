//! Image quality / sharpness metrics.
//!
//! Used by the examples and tests to demonstrate that the pipeline actually
//! sharpens (gradient energy goes up) without blowing up the signal (PSNR
//! against the original stays bounded, overshoot keeps pixels in range).

use crate::image::{ImageF32, ImageU8};

/// Arithmetic mean of all pixels.
pub fn mean(img: &ImageF32) -> f64 {
    if img.is_empty() {
        return 0.0;
    }
    img.pixels().iter().map(|&v| f64::from(v)).sum::<f64>() / img.len() as f64
}

/// Mean squared error between two same-shaped images.
///
/// # Panics
/// If shapes differ.
pub fn mse(a: &ImageF32, b: &ImageF32) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "shape mismatch"
    );
    if a.is_empty() {
        return 0.0;
    }
    a.pixels()
        .iter()
        .zip(b.pixels())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Peak signal-to-noise ratio in dB for 8-bit range, `inf` for identical
/// images.
pub fn psnr(a: &ImageF32, b: &ImageF32) -> f64 {
    let e = mse(a, b);
    if e == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / e).log10()
    }
}

/// Mean absolute gradient (forward differences): a simple sharpness index.
/// Sharpened images score higher than their originals.
pub fn gradient_energy(img: &ImageF32) -> f64 {
    let (w, h) = (img.width(), img.height());
    if w < 2 || h < 2 {
        return 0.0;
    }
    let mut acc = 0.0f64;
    for y in 0..h - 1 {
        for x in 0..w - 1 {
            let v = f64::from(img.get(x, y));
            acc += (f64::from(img.get(x + 1, y)) - v).abs();
            acc += (f64::from(img.get(x, y + 1)) - v).abs();
        }
    }
    acc / ((w - 1) * (h - 1) * 2) as f64
}

/// [`gradient_energy`] of an 8-bit image, with the same bits as
/// `gradient_energy(&img.to_f32())` and no `f32` plane. Every term is an
/// integer of at most 255, so for dimensions up to [`crate::io::MAX_DIM`]
/// each partial sum of the serial f64 order is an integer below 2⁵³ —
/// exact — and summing in integers gives the same total.
pub fn gradient_energy_u8(img: &ImageU8) -> f64 {
    let (w, h) = (img.width(), img.height());
    if w < 2 || h < 2 {
        return 0.0;
    }
    let p = img.pixels();
    let mut acc = 0u64;
    for (row, next) in p.chunks_exact(w).zip(p.chunks_exact(w).skip(1)) {
        // At most 2·255·(MAX_DIM - 1) per row: fits a u32.
        let mut s = 0u32;
        for x in 0..w - 1 {
            s += u32::from(row[x + 1].abs_diff(row[x])) + u32::from(next[x].abs_diff(row[x]));
        }
        acc += u64::from(s);
    }
    acc as f64 / ((w - 1) * (h - 1) * 2) as f64
}

/// Fraction of pixels outside `[0, 255]` (overshoot-control verification:
/// must be zero on final output).
pub fn out_of_range_fraction(img: &ImageF32) -> f64 {
    if img.is_empty() {
        return 0.0;
    }
    let n = img
        .pixels()
        .iter()
        .filter(|&&v| !(0.0..=255.0).contains(&v))
        .count();
    n as f64 / img.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn mean_of_constant() {
        let img = ImageF32::filled(8, 8, 42.0);
        assert!((mean(&img) - 42.0).abs() < 1e-9);
    }

    #[test]
    fn mse_and_psnr_basics() {
        let a = ImageF32::filled(4, 4, 100.0);
        let mut b = a.clone();
        assert_eq!(mse(&a, &b), 0.0);
        assert!(psnr(&a, &b).is_infinite());
        b.set(0, 0, 110.0);
        assert!((mse(&a, &b) - 100.0 / 16.0).abs() < 1e-9);
        assert!(psnr(&a, &b) > 30.0);
    }

    #[test]
    fn gradient_energy_orders_content() {
        let flat = ImageF32::filled(32, 32, 10.0);
        let soft = generate::gradient(32, 32);
        let hard = generate::checkerboard(32, 32, 4);
        assert_eq!(gradient_energy(&flat), 0.0);
        assert!(gradient_energy(&soft) > 0.0);
        assert!(gradient_energy(&hard) > gradient_energy(&soft));
    }

    /// `gradient_energy_u8` against the f32 sum on the widened image.
    fn assert_u8_energy_exact(img: &ImageU8) {
        assert_eq!(
            gradient_energy_u8(img).to_bits(),
            gradient_energy(&img.to_f32()).to_bits(),
            "{}x{}",
            img.width(),
            img.height()
        );
    }

    #[test]
    fn gradient_energy_u8_is_bit_identical_to_the_f32_sum() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(2015);
        let mut random = |w: usize, h: usize, maxval: u64| {
            let px = (0..w * h)
                .map(|_| (rng.next_u64() % (maxval + 1)) as u8)
                .collect();
            ImageU8::from_vec(w, h, px)
        };
        for (w, h) in [
            (1, 9),
            (9, 1),
            (2, 2),
            (3, 3),
            (64, 64),
            (1001, 7),
            (7, 701),
        ] {
            assert_u8_energy_exact(&random(w, h, 255));
        }
        // An image whose samples stay at or below maxval 7.
        assert_u8_energy_exact(&random(97, 61, 7));
        // Worst case: every term is 255.
        let (w, h) = (1024, 256);
        let checker = (0..w * h)
            .map(|i| if (i % w + i / w) % 2 == 0 { 0 } else { 255 })
            .collect();
        assert_u8_energy_exact(&ImageU8::from_vec(w, h, checker));
    }

    #[test]
    fn out_of_range_detects() {
        let mut img = ImageF32::filled(2, 2, 10.0);
        assert_eq!(out_of_range_fraction(&img), 0.0);
        img.set(0, 0, -1.0);
        img.set(1, 1, 300.0);
        assert!((out_of_range_fraction(&img) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_images() {
        let empty = ImageF32::zeros(0, 0);
        assert_eq!(mean(&empty), 0.0);
        let line = ImageF32::filled(5, 1, 9.0);
        assert_eq!(gradient_energy(&line), 0.0);
    }
}
