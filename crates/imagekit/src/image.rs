//! Grayscale image matrices in `f32` and `u8`.
//!
//! The sharpness pipeline operates on single-channel brightness matrices
//! (the paper's "original matrix"). Pixels are stored row-major; the `f32`
//! representation is used throughout the compute pipeline, with `u8` as the
//! interchange format at the edges.

/// Row-major single-channel `f32` image.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageF32 {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl ImageF32 {
    /// Creates a zero-filled image.
    pub fn zeros(width: usize, height: usize) -> Self {
        ImageF32 {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates an image filled with `v`.
    pub fn filled(width: usize, height: usize, v: f32) -> Self {
        ImageF32 {
            width,
            height,
            data: vec![v; width * height],
        }
    }

    /// Builds an image from a function of `(x, y)`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        ImageF32 {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major pixel vector.
    ///
    /// # Panics
    /// If `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "pixel count mismatch");
        ImageF32 {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a 0×0 image.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the raw row-major pixels.
    pub fn pixels(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the raw pixels.
    pub fn pixels_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the image, returning its pixel vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Pixel accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Pixel mutator.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Flat index of `(x, y)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize) -> usize {
        y * self.width + x
    }

    /// One row as a slice.
    pub fn row(&self, y: usize) -> &[f32] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Returns a copy surrounded by a `pad`-pixel border.
    ///
    /// `replicate = false` fills the border with zeros (the paper's Sobel
    /// prep); `replicate = true` clamps to the nearest edge pixel (the
    /// paper's padding for overshoot control, where the 3×3 min/max window
    /// must see sensible values).
    pub fn padded(&self, pad: usize, replicate: bool) -> ImageF32 {
        let (w, h) = (self.width + 2 * pad, self.height + 2 * pad);
        ImageF32::from_fn(w, h, |x, y| {
            let inside_x = x >= pad && x < pad + self.width;
            let inside_y = y >= pad && y < pad + self.height;
            if inside_x && inside_y {
                self.get(x - pad, y - pad)
            } else if replicate {
                let cx = x.saturating_sub(pad).min(self.width - 1);
                let cy = y.saturating_sub(pad).min(self.height - 1);
                self.get(cx, cy)
            } else {
                0.0
            }
        })
    }

    /// Extracts the interior of a padded image (inverse of
    /// [`ImageF32::padded`]).
    pub fn cropped(&self, pad: usize) -> ImageF32 {
        assert!(
            self.width > 2 * pad && self.height > 2 * pad,
            "crop larger than image"
        );
        ImageF32::from_fn(self.width - 2 * pad, self.height - 2 * pad, |x, y| {
            self.get(x + pad, y + pad)
        })
    }

    /// Converts to `u8` with clamping to `[0, 255]` and round-to-nearest,
    /// ties away from zero; NaN maps to 0.
    pub fn to_u8(&self) -> ImageU8 {
        ImageU8 {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| to_u8_exact(v)).collect(),
        }
    }

    /// Maximum absolute difference against another image of the same shape.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn max_abs_diff(&self, other: &ImageF32) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

/// `v.clamp(0.0, 255.0).round() as u8`, bit for bit on every `f32`
/// (NaN and ±inf included), without the libm `round` call or a saturating
/// float→int cast. `max` maps NaN to 0. Adding 2²³ to `c ∈ [0, 255]`
/// rounds it to the nearest integer `r`, ties to even, and leaves `r` in
/// the low mantissa bits; `c - r` is exact, and equals 0.5 exactly when a
/// tie went down, which `round` (ties away from zero) takes up.
#[inline]
#[allow(clippy::manual_clamp)] // `clamp` keeps NaN; this must map it to 0.
fn to_u8_exact(v: f32) -> u8 {
    const TWO_23: f32 = 8_388_608.0;
    let c = v.max(0.0).min(255.0);
    let x = c + TWO_23;
    (x.to_bits() as u8) + u8::from(c - (x - TWO_23) >= 0.5)
}

/// Row-major single-channel `u8` image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageU8 {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl ImageU8 {
    /// Creates a zero-filled image.
    pub fn zeros(width: usize, height: usize) -> Self {
        ImageU8 {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Wraps an existing row-major byte vector.
    ///
    /// # Panics
    /// If `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height, "pixel count mismatch");
        ImageU8 {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Borrow of the raw bytes.
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// Pixel accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    /// Converts to `f32` (values stay in `[0, 255]`).
    pub fn to_f32(&self) -> ImageF32 {
        ImageF32 {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f32::from(v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_row_major() {
        let img = ImageF32::from_fn(3, 2, |x, y| (10 * y + x) as f32);
        assert_eq!(img.pixels(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(img.get(2, 1), 12.0);
        assert_eq!(img.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(img.idx(2, 1), 5);
    }

    #[test]
    fn set_and_get() {
        let mut img = ImageF32::zeros(4, 4);
        img.set(1, 2, 5.0);
        assert_eq!(img.get(1, 2), 5.0);
        assert_eq!(img.pixels()[2 * 4 + 1], 5.0);
    }

    #[test]
    fn pad_zero_and_replicate() {
        let img = ImageF32::from_fn(2, 2, |x, y| (1 + x + 2 * y) as f32); // [[1,2],[3,4]]
        let z = img.padded(1, false);
        assert_eq!(z.width(), 4);
        assert_eq!(z.get(0, 0), 0.0);
        assert_eq!(z.get(1, 1), 1.0);
        assert_eq!(z.get(2, 2), 4.0);
        let r = img.padded(1, true);
        assert_eq!(r.get(0, 0), 1.0); // replicated corner
        assert_eq!(r.get(3, 3), 4.0);
        assert_eq!(r.get(0, 2), 3.0); // left edge replicates row value
    }

    #[test]
    fn crop_inverts_pad() {
        let img = ImageF32::from_fn(5, 4, |x, y| (x * y) as f32);
        for replicate in [false, true] {
            assert_eq!(img.padded(2, replicate).cropped(2), img);
        }
    }

    #[test]
    fn u8_roundtrip_and_clamp() {
        let img = ImageF32::from_vec(2, 2, vec![-4.0, 0.4, 254.6, 300.0]);
        let u = img.to_u8();
        assert_eq!(u.pixels(), &[0, 0, 255, 255]);
        let back = u.to_f32();
        assert_eq!(back.get(1, 1), 255.0);
    }

    /// The conversion `to_u8` replaced.
    fn to_u8_libm(v: f32) -> u8 {
        v.clamp(0.0, 255.0).round() as u8
    }

    #[test]
    fn to_u8_matches_clamp_round_on_ties_specials_and_random_bits() {
        let mut probes = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            1e30,
            -1e30,
            f32::MAX,
            f32::MIN,
        ];
        // Every half step over the range, with both f32 neighbours.
        for k in 0..=511u32 {
            let v = k as f32 / 2.0;
            probes.extend([v, v.next_down(), v.next_up()]);
        }
        let mut rng = crate::rng::SplitMix64::seed_from_u64(2015);
        probes.extend((0..1_000_000).map(|_| f32::from_bits(rng.next_u64() as u32)));
        let img = ImageF32::from_vec(probes.len(), 1, probes.clone());
        for (&v, &got) in probes.iter().zip(img.to_u8().pixels()) {
            assert_eq!(got, to_u8_libm(v), "{v:e} (bits {:#010x})", v.to_bits());
        }
    }

    /// All 2³² bit patterns (release: `cargo test --release -p imagekit
    /// -- --ignored`).
    #[test]
    #[ignore]
    fn to_u8_matches_clamp_round_on_every_f32() {
        let mismatches = (0..=u32::MAX)
            .filter(|&b| {
                let v = f32::from_bits(b);
                to_u8_exact(v) != to_u8_libm(v)
            })
            .count();
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn max_abs_diff() {
        let a = ImageF32::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(1, 0, 3.5);
        assert_eq!(a.max_abs_diff(&b), 2.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "pixel count mismatch")]
    fn from_vec_checks_len() {
        let _ = ImageF32::from_vec(2, 2, vec![0.0; 5]);
    }
}
