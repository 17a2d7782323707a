//! Order statistics of timing samples.
//!
//! `quartiles` reproduces Python's `statistics.quantiles(data, n=4)`
//! (the default "exclusive" method) exactly, so run-to-run spreads read the
//! same here as in any script that checks them.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// If `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-quantile (0 ≤ p ≤ 1) of `xs`, interpolating linearly between
/// the two nearest order statistics.
///
/// # Panics
/// If `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of no samples");
    let pos = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Whether `n` samples leave at least ten samples above the `p`-quantile,
/// the least that makes a tail percentile worth reporting.
pub fn has_ten_beyond(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() >= 10.0
}

/// First, second and third quartile, as `statistics.quantiles(xs, n=4)`.
///
/// # Panics
/// If `xs` is empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return [s[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
