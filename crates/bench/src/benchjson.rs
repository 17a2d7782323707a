//! Minimal JSON emission for the wall-clock benches.
//!
//! The self-timed benches (`megapass_wallclock`, `span_overhead`) record their measurements in `BENCH_<n>.json` files at the repository
//! root so CI and the README table have machine-readable numbers. The
//! schema is one object per measurement: square image size, schedule
//! label, achieved frames per second, and the speedup over the monolithic
//! reference at the same size. Hand-rolled (no serde in the dependency
//! closure).

use std::fmt::Write as _;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Square image width (pixels).
    pub width: usize,
    /// Human-readable configuration label, e.g. `monolithic` or
    /// `monolithic+spans`.
    pub schedule: String,
    /// Achieved wall-clock frames per second.
    pub frames_per_s: f64,
    /// Throughput relative to the monolithic reference at this size
    /// (1.0 for the reference itself).
    pub speedup_vs_monolithic: f64,
    /// Kernel span backend active during the measurement (`autovec`,
    /// `sse2`, or `avx2`; see [`sharpness_core::simd`]).
    pub backend: String,
}

impl BenchRow {
    /// A row stamped with the currently active kernel backend.
    pub fn with_active_backend(
        width: usize,
        schedule: String,
        frames_per_s: f64,
        speedup_vs_monolithic: f64,
    ) -> Self {
        BenchRow {
            width,
            schedule,
            frames_per_s,
            speedup_vs_monolithic,
            backend: sharpness_core::simd::active_backend().label().to_string(),
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Renders the bench result document. The `host` object records the
/// detected CPU features and whether the explicit-SIMD backend was
/// compiled in, so a committed baseline says what machine produced it.
pub fn render(bench: &str, rows: &[BenchRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"bench\": \"{}\",\n  \"host\": {{\"cpu_features\": \"{}\", \
         \"simd_compiled\": {}}},\n  \"rows\": [",
        esc(bench),
        esc(sharpness_core::simd::host_features()),
        sharpness_core::simd::simd_compiled(),
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"width\": {}, \"schedule\": \"{}\", \"backend\": \"{}\", \
             \"frames_per_s\": {:.6}, \"speedup_vs_monolithic\": {:.4}}}",
            r.width,
            esc(&r.schedule),
            esc(&r.backend),
            r.frames_per_s,
            r.speedup_vs_monolithic
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the bench result document to `path`.
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn write(path: &str, bench: &str, rows: &[BenchRow]) -> std::io::Result<()> {
    std::fs::write(path, render(bench, rows))
}

/// One offered load measured by the service bench (`BENCH_9_service.json`
/// schema): outcome counters, wall + simulated latency quantiles, and the
/// speedup over serving the same stream with per-request plan
/// preparation (no cache, no coalescing).
#[derive(Debug, Clone)]
pub struct ServiceRow {
    /// Offered-load label, e.g. `gap=500us`.
    pub label: String,
    /// Requests in the offered stream.
    pub requests: u64,
    /// Requests served / admitted-then-queued-at-peak / shed.
    pub served: u64,
    /// High-water mark of queued requests.
    pub peak_queued: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Batches executed (and how many requests rode along).
    pub batches: u64,
    /// Wall-clock served frames per second.
    pub frames_per_s: f64,
    /// Speedup over the per-request-plan-preparation baseline on the same
    /// stream (the number batching must keep above 1.0).
    pub speedup_vs_unbatched: f64,
    /// Wall service latency p50/p99, milliseconds.
    pub wall_p50_ms: f64,
    /// See `wall_p50_ms`.
    pub wall_p99_ms: f64,
    /// Simulated arrival→completion latency p50/p99, milliseconds.
    pub sim_p50_ms: f64,
    /// See `sim_p50_ms`.
    pub sim_p99_ms: f64,
    /// Kernel span backend active during the measurement.
    pub backend: String,
}

/// Renders the service bench document (same host header as [`render`],
/// service-schema rows).
pub fn render_service(bench: &str, rows: &[ServiceRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"bench\": \"{}\",\n  \"host\": {{\"cpu_features\": \"{}\", \
         \"simd_compiled\": {}}},\n  \"rows\": [",
        esc(bench),
        esc(sharpness_core::simd::host_features()),
        sharpness_core::simd::simd_compiled(),
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"load\": \"{}\", \"requests\": {}, \"served\": {}, \
             \"queued_peak\": {}, \"shed\": {}, \"batches\": {}, \
             \"frames_per_s\": {:.6}, \"speedup_vs_unbatched\": {:.4}, \
             \"wall_p50_ms\": {:.6}, \"wall_p99_ms\": {:.6}, \
             \"sim_p50_ms\": {:.6}, \"sim_p99_ms\": {:.6}, \"backend\": \"{}\"}}",
            esc(&r.label),
            r.requests,
            r.served,
            r.peak_queued,
            r.shed,
            r.batches,
            r.frames_per_s,
            r.speedup_vs_unbatched,
            r.wall_p50_ms,
            r.wall_p99_ms,
            r.sim_p50_ms,
            r.sim_p99_ms,
            esc(&r.backend),
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the service bench document to `path`.
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn write_service(path: &str, bench: &str, rows: &[ServiceRow]) -> std::io::Result<()> {
    std::fs::write(path, render_service(bench, rows))
}

/// One `(device, shape)` measurement of the model-based schedule tuner
/// (`BENCH_10.json` schema): what the search picked, how fast it walked
/// the space, whether the guided walk agreed with the exhaustive one,
/// and the simulated speedup of the tuned schedule over the paper's
/// hand-tuned default.
#[derive(Debug, Clone)]
pub struct TuneRow {
    /// Device preset name the candidates were costed on.
    pub device: String,
    /// Image width the search tuned for.
    pub width: usize,
    /// Image height the search tuned for.
    pub height: usize,
    /// Winning flag set, e.g. `kf+red+vec+oth`.
    pub flags: String,
    /// Winning reduction strategy label.
    pub strategy: String,
    /// Candidates the exhaustive walk evaluated.
    pub candidates: usize,
    /// Wall-clock candidates per second of the exhaustive walk.
    pub candidates_per_s: f64,
    /// Wall-clock microseconds per candidate (the ≤ 1000 us budget).
    pub us_per_candidate: f64,
    /// Whether the guided walk's predicted seconds are `.to_bits()`-equal
    /// to the exhaustive argmin's.
    pub guided_agrees: bool,
    /// Simulated speedup of the tuned schedule over the paper default
    /// (`OptConfig::all()` + `Tuning::default()`); deterministic.
    pub speedup_vs_default: f64,
}

/// Renders the tuner bench document (same host header as [`render`],
/// tuner-schema rows).
pub fn render_tune(bench: &str, rows: &[TuneRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"bench\": \"{}\",\n  \"host\": {{\"cpu_features\": \"{}\", \
         \"simd_compiled\": {}}},\n  \"rows\": [",
        esc(bench),
        esc(sharpness_core::simd::host_features()),
        sharpness_core::simd::simd_compiled(),
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"device\": \"{}\", \"width\": {}, \"height\": {}, \
             \"flags\": \"{}\", \"strategy\": \"{}\", \"candidates\": {}, \
             \"candidates_per_s\": {:.1}, \"us_per_candidate\": {:.3}, \
             \"guided_agrees\": {}, \"speedup_vs_default\": {:.4}}}",
            esc(&r.device),
            r.width,
            r.height,
            esc(&r.flags),
            esc(&r.strategy),
            r.candidates,
            r.candidates_per_s,
            r.us_per_candidate,
            r.guided_agrees,
            r.speedup_vs_default,
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the tuner bench document to `path`.
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn write_tune(path: &str, bench: &str, rows: &[TuneRow]) -> std::io::Result<()> {
    std::fs::write(path, render_tune(bench, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_schema() {
        let rows = vec![
            BenchRow {
                width: 1024,
                schedule: "monolithic".into(),
                frames_per_s: 12.5,
                speedup_vs_monolithic: 1.0,
                backend: "autovec".into(),
            },
            BenchRow {
                width: 1024,
                schedule: "monolithic+spans".into(),
                frames_per_s: 15.0,
                speedup_vs_monolithic: 1.2,
                backend: "avx2".into(),
            },
        ];
        let doc = render("megapass_wallclock", &rows);
        assert!(doc.contains("\"bench\": \"megapass_wallclock\""));
        assert!(doc.contains("\"host\": {\"cpu_features\": \""), "{doc}");
        assert!(doc.contains("\"simd_compiled\": "), "{doc}");
        assert!(doc.contains("\"width\": 1024"));
        assert!(doc.contains("\"schedule\": \"monolithic+spans\""));
        assert!(doc.contains("\"backend\": \"avx2\""));
        assert!(doc.contains("\"speedup_vs_monolithic\": 1.2000"));
        // Balanced braces/brackets — crude well-formedness check.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn escapes_quotes() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn renders_valid_tune_schema() {
        let rows = vec![TuneRow {
            device: "FirePro W8000".into(),
            width: 1001,
            height: 701,
            flags: "kf+red+vec+oth".into(),
            strategy: "UnrollOne".into(),
            candidates: 768,
            candidates_per_s: 5000.0,
            us_per_candidate: 200.0,
            guided_agrees: true,
            speedup_vs_default: 1.101,
        }];
        let doc = render_tune("tune_model", &rows);
        assert!(doc.contains("\"bench\": \"tune_model\""));
        assert!(doc.contains("\"device\": \"FirePro W8000\""));
        assert!(doc.contains("\"guided_agrees\": true"));
        assert!(doc.contains("\"speedup_vs_default\": 1.1010"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn renders_valid_service_schema() {
        let rows = vec![
            ServiceRow {
                label: "gap=2000us".into(),
                requests: 256,
                served: 256,
                peak_queued: 4,
                shed: 0,
                batches: 90,
                frames_per_s: 400.0,
                speedup_vs_unbatched: 1.35,
                wall_p50_ms: 1.8,
                wall_p99_ms: 4.2,
                sim_p50_ms: 2.1,
                sim_p99_ms: 9.7,
                backend: "avx2".into(),
            },
            ServiceRow {
                label: "gap=125us".into(),
                requests: 256,
                served: 190,
                peak_queued: 61,
                shed: 66,
                batches: 40,
                frames_per_s: 520.0,
                speedup_vs_unbatched: 1.6,
                wall_p50_ms: 1.5,
                wall_p99_ms: 3.9,
                sim_p50_ms: 14.0,
                sim_p99_ms: 80.0,
                backend: "avx2".into(),
            },
        ];
        let doc = render_service("service_load", &rows);
        assert!(doc.contains("\"bench\": \"service_load\""));
        assert!(doc.contains("\"host\": {\"cpu_features\": \""), "{doc}");
        assert!(doc.contains("\"load\": \"gap=125us\""));
        assert!(doc.contains("\"shed\": 66"));
        assert!(doc.contains("\"speedup_vs_unbatched\": 1.3500"));
        assert!(doc.contains("\"sim_p99_ms\": 80.000000"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count(), "{doc}");
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}
