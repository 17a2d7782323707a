//! The perf ledger: an append-only JSONL history of wall-clock bench runs.
//!
//! `BENCH_<n>.json` snapshots are write-only — each re-run overwrites the
//! last. The ledger keeps the *trajectory*: every self-timed bench run
//! (`megapass_wallclock`, `service_load`, `tune_model`) appends one
//! [`LedgerEntry`] per measured configuration to `baselines/LEDGER.jsonl`
//! (host fingerprint, backend, schedule, frames/s, per-phase span shares),
//! and `perf_ledger --check`
//! compares the newest entry of each series against its history,
//! attributing a regression to the phase whose share of the frame grew.
//!
//! Hand-rolled JSON both ways (no serde in the dependency closure); the
//! parser only promises to read lines this module's emitter wrote.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use sharpness_core::gpu::{GpuPipeline, OptConfig};
use sharpness_core::params::SharpnessParams;
use simgpu::context::Context;
use simgpu::device::DeviceSpec;
use simgpu::span::{aggregate, SpanKind};

use crate::benchjson::esc;

/// One measured configuration appended to the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Unix seconds when the measurement was taken.
    pub ts: u64,
    /// Bench name (`megapass_wallclock`, `service_load`, ...).
    pub bench: String,
    /// Host fingerprint: detected CPU features.
    pub host: String,
    /// Active kernel span backend (`autovec`, `sse2`, `avx2`).
    pub backend: String,
    /// Configuration label (`monolithic`, or a retired label such as
    /// `banded(auto)` or `engine[4]` in older entries).
    pub schedule: String,
    /// Square frame width.
    pub width: usize,
    /// Achieved wall-clock frames per second.
    pub frames_per_s: f64,
    /// Per-phase share of the frame's wall-clock time (0..1), from a
    /// spans-enabled observation frame. Empty when not collected.
    pub phases: Vec<(String, f64)>,
}

impl LedgerEntry {
    /// Stamps an entry with the current time, host fingerprint and active
    /// backend.
    pub fn now(
        bench: &str,
        schedule: &str,
        width: usize,
        frames_per_s: f64,
        phases: Vec<(String, f64)>,
    ) -> Self {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        LedgerEntry {
            ts,
            bench: bench.to_string(),
            host: sharpness_core::simd::host_features().to_string(),
            backend: sharpness_core::simd::active_backend().label().to_string(),
            schedule: schedule.to_string(),
            width,
            frames_per_s,
            phases,
        }
    }

    /// The series key: entries with the same key are comparable runs.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.bench, self.schedule, self.backend, self.width
        )
    }

    /// Renders the entry as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut phases = String::from("{");
        for (i, (name, share)) in self.phases.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            phases.push_str(&format!("\"{}\":{:.6}", esc(name), share));
        }
        phases.push('}');
        format!(
            "{{\"ts\":{},\"bench\":\"{}\",\"host\":\"{}\",\"backend\":\"{}\",\
             \"schedule\":\"{}\",\"width\":{},\"frames_per_s\":{:.6},\"phases\":{}}}",
            self.ts,
            esc(&self.bench),
            esc(&self.host),
            esc(&self.backend),
            esc(&self.schedule),
            self.width,
            self.frames_per_s,
            phases,
        )
    }

    /// Parses a line this module's emitter wrote. Returns `None` for
    /// anything malformed.
    pub fn parse(line: &str) -> Option<LedgerEntry> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let str_field = |key: &str| -> Option<String> {
            let pat = format!("\"{key}\":\"");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let mut out = String::new();
            let mut chars = rest.chars();
            while let Some(c) = chars.next() {
                match c {
                    '"' => return Some(out),
                    '\\' => out.push(chars.next()?),
                    c => out.push(c),
                }
            }
            None
        };
        let num_field = |key: &str| -> Option<f64> {
            let pat = format!("\"{key}\":");
            let start = line.find(&pat)? + pat.len();
            let rest: String = line[start..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
                .collect();
            rest.parse().ok()
        };
        let phases = {
            let pat = "\"phases\":{";
            let mut out = Vec::new();
            if let Some(start) = line.find(pat) {
                let rest = &line[start + pat.len()..];
                let inner = &rest[..rest.find('}')?];
                for pair in inner.split(',').filter(|p| !p.is_empty()) {
                    // rsplit: phase names may themselves contain ':'
                    // (e.g. `megapass:A` in older entries), the share
                    // never does.
                    let (name, share) = pair.rsplit_once(':')?;
                    out.push((name.trim_matches('"').to_string(), share.parse().ok()?));
                }
            }
            out
        };
        Some(LedgerEntry {
            ts: num_field("ts")? as u64,
            bench: str_field("bench")?,
            host: str_field("host")?,
            backend: str_field("backend")?,
            schedule: str_field("schedule")?,
            width: num_field("width")? as usize,
            frames_per_s: num_field("frames_per_s")?,
            phases,
        })
    }
}

/// The committed ledger location, `baselines/LEDGER.jsonl`.
pub fn default_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../baselines/LEDGER.jsonl"
    ))
}

/// Appends entries to the ledger at `path`, creating it if needed.
///
/// # Errors
/// Propagates the underlying I/O error.
pub fn append(path: &Path, entries: &[LedgerEntry]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for e in entries {
        writeln!(f, "{}", e.to_jsonl())?;
    }
    Ok(())
}

/// Loads every parseable entry from the ledger, in file (append) order.
///
/// # Errors
/// Propagates the underlying I/O error; malformed lines are skipped.
pub fn load(path: &Path) -> std::io::Result<Vec<LedgerEntry>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text.lines().filter_map(LedgerEntry::parse).collect())
}

/// Runs one spans-enabled observation frame and returns each depth-1
/// phase's share of the frame's wall-clock time — the attribution data a
/// ledger entry carries. Wall-clock only: the observation frame is *not*
/// part of the timed measurement.
pub fn phase_shares(width: usize) -> Vec<(String, f64)> {
    let img = crate::workload(width);
    let ctx = Context::new(DeviceSpec::firepro_w8000()).with_spans();
    let pipe = GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all());
    let Ok(mut plan) = pipe.prepared(width, width) else {
        return Vec::new();
    };
    let mut out = vec![0.0f32; width * width];
    if plan.run_into(&img, &mut out).is_err() {
        return Vec::new();
    }
    let spans = plan.spans();
    let frame_wall: f64 = spans
        .iter()
        .find(|s| s.kind == SpanKind::Frame)
        .map(|s| s.wall_s())
        .unwrap_or(0.0);
    if frame_wall <= 0.0 {
        return Vec::new();
    }
    aggregate(&spans)
        .into_iter()
        .filter(|a| a.kind == SpanKind::Phase && a.path.matches('/').count() == 1)
        .map(|a| {
            let name = a.path.split('/').next_back().unwrap_or("").to_string();
            (name, a.wall_s / frame_wall)
        })
        .collect()
}

/// The outcome of a history check: the printed report and how many series
/// regressed past the threshold.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The human-readable report.
    pub report: String,
    /// Number of series whose recent window regressed past the threshold.
    pub regressions: usize,
}

/// How many trailing entries form a series' "recent" sample. Comparing the
/// *median* of the last few runs (rather than the single newest entry)
/// keeps one noisy run — a loaded host, a thermal excursion — from flagging
/// a false regression: a real slowdown persists across runs, noise does
/// not. Clamped so at least one entry is always left as history.
pub const RECENT_WINDOW: usize = 3;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Compares the recent window of every series against its history: a
/// series regresses when the median of its last [`RECENT_WINDOW`] entries
/// falls more than `threshold` (a fraction, e.g. `0.25`) below the median
/// of the older entries. The report attributes each regression to the
/// phase whose share of the frame grew the most since the previous run.
pub fn check(entries: &[LedgerEntry], threshold: f64) -> CheckOutcome {
    use std::collections::BTreeMap;
    let mut series: BTreeMap<String, Vec<&LedgerEntry>> = BTreeMap::new();
    for e in entries {
        series.entry(e.key()).or_default().push(e);
    }
    let mut report = String::new();
    let mut regressions = 0;
    for (key, runs) in &series {
        let newest = runs.last().expect("non-empty series");
        if runs.len() == 1 {
            report.push_str(&format!(
                "  {key}: first entry ({:.2} frames/s), no history yet\n",
                newest.frames_per_s
            ));
            continue;
        }
        // Short histories shrink the window so ≥1 history entry remains.
        let k = RECENT_WINDOW.min(runs.len() - 1);
        let recent = median(
            runs[runs.len() - k..]
                .iter()
                .map(|e| e.frames_per_s)
                .collect(),
        );
        let base = median(
            runs[..runs.len() - k]
                .iter()
                .map(|e| e.frames_per_s)
                .collect(),
        );
        let delta = recent / base - 1.0;
        if delta < -threshold {
            regressions += 1;
            // Attribute: which phase's share grew the most vs the prior
            // run that carried phase data?
            let prev = runs[..runs.len() - 1]
                .iter()
                .rev()
                .find(|e| !e.phases.is_empty());
            let culprit = prev.and_then(|p| {
                newest
                    .phases
                    .iter()
                    .map(|(name, share)| {
                        let before = p
                            .phases
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, s)| *s)
                            .unwrap_or(0.0);
                        (name.clone(), share - before, *share)
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1))
            });
            report.push_str(&format!(
                "  REGRESSION {key}: median of last {k} = {recent:.2} frames/s \
                 vs history median {base:.2} ({:+.1}%)\n",
                delta * 100.0
            ));
            match culprit {
                Some((name, grew, share)) if grew > 0.0 => report.push_str(&format!(
                    "    attributed to span `{name}`: share grew {:+.1} points to {:.1}%\n",
                    grew * 100.0,
                    share * 100.0
                )),
                _ => report.push_str("    no span attribution available (no phase data)\n"),
            }
        } else {
            report.push_str(&format!(
                "  ok {key}: median of last {k} = {recent:.2} frames/s \
                 vs history median {base:.2} ({:+.1}%)\n",
                delta * 100.0
            ));
        }
    }
    CheckOutcome {
        report,
        regressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fps: f64, phases: Vec<(String, f64)>) -> LedgerEntry {
        LedgerEntry {
            ts: 1700000000,
            bench: "megapass_wallclock".into(),
            host: "sse2 avx2".into(),
            backend: "avx2".into(),
            schedule: "banded(auto)".into(),
            width: 1024,
            frames_per_s: fps,
            phases,
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let e = entry(
            12.345678,
            vec![("upload".into(), 0.125), ("megapass:A".into(), 0.5)],
        );
        let line = e.to_jsonl();
        let back = LedgerEntry::parse(&line).expect("parses");
        assert_eq!(back, e);
        // Malformed lines are rejected, not mis-parsed.
        assert!(LedgerEntry::parse("").is_none());
        assert!(LedgerEntry::parse("{\"ts\":1}").is_none());
        assert!(LedgerEntry::parse("not json").is_none());
    }

    #[test]
    fn append_and_load_accumulate() {
        let path = std::env::temp_dir().join(format!("ledger-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        append(&path, &[entry(10.0, vec![])]).unwrap();
        append(&path, &[entry(11.0, vec![])]).unwrap();
        let all = load(&path).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].frames_per_s, 11.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_flags_sustained_regression_and_attributes_phase() {
        let healthy = vec![
            entry(10.0, vec![("sobel".into(), 0.2), ("sharpen".into(), 0.3)]),
            entry(10.2, vec![("sobel".into(), 0.2), ("sharpen".into(), 0.3)]),
            entry(9.9, vec![("sobel".into(), 0.21), ("sharpen".into(), 0.3)]),
            entry(10.1, vec![("sobel".into(), 0.2), ("sharpen".into(), 0.3)]),
        ];
        let out = check(&healthy, 0.25);
        assert_eq!(out.regressions, 0, "{}", out.report);
        assert!(out.report.contains("ok "), "{}", out.report);

        // A slowdown persisting across a full recent window flags, and the
        // sobel share keeps growing so the newest-vs-previous attribution
        // names it.
        let mut regressed = healthy.clone();
        for share in [0.4, 0.5, 0.6].into_iter().take(RECENT_WINDOW) {
            regressed.push(entry(
                5.0,
                vec![("sobel".into(), share), ("sharpen".into(), 0.2)],
            ));
        }
        let out = check(&regressed, 0.25);
        assert_eq!(out.regressions, 1, "{}", out.report);
        assert!(out.report.contains("REGRESSION"), "{}", out.report);
        assert!(out.report.contains("span `sobel`"), "{}", out.report);
    }

    #[test]
    fn one_noisy_run_does_not_flag() {
        // Regression test for the false-positive mode: the check used to
        // compare only the single newest entry, so one loaded-host run
        // tripped the gate. The recent-window median absorbs it.
        let mut runs = vec![
            entry(10.0, vec![]),
            entry(10.2, vec![]),
            entry(9.9, vec![]),
            entry(10.1, vec![]),
        ];
        runs.push(entry(5.0, vec![])); // a single outlier
        let out = check(&runs, 0.25);
        assert_eq!(out.regressions, 0, "{}", out.report);
    }

    #[test]
    fn short_histories_shrink_the_window() {
        // Two entries: the window clamps to 1 and the newest is compared
        // against the only prior entry — a real cliff still flags.
        let out = check(&[entry(10.0, vec![]), entry(5.0, vec![])], 0.25);
        assert_eq!(out.regressions, 1, "{}", out.report);
        // Three entries, both recent ones healthy: clean.
        let out = check(
            &[entry(10.0, vec![]), entry(9.9, vec![]), entry(10.1, vec![])],
            0.25,
        );
        assert_eq!(out.regressions, 0, "{}", out.report);
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![7.0]), 7.0);
        assert_eq!(median(vec![1.0, 3.0]), 2.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn check_without_history_is_clean() {
        let out = check(&[entry(10.0, vec![])], 0.25);
        assert_eq!(out.regressions, 0);
        assert!(out.report.contains("no history yet"), "{}", out.report);
    }

    #[test]
    fn phase_shares_cover_the_schedule() {
        let shares = phase_shares(64);
        let names: Vec<&str> = shares.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"upload"), "{names:?}");
        assert!(names.contains(&"sobel"), "{names:?}");
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!(total > 0.0 && total <= 1.5, "total share {total}");
    }
}
