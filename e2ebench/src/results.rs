//! Result lines and files, and the comparison of two result files.
//!
//! A run prints two JSON lines: the detail record (every metric it took,
//! with sample counts and its output hashes) and, last, the driver line
//! (`correct`, `attempted`, `failed` and the declared metrics only). A
//! result file holds several runs of each workload under one host stamp,
//! with each metric's median and quartiles over the runs.

use std::fmt::Write as _;
use std::process::Command;

use crate::json::{self, num, quote, Value};
use crate::metrics::{self, driver_metrics, Better, Report, METRICS};
use crate::stats::{median, quartiles};
use crate::workloads::RunRecord;

/// Schema tag of result files.
pub const SCHEMA: &str = "sharpness-e2ebench/1";

/// Where a result was measured. Results from hosts that differ in core
/// count, CPU features or SIMD backend are not comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// Available parallelism (kernel dispatch uses all of it).
    pub nproc: usize,
    /// CPU features the kernels can use.
    pub cpu_features: String,
    /// The SIMD span backend in effect.
    pub simd_backend: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the measured tree, or `unknown`.
    pub commit: String,
}

impl HostStamp {
    /// Stamps this process's host; the compiler and commit come from
    /// `rustc --version` and `git rev-parse HEAD` (`unknown` when either
    /// is unavailable, as in an exported tree).
    pub fn detect() -> HostStamp {
        let output = |cmd: &mut Command| {
            cmd.output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        // Keep git from searching above the working directory.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.display().to_string()))
            .unwrap_or_default();
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_features: sharpness::core::simd::host_features().to_string(),
            simd_backend: sharpness::core::simd::active_backend().label().to_string(),
            rustc: output(Command::new("rustc").arg("--version")),
            commit: output(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            ),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_features\":{},\"simd_backend\":{},\"rustc\":{},\"commit\":{}}}",
            self.nproc,
            quote(&self.cpu_features),
            quote(&self.simd_backend),
            quote(&self.rustc),
            quote(&self.commit)
        )
    }

    fn from_json(v: &Value) -> Result<HostStamp, String> {
        let s = |k: &str| {
            v.get(k)
                .and_then(Value::str)
                .map(str::to_string)
                .ok_or_else(|| format!("host stamp lacks {k}"))
        };
        Ok(HostStamp {
            nproc: v
                .get("nproc")
                .and_then(Value::num)
                .ok_or("host stamp lacks nproc")? as usize,
            cpu_features: s("cpu_features")?,
            simd_backend: s("simd_backend")?,
            rustc: s("rustc")?,
            commit: s("commit")?,
        })
    }

    /// Whether results measured here and on `other` can be compared.
    pub fn comparable(&self, other: &HostStamp) -> bool {
        (self.nproc, &self.cpu_features, &self.simd_backend)
            == (other.nproc, &other.cpu_features, &other.simd_backend)
    }
}

/// The detail record of one run, as one JSON line.
pub fn detail_line(r: &RunRecord) -> String {
    let mut m = String::new();
    for (i, x) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            m,
            "{sep}{}:{{\"value\":{},\"unit\":{},\"n\":{}}}",
            quote(x.name),
            num(x.value),
            quote(metrics::def(x.name).unit),
            x.n
        );
    }
    let problems: Vec<String> = r.problems.iter().map(|p| quote(p)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"problems\":[{}],\"output_hash\":\"{:#018x}\",\"sim_bits\":\"{:#018x}\",\"metrics\":{{{m}}}}}",
        quote(r.workload.name()),
        r.seed,
        r.traced,
        r.correct(),
        r.attempted,
        r.failed,
        problems.join(","),
        r.output_hash,
        r.sim_bits,
    )
}

/// The driver line of one run: the declared metrics of its level only.
pub fn driver_line(r: &RunRecord) -> String {
    let mut m = String::new();
    for d in driver_metrics(r.traced) {
        let Some(v) = r.get(d.name) else { continue };
        let sep = if m.is_empty() { "" } else { "," };
        let _ = write!(
            m,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            quote(d.name),
            num(v),
            quote(d.unit)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed
    )
}

/// The metric values of a parsed detail record, by name.
fn record_metrics(detail: &Value) -> Vec<(String, f64)> {
    detail
        .get("metrics")
        .and_then(Value::obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
        .collect()
}

/// Several runs of each workload, measured under one host stamp.
pub struct RunSet {
    /// Where the runs were measured.
    pub host: HostStamp,
    /// Seed of the first run of each workload (run `i` uses `seed + i`).
    pub seed: u64,
    /// Measurement seconds per run.
    pub seconds: f64,
    /// Whether the traced pass ran.
    pub traced: bool,
    /// `(workload name, detail records)` in run order.
    pub workloads: Vec<(String, Vec<Value>)>,
}

impl RunSet {
    /// Renders the result file: host stamp, every run's detail record and,
    /// per workload, each metric's median, quartiles and run count.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": {},\n  \"host\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \"workloads\": [",
            quote(SCHEMA),
            self.host.to_json(),
            self.seed,
            num(self.seconds),
            self.traced
        );
        for (wi, (name, runs)) in self.workloads.iter().enumerate() {
            let sep = if wi == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"summary\": {{",
                quote(name)
            );
            for (mi, (metric, s)) in summarise(runs).iter().enumerate() {
                let sep = if mi == 0 { "" } else { "," };
                let _ = write!(
                    out,
                    "{sep}\n      {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    quote(metric),
                    quote(metrics::def(metric).unit),
                    num(s.median),
                    num(s.q1),
                    num(s.q3),
                    s.n
                );
            }
            out.push_str("\n    }, \"runs\": [");
            for (ri, run) in runs.iter().enumerate() {
                let sep = if ri == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\n      {}", render_value(run));
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// A metric's distribution over runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Runs.
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Each metric's median and quartiles over `runs` (parsed detail records),
/// in [`METRICS`] order.
pub fn summarise(runs: &[Value]) -> Vec<(&'static str, Summary)> {
    let per_run: Vec<Vec<(String, f64)>> = runs.iter().map(record_metrics).collect();
    METRICS
        .iter()
        .filter_map(|d| {
            let xs: Vec<f64> = per_run
                .iter()
                .filter_map(|m| m.iter().find(|(k, _)| k == d.name).map(|(_, v)| *v))
                .collect();
            if xs.is_empty() {
                return None;
            }
            let [q1, _, q3] = quartiles(&xs);
            Some((
                d.name,
                Summary {
                    median: median(&xs),
                    q1,
                    q3,
                    n: xs.len(),
                },
            ))
        })
        .collect()
}

/// A human table of a run set: each metric's median, quartiles, run count
/// and spread, marking end-to-end wall metrics whose spread is not below a
/// third of their bound (`setup_s` excepted: its median is what counts).
pub fn steadiness_table(set: &RunSet) -> String {
    let mut out = String::new();
    for (name, runs) in &set.workloads {
        let _ = writeln!(out, "{name}:");
        for (metric, s) in summarise(runs) {
            let d = metrics::def(metric);
            let spread = s.relative_iqr();
            let mark = match d.bound {
                Some(b) if b > 0.0 && d.report == Report::Driver && metric != "setup_s" => {
                    if spread < b / 3.0 {
                        "steady"
                    } else {
                        "NOISY"
                    }
                }
                _ => "",
            };
            let _ = writeln!(
                out,
                "  {metric:<28} {:>14.6} {:<6} q1 {:>14.6} q3 {:>14.6} n {:>3}  spread {:>6.2}% {mark}",
                s.median,
                d.unit,
                s.q1,
                s.q3,
                s.n,
                spread * 100.0
            );
        }
    }
    out
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(x) => num(*x),
        Value::Str(s) => quote(s),
        Value::Arr(xs) => format!(
            "[{}]",
            xs.iter().map(render_value).collect::<Vec<_>>().join(",")
        ),
        Value::Obj(kv) => format!(
            "{{{}}}",
            kv.iter()
                .map(|(k, v)| format!("{}:{}", quote(k), render_value(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// Either side's interquartile range is wider than the bound.
    Unresolved,
    /// A deterministic metric that is not identical.
    Differs,
    /// Present on one side only.
    Missing,
    /// A layer metric: shown, not judged.
    Info,
}

impl Verdict {
    /// Whether this pair breaks the agreement of the two files.
    pub fn flagged(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Improved | Verdict::Differs | Verdict::Missing
        )
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "IMPROVED",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
            Verdict::Missing => "MISSING",
            Verdict::Info => "",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline distribution.
    pub a: Option<Summary>,
    /// Candidate distribution.
    pub b: Option<Summary>,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges candidate `b` against baseline `a` for metric `metric`.
pub fn judge(metric: &str, a: Option<Summary>, b: Option<Summary>) -> Verdict {
    let d = metrics::def(metric);
    let (Some(a), Some(b)) = (a, b) else {
        return if d.bound.is_some() {
            Verdict::Missing
        } else {
            Verdict::Info
        };
    };
    match d.bound {
        None => Verdict::Info,
        Some(0.0) => {
            if a.median.to_bits() == b.median.to_bits() && a.q1 == b.q1 && a.q3 == b.q3 {
                Verdict::Ok
            } else {
                Verdict::Differs
            }
        }
        Some(bound) => {
            if a.relative_iqr() > bound || b.relative_iqr() > bound {
                return Verdict::Unresolved;
            }
            let change = (b.median - a.median) / a.median.abs();
            let worse = match d.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            if worse > bound {
                Verdict::Regressed
            } else if -worse > bound {
                Verdict::Improved
            } else {
                Verdict::Ok
            }
        }
    }
}

/// Compares two result files.
///
/// # Errors
/// On malformed files, or when their host stamps are not comparable.
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<Row>, String> {
    let a = json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let host = |v: &Value| HostStamp::from_json(v.get("host").ok_or("no host stamp")?);
    let (ha, hb) = (host(&a)?, host(&b)?);
    if !ha.comparable(&hb) {
        return Err(format!(
            "host stamps differ, results are not comparable:\n  {}\n  {}",
            ha.to_json(),
            hb.to_json()
        ));
    }
    let workloads = |v: &Value| -> Vec<(String, Vec<(&'static str, Summary)>)> {
        v.get("workloads")
            .and_then(Value::arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| {
                let name = w.get("name")?.str()?.to_string();
                let runs = w.get("runs")?.arr()?;
                Some((name, summarise(runs)))
            })
            .collect()
    };
    let (wa, wb) = (workloads(&a), workloads(&b));
    let mut names: Vec<&String> = wa.iter().map(|(n, _)| n).collect();
    for (n, _) in &wb {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    let find = |set: &[(String, Vec<(&'static str, Summary)>)], w: &str, m: &str| {
        set.iter()
            .find(|(n, _)| n == w)
            .and_then(|(_, s)| s.iter().find(|(k, _)| *k == m).map(|(_, s)| *s))
    };
    let mut rows = Vec::new();
    for w in names {
        for d in METRICS {
            let (sa, sb) = (find(&wa, w, d.name), find(&wb, w, d.name));
            if sa.is_none() && sb.is_none() {
                continue;
            }
            rows.push(Row {
                workload: w.clone(),
                metric: d.name,
                a: sa,
                b: sb,
                verdict: judge(d.name, sa, sb),
            });
        }
    }
    Ok(rows)
}

/// Renders comparison rows side by side.
pub fn render_rows(rows: &[Row]) -> String {
    let cell = |s: Option<Summary>| match s {
        Some(s) => format!(
            "{:>12.5} [{:>12.5}, {:>12.5}] n{:<3}",
            s.median, s.q1, s.q3, s.n
        ),
        None => format!("{:>46}", "-"),
    };
    let mut out = format!(
        "{:<12} {:<28} {:>46} {:>46} {:>8}  verdict\n",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change"
    );
    for r in rows {
        let change = match (r.a, r.b) {
            (Some(a), Some(b)) if a.median != 0.0 => {
                format!("{:+.2}%", (b.median - a.median) / a.median.abs() * 100.0)
            }
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<12} {:<28} {} {} {:>8}  {}",
            r.workload,
            r.metric,
            cell(r.a),
            cell(r.b),
            change,
            r.verdict.label()
        );
    }
    let flagged = rows.iter().filter(|r| r.verdict.flagged()).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    let _ = writeln!(
        out,
        "{flagged} pair(s) differ beyond their bound, {unresolved} unresolved"
    );
    out
}
