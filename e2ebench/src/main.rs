//! `bench` — the end-to-end benchmark's command line.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last stdout line is the result
//! bench run [--seed N] [--runs R] [--workload W] [--traced] [--seconds S] [--out F]
//!     R runs of each workload (seeds N, N+1, ...), each in its own child
//!     process, one at a time; writes a result file with a host stamp
//! bench compare A.json B.json
//!     each metric of two result files side by side, judged by its bound
//! ```
//!
//! Files go to `.bench_work/` under the working directory, removed on exit.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use sharpness_e2ebench::json::{self, Value};
use sharpness_e2ebench::results::{self, HostStamp, RunSet};
use sharpness_e2ebench::stats::has_ten_beyond;
use sharpness_e2ebench::workloads::{self, Config, Workload, DEFAULT_SEED};

/// Measurement seconds of one run (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: f64 = 20.0;
/// Cold set-ups per run, each in a fresh process; `setup_s` is their median.
const SETUP_RUNS: usize = 3;

const USAGE: &str = "usage:
  bench --workload W --seed N --seconds S --trace 0|1
  bench run [--seed N] [--runs R] [--workload W] [--traced] [--seconds S] [--out F]
  bench compare A.json B.json
workloads: cli_1024 cli_ragged stream_4096 serve_zipf";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("setup") => cmd_setup(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => cmd_one(&args),
    };
    match res {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Options shared by the subcommands.
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("invalid value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(Workload::parse(value()?)?),
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v.parse().map_err(|_| bad(v))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--traced" => o.traced = true,
            "--runs" => {
                let v = value()?;
                o.runs = v.parse().map_err(|_| bad(v))?;
                if o.runs == 0 {
                    return Err(bad(v));
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

/// A scratch directory under `.bench_work/`, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One run of one workload: cold set-ups in child processes, then the
/// measured run here. Prints the detail line and, last, the driver line.
fn cmd_one(args: &[String]) -> Result<bool, String> {
    let o = parse_opts(args)?;
    let w = o.workload.ok_or("--workload is required")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut setup_s = Vec::with_capacity(SETUP_RUNS);
    for _ in 0..SETUP_RUNS {
        let out = Command::new(&exe)
            .args([
                "setup",
                "--workload",
                w.name(),
                "--seed",
                &o.seed.to_string(),
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let s = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("set-up probe failed: {}", text.trim()))?;
        setup_s.push(s);
    }
    let dir = WorkDir::new(w.name())?;
    let cfg = Config::standard(o.seed, o.seconds, o.traced, dir.0.clone());
    let rec = workloads::run(w, &cfg, &setup_s)?;
    for p in &rec.problems {
        eprintln!("bench: {}: {p}", w.name());
    }
    if let Some(p95) = rec.metrics.iter().find(|m| m.name == "frame_ms.p95") {
        if !has_ten_beyond(p95.n, 0.95) {
            eprintln!(
                "bench: {}: frame_ms.p95 rests on {} samples, fewer than ten beyond it",
                w.name(),
                p95.n
            );
        }
    }
    println!("{}", results::detail_line(&rec));
    println!("{}", results::driver_line(&rec));
    Ok(rec.correct())
}

/// Measures one cold set-up of a workload in this fresh process and prints
/// its seconds.
fn cmd_setup(args: &[String]) -> Result<bool, String> {
    let o = parse_opts(args)?;
    let w = o.workload.ok_or("--workload is required")?;
    let dir = WorkDir::new(&format!("{}-setup", w.name()))?;
    let cfg = Config::standard(o.seed, 0.0, false, dir.0.clone());
    println!("{}", workloads::cold_setup(w, &cfg)?);
    Ok(true)
}

/// Runs each workload `--runs` times, one child process at a time, and
/// writes the result file.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let o = parse_opts(args)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let chosen: Vec<Workload> = match o.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut all_correct = true;
    let mut set = RunSet {
        host: HostStamp::detect(),
        seed: o.seed,
        seconds: o.seconds,
        traced: o.traced,
        workloads: Vec::new(),
    };
    for w in chosen {
        let mut runs = Vec::new();
        for i in 0..o.runs {
            let seed = o.seed.wrapping_add(i as u64);
            eprintln!("bench: {} run {}/{} (seed {seed})", w.name(), i + 1, o.runs);
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &o.seconds.to_string(),
                    "--trace",
                    if o.traced { "1" } else { "0" },
                ])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let detail = text
                .lines()
                .find(|l| l.starts_with("{\"workload\""))
                .ok_or_else(|| format!("{} run printed no result", w.name()))?;
            let v = json::parse(detail)?;
            all_correct &= out.status.success() && v.get("correct") == Some(&Value::Bool(true));
            runs.push(v);
        }
        set.workloads.push((w.name().to_string(), runs));
    }
    print!("{}", results::steadiness_table(&set));
    if let Some(path) = &o.out {
        std::fs::write(path, set.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("bench: wrote {}", path.display());
    }
    if !all_correct {
        eprintln!("bench: some runs failed or produced wrong output");
    }
    Ok(all_correct)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare needs two result files".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = results::compare(&read(a)?, &read(b)?)?;
    print!("{}", results::render_rows(&rows));
    Ok(!rows.iter().any(|r| r.verdict.flagged()))
}
