//! The four workloads: each drives one layer stack of the system from
//! outside, through its public functions, and checks every output.
//!
//! | workload      | operation                                        | loop              |
//! |---------------|--------------------------------------------------|-------------------|
//! | `cli_1024`    | `sharpness::cli::run` on a 1024² PGM             | closed, 1 caller  |
//! | `cli_ragged`  | the same on a 1001×701 PGM                       | closed, 1 caller  |
//! | `stream_4096` | `PipelinePlan::run_into` on one 4096² frame      | closed, 1 caller  |
//! | `serve_zipf`  | `SharpenService::serve` over a 2048-request Zipf | open, simulated   |
//!
//! Why these four: the two CLI workloads carry decode, conversions,
//! fresh device allocation and the summary pass that `stream_4096` never
//! runs, and the ragged shape exercises the stride padding and scalar
//! tails that an aligned shape skips; `stream_4096` is the allocation- and
//! I/O-free steady state whose working set is far beyond the LLC, where
//! kernels and transfer copies are the whole cost; `serve_zipf` runs many
//! small mixed shapes near saturation, so the plan cache, coalescing,
//! admission and per-request fixed costs are exercised and kernels are a
//! minor share.

use std::collections::btree_map::{BTreeMap, Entry};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sharpness::cli;
use sharpness::core::gpu::PipelinePlan;
use sharpness::core::service::{
    generate_requests, Request, ServiceConfig, ServiceReport, SharpenService, TrafficConfig,
};
use sharpness::core::{CpuPipeline, GpuPipeline, OptConfig, SharpnessParams};
use sharpness::imagekit::{generate, io, metrics as quality, ImageF32, ImageU8};
use sharpness::simgpu::context::Context;
use sharpness::simgpu::device::DeviceSpec;
use sharpness::simgpu::pool::PoolStats;
use sharpness::simgpu::span::{self, SpanRecord};

use crate::expected;
use crate::stats::{median, percentile};
use crate::Fnv;

/// The seed the stored output hashes were recorded with.
pub const DEFAULT_SEED: u64 = 2015;
/// Requests in the `serve_zipf` stream.
pub const SERVE_REQUESTS: usize = 2048;
/// Mean simulated inter-arrival gap of the `serve_zipf` stream: near
/// saturation on the modelled W8000, so about a third is shed.
pub const SERVE_MEAN_GAP_S: f64 = 400e-6;
/// Leading requests of the stream replayed with `keep_outputs` and checked
/// pixel by pixel against direct execution.
pub const SERVE_CHECKED_PREFIX: usize = 512;
/// Leading requests of the stream the traced pass decomposes layer by layer.
pub const SERVE_PROBED_PREFIX: usize = 128;
/// Passes the traced pass makes over the probed requests.
const PROBE_PASSES: usize = 5;
/// Largest difference allowed between a GPU pixel and the CPU reference
/// (the repository's own equivalence tests use the same 0.05).
const CPU_TOLERANCE: f32 = 0.05;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The CLI file path on a 1024² PGM.
    Cli1024,
    /// The CLI file path on a 1001×701 PGM.
    CliRagged,
    /// A prepared plan run on one 4096² frame, over and over.
    Stream4096,
    /// The sharpen service replaying a Zipf-shaped request stream.
    ServeZipf,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Cli1024,
        Workload::CliRagged,
        Workload::Stream4096,
        Workload::ServeZipf,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cli1024 => "cli_1024",
            Workload::CliRagged => "cli_ragged",
            Workload::Stream4096 => "stream_4096",
            Workload::ServeZipf => "serve_zipf",
        }
    }

    /// Looks a workload up by name.
    ///
    /// # Errors
    /// On an unknown name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    /// Frame shape of the image workloads.
    ///
    /// # Panics
    /// For `serve_zipf`, which mixes shapes.
    fn shape(self) -> (usize, usize) {
        match self {
            Workload::Cli1024 => (1024, 1024),
            Workload::CliRagged => (1001, 701),
            Workload::Stream4096 => (4096, 4096),
            Workload::ServeZipf => panic!("serve_zipf has no single frame shape"),
        }
    }
}

/// How one run is measured.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Wall seconds of measurement. A traced run spends the first half on
    /// the untraced timing and the second half on the traced pass.
    pub seconds: f64,
    /// Add the traced per-layer pass.
    pub traced: bool,
    /// Requests in the `serve_zipf` stream.
    pub serve_requests: usize,
    /// Scratch directory for input and output files.
    pub dir: PathBuf,
}

impl Config {
    /// The benchmark's configuration for `seed`.
    pub fn standard(seed: u64, seconds: f64, traced: bool, dir: PathBuf) -> Config {
        Config {
            seed,
            seconds,
            traced,
            serve_requests: SERVE_REQUESTS,
            dir,
        }
    }

    fn untraced_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Whether stored hashes exist for this run's inputs.
    fn has_expected(&self) -> bool {
        self.seed == DEFAULT_SEED && self.serve_requests == SERVE_REQUESTS
    }
}

/// One measured metric of a run: its value and how many samples it
/// summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name (see [`crate::metrics::METRICS`]).
    pub name: &'static str,
    /// Value in the metric's unit.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// Everything one run of one workload measured and checked.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Whether the traced pass ran.
    pub traced: bool,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
    /// Measured metrics, in the order they were taken.
    pub metrics: Vec<Measured>,
    /// Hash of the checked output (the first operation's; for `serve_zipf`
    /// the kept-output replay's).
    pub output_hash: u64,
    /// Bits of the simulated frame time (`serve_zipf`: the hash of the
    /// replay's deterministic counters).
    pub sim_bits: u64,
}

impl RunRecord {
    fn new(workload: Workload, cfg: &Config) -> RunRecord {
        RunRecord {
            workload,
            seed: cfg.seed,
            traced: cfg.traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            output_hash: 0,
            sim_bits: 0,
        }
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The value of metric `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.push(Measured { name, value, n });
    }

    fn push_ms(&mut self, name: &'static str, seconds: &[f64]) {
        if !seconds.is_empty() {
            self.push(name, median(seconds) * 1e3, seconds.len());
        }
    }

    /// Pushes the wall-time end-to-end metrics for per-operation samples
    /// in seconds.
    fn push_latency(&mut self, op_s: &[f64]) {
        self.push("frame_ms.p50", median(op_s) * 1e3, op_s.len());
        self.push("frame_ms.p95", percentile(op_s, 0.95) * 1e3, op_s.len());
    }

    /// [`RunRecord::push_latency`] plus the throughput of a closed loop:
    /// operations per second of timed wall time.
    fn push_closed_loop(&mut self, op_s: &[f64]) {
        self.push_latency(op_s);
        let busy: f64 = op_s.iter().sum();
        self.push("frames_per_s", op_s.len() as f64 / busy, op_s.len());
    }

    /// Counts an operation that returned an error.
    fn failed_op(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(what);
    }

    /// An output that differs from the reference makes every operation
    /// wrong: each one matched the first.
    fn reference_mismatch(&mut self, what: String) {
        self.problems.push(what);
        self.failed = self.attempted;
    }
}

/// Compares each operation's output hash with the first one's.
struct SameAsFirst {
    first: Option<u64>,
}

impl SameAsFirst {
    fn check(&mut self, rec: &mut RunRecord, hash: u64) {
        rec.attempted += 1;
        match self.first {
            None => self.first = Some(hash),
            Some(h) if h == hash => {}
            Some(h) => {
                rec.failed += 1;
                rec.problems.push(format!(
                    "operation {} output hash {hash:#018x} differs from the first ({h:#018x})",
                    rec.attempted
                ));
            }
        }
    }
}

/// Calls `op` until `seconds` of wall time have passed, at least `min`
/// times.
fn repeat_for(
    seconds: f64,
    min: usize,
    mut op: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        op()?;
        n += 1;
    }
    Ok(())
}

fn w8000_pipeline(ctx: Context) -> GpuPipeline {
    GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all())
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The input frame of an image workload: a `natural` composite (lighting
/// blobs, texture, hard edges) at the workload's shape.
///
/// # Panics
/// For `serve_zipf`, whose inputs are [`serve_requests`].
pub fn input_frame(w: Workload, seed: u64) -> ImageF32 {
    let (width, height) = w.shape();
    generate::natural(width, height, seed)
}

/// The request stream of `serve_zipf`: the default 8-shape Zipf catalog
/// with bursty arrivals `SERVE_MEAN_GAP_S` apart on average.
pub fn serve_requests(seed: u64, requests: usize) -> Vec<Request> {
    generate_requests(&TrafficConfig {
        requests,
        seed,
        mean_gap_s: SERVE_MEAN_GAP_S,
        ..TrafficConfig::default()
    })
}

/// The hash one CLI call is checked by: its output file and summary text.
pub fn cli_output_hash(output: &[u8], summary: &str) -> u64 {
    Fnv::new().bytes(output).bytes(summary.as_bytes()).finish()
}

/// Writes the workload's input PGM, returning its path, the image and
/// the seconds `generate::natural` took.
fn write_input(dir: &Path, w: Workload, seed: u64) -> Result<(PathBuf, ImageU8, f64), String> {
    let t = Instant::now();
    let img = input_frame(w, seed);
    let gen_s = t.elapsed().as_secs_f64();
    let img = img.to_u8();
    let path = dir.join("in.pgm");
    io::write_pgm(&path, &img).map_err(|e| e.to_string())?;
    Ok((path, img, gen_s))
}

/// Deletes a previous output so the next write creates the file afresh, as
/// a CLI user writing a new file does. Overwriting in place instead makes
/// ext4 flush the old blocks on close (`auto_da_alloc`), which costs tens
/// of milliseconds and would dominate a 1024² call.
fn remove_output(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

fn cli_args(input: &Path, output: &Path) -> Result<cli::CliArgs, String> {
    cli::parse_args(&[input.display().to_string(), output.display().to_string()])
}

fn service(ctx: Context, keep_outputs: bool) -> SharpenService {
    SharpenService::new(
        w8000_pipeline(ctx),
        ServiceConfig {
            keep_outputs,
            ..ServiceConfig::default()
        },
    )
}

/// Time from the start of the program's work to the end of its first
/// operation, in this (fresh) process: the CLI's first file, the stream's
/// context, plan and first frame, the service's construction and first
/// replay. Inputs are made before the clock starts.
///
/// # Errors
/// When the operation fails.
pub fn cold_setup(w: Workload, cfg: &Config) -> Result<f64, String> {
    match w {
        Workload::Cli1024 | Workload::CliRagged => {
            let (input, _, _) = write_input(&cfg.dir, w, cfg.seed)?;
            let args = cli_args(&input, &cfg.dir.join("out.pgm"))?;
            let t = Instant::now();
            cli::run(&args)?;
            Ok(t.elapsed().as_secs_f64())
        }
        Workload::Stream4096 => {
            let frame = input_frame(w, cfg.seed);
            let mut out = vec![0.0f32; frame.len()];
            let t = Instant::now();
            let mut plan = w8000_pipeline(Context::new(DeviceSpec::firepro_w8000()))
                .prepared(frame.width(), frame.height())?;
            plan.run_into(&frame, &mut out)?;
            Ok(t.elapsed().as_secs_f64())
        }
        Workload::ServeZipf => {
            let requests = serve_requests(cfg.seed, cfg.serve_requests);
            let t = Instant::now();
            service(Context::new(DeviceSpec::firepro_w8000()), false).serve(&requests)?;
            Ok(t.elapsed().as_secs_f64())
        }
    }
}

/// Runs workload `w` once: untimed warm-up, timed loop, output checks,
/// and the traced pass when asked. `setup_s` are cold set-up times
/// measured in fresh processes (see [`cold_setup`]).
///
/// # Errors
/// When the inputs cannot be prepared; failed operations are counted in
/// the record instead.
pub fn run(w: Workload, cfg: &Config, setup_s: &[f64]) -> Result<RunRecord, String> {
    let mut rec = RunRecord::new(w, cfg);
    match w {
        Workload::Cli1024 | Workload::CliRagged => run_cli(w, cfg, &mut rec)?,
        Workload::Stream4096 => run_stream(cfg, &mut rec)?,
        Workload::ServeZipf => run_serve(cfg, &mut rec)?,
    }
    if !setup_s.is_empty() {
        rec.push("setup_s", median(setup_s), setup_s.len());
    }
    let attempted = rec.attempted.max(1);
    rec.push(
        "failed_frac",
        rec.failed as f64 / attempted as f64,
        attempted as usize,
    );
    Ok(rec)
}

fn run_cli(w: Workload, cfg: &Config, rec: &mut RunRecord) -> Result<(), String> {
    let (input, input_u8, gen_s) = write_input(&cfg.dir, w, cfg.seed)?;
    let output = cfg.dir.join("out.pgm");
    let args = cli_args(&input, &output)?;
    let mut same = SameAsFirst { first: None };
    let mut first_output = Vec::new();
    // Reused across calls, so checking adds no allocator churn of its own
    // between the timed calls.
    let mut bytes = Vec::new();
    let mut op_s = Vec::new();
    let mut one = |rec: &mut RunRecord, timed: bool| -> Result<(), String> {
        remove_output(&output)?;
        let t = Instant::now();
        let res = cli::run(&args);
        let wall = t.elapsed().as_secs_f64();
        match res.and_then(|summary| {
            bytes.clear();
            std::fs::File::open(&output)
                .and_then(|mut f| f.read_to_end(&mut bytes))
                .map_err(|e| e.to_string())?;
            Ok(summary)
        }) {
            Ok(summary) => {
                let hash = cli_output_hash(&bytes, &summary);
                same.check(rec, hash);
                if first_output.is_empty() {
                    first_output = bytes.clone();
                    rec.output_hash = hash;
                }
            }
            Err(e) => rec.failed_op(format!("cli::run failed: {e}")),
        }
        if timed {
            op_s.push(wall);
        }
        Ok(())
    };
    one(rec, false)?;
    repeat_for(cfg.untraced_seconds(), 1, || one(rec, true))?;
    rec.push_closed_loop(&op_s);
    rec.push("peak_rss_mib", peak_rss_mib()?, 1);

    // The traced pass follows the timed loop directly, so the allocator is
    // in the state repeated CLI calls leave it in.
    if cfg.traced {
        let budget = cfg.seconds / 2.0;
        let mut files = FileProbe::default();
        let probe_out = cfg.dir.join("probe.pgm");
        repeat_for(budget * 0.5, 1, || files.once(&input, &probe_out))?;
        let plan = PlanProbe::measure(&input_u8.to_f32(), budget * 0.5)?;
        let untraced = median(&op_s);
        rec.push("gen.natural_ms", gen_s * 1e3, 1);
        for (name, v) in files.layers() {
            rec.push_ms(name, v);
        }
        plan.push(rec, median(&files.run));
        let layers: f64 = files.layers().iter().map(|(_, v)| median(v)).sum();
        rec.push("trace.coverage", layers / untraced, files.run.len());
        rec.push(
            "trace.overhead_frac",
            median(&files.total) / untraced - 1.0,
            files.total.len(),
        );
    }

    // References: the library call the CLI wraps must give the same bytes
    // and the simulated time; the CPU pipeline bounds the pixels.
    let input_f32 = input_u8.to_f32();
    let gpu = w8000_pipeline(Context::new(DeviceSpec::firepro_w8000())).run(&input_f32)?;
    rec.sim_bits = (gpu.total_s * 1e3).to_bits();
    rec.push("sim_ms", gpu.total_s * 1e3, 1);
    match decode_pgm(&first_output) {
        Err(e) => rec.reference_mismatch(format!("CLI output is not a valid PGM: {e}")),
        Ok(img) if img.pixels() != gpu.output.to_u8().pixels() => rec.reference_mismatch(
            "CLI output differs from GpuPipeline::run on the same input".to_string(),
        ),
        Ok(img) => {
            let cpu = CpuPipeline::new(SharpnessParams::default()).run(&input_f32)?;
            if let Some(i) = beyond_tolerance(img.pixels(), &cpu.output) {
                rec.reference_mismatch(format!(
                    "CLI output pixel {i} is {} but the CPU reference gives {}",
                    img.pixels()[i],
                    cpu.output.pixels()[i]
                ));
            }
        }
    }
    check_expected(w, cfg, rec);
    Ok(())
}

fn run_stream(cfg: &Config, rec: &mut RunRecord) -> Result<(), String> {
    let t = Instant::now();
    let frame = input_frame(Workload::Stream4096, cfg.seed);
    let (width, height) = (frame.width(), frame.height());
    let gen_s = t.elapsed().as_secs_f64();
    let mut out = vec![0.0f32; frame.len()];
    let mut plan =
        w8000_pipeline(Context::new(DeviceSpec::firepro_w8000())).prepared(width, height)?;
    let mut same = SameAsFirst { first: None };
    let mut sim_s = None;
    let mut op_s = Vec::new();
    let mut one = |rec: &mut RunRecord, timed: bool| -> Result<(), String> {
        let t = Instant::now();
        let res = plan.run_into(&frame, &mut out);
        let wall = t.elapsed().as_secs_f64();
        match res {
            Ok(c) => {
                let hash = Fnv::new().f32s(&out).u64(c.total().to_bits()).finish();
                same.check(rec, hash);
                if sim_s.is_none() {
                    rec.output_hash = Fnv::new().f32s(&out).finish();
                    sim_s = Some(c.total());
                }
            }
            Err(e) => rec.failed_op(format!("run_into failed: {e}")),
        }
        if timed {
            op_s.push(wall);
        }
        Ok(())
    };
    one(rec, false)?;
    repeat_for(cfg.untraced_seconds(), 1, || one(rec, true))?;
    rec.push_closed_loop(&op_s);
    rec.push("peak_rss_mib", peak_rss_mib()?, 1);
    drop(plan);

    // Every frame matched the first, so the last one stands for all.
    if let Some(sim_s) = sim_s {
        rec.sim_bits = (sim_s * 1e3).to_bits();
        rec.push("sim_ms", sim_s * 1e3, 1);
        let cpu = CpuPipeline::new(SharpnessParams::default()).run(&frame)?;
        let diff = ImageF32::from_vec(width, height, out).max_abs_diff(&cpu.output);
        if diff.is_nan() || diff >= CPU_TOLERANCE {
            rec.reference_mismatch(format!(
                "stream output differs from the CPU reference by {diff}"
            ));
        }
    }
    check_expected(Workload::Stream4096, cfg, rec);

    if cfg.traced {
        let budget = cfg.seconds / 2.0;
        let input = cfg.dir.join("in.pgm");
        io::write_pgm(&input, &frame.to_u8()).map_err(|e| e.to_string())?;
        let probe_out = cfg.dir.join("probe.pgm");
        let mut files = FileProbe::default();
        repeat_for(budget * 0.4, 2, || files.once(&input, &probe_out))?;
        let plan = PlanProbe::measure(&frame, budget * 0.6)?;
        let untraced = median(&op_s);
        rec.push("gen.natural_ms", gen_s * 1e3, 1);
        for (name, v) in files.layers() {
            rec.push_ms(name, v);
        }
        plan.push(rec, median(&files.run));
        let frames = &plan.spans.frame;
        rec.push("trace.coverage", median(frames) / untraced, frames.len());
        rec.push(
            "trace.overhead_frac",
            median(&plan.traced_op) / untraced - 1.0,
            plan.traced_op.len(),
        );
    }
    Ok(())
}

/// The deterministic outcome of one replay: same seed, same bits.
fn serve_fingerprint(r: &ServiceReport) -> u64 {
    let mut h = Fnv::new()
        .u64(r.served)
        .u64(r.shed)
        .u64(r.batches)
        .u64(r.coalesced)
        .u64(r.peak_queued as u64)
        .u64(r.sim_end_s.to_bits())
        .u64(r.sim_busy_s.to_bits())
        .u64(r.cache.hits)
        .u64(r.cache.misses);
    for c in &r.classes {
        h = h
            .u64(c.served)
            .u64(c.shed)
            .u64(c.slo_violations)
            .u64(c.sim.sum().to_bits());
    }
    for id in &r.shed_ids {
        h = h.u64(*id);
    }
    h.finish()
}

fn run_serve(cfg: &Config, rec: &mut RunRecord) -> Result<(), String> {
    let requests = serve_requests(cfg.seed, cfg.serve_requests);
    let svc = service(Context::new(DeviceSpec::firepro_w8000()), false);
    let mut same = SameAsFirst { first: None };
    let mut replays: Vec<(f64, ServiceReport)> = Vec::new();
    let mut one = |rec: &mut RunRecord, timed: bool| -> Result<(), String> {
        let t = Instant::now();
        let res = svc.serve(&requests);
        let wall = t.elapsed().as_secs_f64();
        match res {
            Ok(report) => {
                let fp = serve_fingerprint(&report);
                same.check(rec, fp);
                rec.sim_bits = fp;
                if timed {
                    replays.push((wall, report));
                }
            }
            Err(e) => rec.failed_op(format!("serve failed: {e}")),
        }
        Ok(())
    };
    one(rec, false)?;
    repeat_for(cfg.untraced_seconds(), 1, || one(rec, true))?;
    let Some((_, last)) = replays.last() else {
        return Ok(());
    };
    let walls: Vec<f64> = replays.iter().map(|(w, _)| *w).collect();
    let per_frame: Vec<f64> = replays
        .iter()
        .map(|(w, r)| w / r.served.max(1) as f64)
        .collect();
    let fps: Vec<f64> = replays.iter().map(|(w, r)| r.served as f64 / w).collect();
    rec.push_latency(&per_frame);
    rec.push("frames_per_s", median(&fps), fps.len());
    rec.push("peak_rss_mib", peak_rss_mib()?, 1);
    let met: u64 = last
        .classes
        .iter()
        .map(|c| c.served - c.slo_violations)
        .sum();
    rec.push("slo_met_frac", met as f64 / last.requests.max(1) as f64, 1);
    rec.push("sim_p99_ms", last.sim_latency().quantile(0.99) * 1e3, 1);
    if cfg.traced {
        let run_into: Vec<f64> = replays
            .iter()
            .map(|(_, r)| r.wall_latency().sum())
            .collect();
        let prepare: Vec<f64> = replays
            .iter()
            .map(|(_, r)| r.cache.prepare_wall_s)
            .collect();
        rec.push("service.run_into_s", median(&run_into), run_into.len());
        rec.push("service.prepare_s", median(&prepare), prepare.len());
        rec.push("service.cache_hit_frac", last.cache.hit_rate(), 1);
        rec.push("service.batches", last.batches as f64, 1);
        rec.push("service.coalesced", last.coalesced as f64, 1);
        rec.push("service.shed", last.shed as f64, 1);
        rec.push("service.peak_queued", last.peak_queued as f64, 1);
        rec.push("service.sim_busy_s", last.sim_busy_s, 1);
        rec.push("simgpu.pool_hit_frac", hit_frac(&last.pool), 1);
    }

    // Kept outputs of the checked prefix must equal direct execution on a
    // fresh plan bit for bit, and the CPU reference within tolerance.
    let prefix = &requests[..requests.len().min(SERVE_CHECKED_PREFIX)];
    let kept = service(Context::new(DeviceSpec::firepro_w8000()), true).serve(prefix)?;
    let direct = w8000_pipeline(Context::new(DeviceSpec::firepro_w8000()));
    let cpu = CpuPipeline::new(SharpnessParams::default());
    let mut plans: BTreeMap<(usize, usize), PipelinePlan> = BTreeMap::new();
    let mut hash = Fnv::new();
    let mut buf = Vec::new();
    for (id, img) in &kept.outputs {
        hash = hash.u64(*id).f32s(img.pixels());
        let r = &prefix[*id as usize];
        if let Entry::Vacant(e) = plans.entry(r.shape()) {
            e.insert(direct.prepared(r.width, r.height)?);
        }
        let plan = plans.get_mut(&r.shape()).expect("inserted above");
        let frame = r.frame();
        buf.resize(r.pixels(), 0.0);
        plan.run_into(&frame, &mut buf)?;
        let diff = img.max_abs_diff(&cpu.run(&frame)?.output);
        let what = if !same_bits(&buf, img.pixels()) {
            "differs from direct execution".to_string()
        } else if diff.is_nan() || diff >= CPU_TOLERANCE {
            format!("differs from the CPU reference by {diff}")
        } else {
            continue;
        };
        rec.reference_mismatch(format!(
            "served request {id} ({}x{}) {what}",
            r.width, r.height
        ));
        break;
    }
    for id in &kept.shed_ids {
        hash = hash.u64(*id);
    }
    rec.output_hash = hash.finish();
    check_expected(Workload::ServeZipf, cfg, rec);

    if cfg.traced {
        let untraced = median(&walls);
        let t = Instant::now();
        let traced = service(
            Context::new(DeviceSpec::firepro_w8000()).with_spans(),
            false,
        )
        .serve(&requests)?;
        rec.push(
            "trace.overhead_frac",
            t.elapsed().as_secs_f64() / untraced - 1.0,
            1,
        );
        // Payload synthesis happens inside `serve`; time it from outside
        // for the requests that were served.
        let shed: std::collections::HashSet<u64> = traced.shed_ids.iter().copied().collect();
        let mut payload_s = 0.0;
        for r in requests.iter().filter(|r| !shed.contains(&r.id)) {
            let t = Instant::now();
            std::hint::black_box(r.frame());
            payload_s += t.elapsed().as_secs_f64();
        }
        rec.push("service.payload_gen_s", payload_s, traced.served as usize);
        rec.push(
            "gen.natural_ms",
            payload_s / traced.served.max(1) as f64 * 1e3,
            traced.served as usize,
        );
        let layers = payload_s + traced.wall_latency().sum() + traced.cache.prepare_wall_s;
        rec.push("trace.coverage", layers / untraced, 1);
        probe_requests(
            cfg,
            &requests[..requests.len().min(SERVE_PROBED_PREFIX)],
            rec,
        )?;
    }
    Ok(())
}

/// The per-layer pass of `serve_zipf`: the probed requests, each through
/// the file path and through per-shape plans, `PROBE_PASSES` times. A
/// layer reports the median over passes of its mean per request, so one
/// stalled request among small frames does not move it.
fn probe_requests(cfg: &Config, probed: &[Request], rec: &mut RunRecord) -> Result<(), String> {
    let input = cfg.dir.join("in.pgm");
    let output = cfg.dir.join("probe.pgm");
    let mut plans: BTreeMap<(usize, usize), (PipelinePlan, PipelinePlan)> = BTreeMap::new();
    let mut prepare = Vec::new();
    let mut buf = Vec::new();
    let mut passes: Vec<Vec<(&'static str, f64)>> = Vec::new();
    for _ in 0..PROBE_PASSES {
        let mut files = FileProbe::default();
        let (mut run_into, mut spans) = (Vec::new(), SpanProbe::default());
        for r in probed {
            let frame = r.frame();
            remove_output(&input)?;
            io::write_pgm(&input, &frame.to_u8()).map_err(|e| e.to_string())?;
            files.once(&input, &output)?;
            if let Entry::Vacant(e) = plans.entry(r.shape()) {
                let t = Instant::now();
                let plain = w8000_pipeline(Context::new(DeviceSpec::firepro_w8000()))
                    .prepared(r.width, r.height)?;
                prepare.push(t.elapsed().as_secs_f64());
                let traced = w8000_pipeline(Context::new(DeviceSpec::firepro_w8000()).with_spans())
                    .prepared(r.width, r.height)?;
                e.insert((plain, traced));
            }
            let (plain, traced) = plans.get_mut(&r.shape()).expect("inserted above");
            buf.resize(r.pixels(), 0.0);
            let t = Instant::now();
            plain.run_into(&frame, &mut buf)?;
            run_into.push(t.elapsed().as_secs_f64());
            traced.run_into(&frame, &mut buf)?;
            spans.add(&traced.spans());
        }
        let mut means: Vec<(&'static str, f64)> = files
            .layers()
            .into_iter()
            .chain(spans.layers())
            .map(|(name, v)| (name, mean(v)))
            .collect();
        means.push(("pipeline.run_into_ms", mean(&run_into)));
        means.push(("pipeline.alloc_tax_ms", mean(&files.run) - mean(&run_into)));
        passes.push(means);
    }
    for (k, &(name, _)) in passes[0].iter().enumerate() {
        let xs: Vec<f64> = passes.iter().map(|p| p[k].1).collect();
        rec.push(name, median(&xs) * 1e3, xs.len() * probed.len());
    }
    rec.push("pipeline.prepare_ms", mean(&prepare) * 1e3, prepare.len());
    Ok(())
}

/// Share of buffer requests the context's pool served from parked storage.
fn hit_frac(pool: &PoolStats) -> f64 {
    pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Wall seconds of each call the CLI makes for one PGM file, replayed in
/// the CLI's order so that caches are as warm or cold as on the real path.
#[derive(Default)]
struct FileProbe {
    decode: Vec<f64>,
    to_f32: Vec<f64>,
    run: Vec<f64>,
    to_u8: Vec<f64>,
    encode: Vec<f64>,
    gradient: Vec<f64>,
    free: Vec<f64>,
    total: Vec<f64>,
}

impl FileProbe {
    /// `read_pgm` → `to_f32` → `Context::new` + `GpuPipeline::new` + `run`
    /// → `to_u8` → `write_pgm` → `gradient_energy` ×2 → freeing the planes,
    /// as `cli::run` does with default flags. Each temporary is dropped
    /// where the CLI drops it: which allocations are fresh (and fault their
    /// pages in) depends on it, and moves `run` by a third.
    fn once(&mut self, input: &Path, output: &Path) -> Result<(), String> {
        remove_output(output)?;
        let t0 = Instant::now();
        let img = io::read_pgm(input).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let plane = img.to_f32();
        drop(img);
        let t2 = Instant::now();
        let report = w8000_pipeline(Context::new(DeviceSpec::firepro_w8000())).run(&plane)?;
        let t3 = Instant::now();
        let out = report.output.to_u8();
        let t4 = Instant::now();
        io::write_pgm(output, &out).map_err(|e| e.to_string())?;
        drop(out);
        let t5 = Instant::now();
        std::hint::black_box(quality::gradient_energy(&plane));
        std::hint::black_box(quality::gradient_energy(&report.output));
        let t6 = Instant::now();
        drop(plane);
        drop(report);
        let t7 = Instant::now();
        let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
        self.decode.push(s(t0, t1));
        self.to_f32.push(s(t1, t2));
        self.run.push(s(t2, t3));
        self.to_u8.push(s(t3, t4));
        self.encode.push(s(t4, t5));
        self.gradient.push(s(t5, t6));
        self.free.push(s(t6, t7));
        self.total.push(s(t0, t7));
        Ok(())
    }

    /// Each layer's metric name and samples, in call order.
    fn layers(&self) -> [(&'static str, &[f64]); 7] {
        [
            ("io.decode_ms", &self.decode),
            ("image.to_f32_ms", &self.to_f32),
            ("pipeline.run_ms", &self.run),
            ("image.to_u8_ms", &self.to_u8),
            ("io.encode_ms", &self.encode),
            ("summary.gradient_energy_ms", &self.gradient),
            ("image.free_ms", &self.free),
        ]
    }
}

/// The depth-1 phases a monolithic frame records, in order, with their
/// metric names.
const PHASES: [(&str, &str); 7] = [
    ("frame/upload", "span.upload_ms"),
    ("frame/downscale", "span.downscale_ms"),
    ("frame/upscale", "span.upscale_ms"),
    ("frame/sobel", "span.sobel_ms"),
    ("frame/reduction", "span.reduction_ms"),
    ("frame/sharpen", "span.sharpen_ms"),
    ("frame/readback", "span.readback_ms"),
];

/// Per-frame wall seconds of each phase span and of the frame's own
/// bookkeeping (frame span minus its phases).
#[derive(Default)]
struct SpanProbe {
    phases: [Vec<f64>; 7],
    frame: Vec<f64>,
    frame_self: Vec<f64>,
}

impl SpanProbe {
    fn add(&mut self, spans: &[SpanRecord]) {
        let agg = span::aggregate(spans);
        let wall = |path: &str| {
            agg.iter()
                .filter(|a| a.path == path)
                .map(|a| a.wall_s)
                .sum::<f64>()
        };
        let frame = wall("frame");
        let mut phases = 0.0;
        for (k, (path, _)) in PHASES.iter().enumerate() {
            let w = wall(path);
            phases += w;
            self.phases[k].push(w);
        }
        self.frame.push(frame);
        self.frame_self.push(frame - phases);
    }

    /// Each phase's metric name and samples, then the frame's self time.
    fn layers(&self) -> impl Iterator<Item = (&'static str, &[f64])> {
        PHASES
            .iter()
            .zip(&self.phases)
            .map(|((_, name), v)| (*name, v.as_slice()))
            .chain([("span.frame_self_ms", self.frame_self.as_slice())])
    }
}

/// Plan preparation, steady-state `run_into` and the span split of one
/// frame shape.
struct PlanProbe {
    prepare: Vec<f64>,
    run_into: Vec<f64>,
    spans: SpanProbe,
    traced_op: Vec<f64>,
    sim: [f64; 3],
    global_bytes: u64,
    commands: usize,
    pool_hit_frac: f64,
}

impl PlanProbe {
    /// Spends about `seconds`: three fresh preparations, then half the
    /// rest on plain `run_into` and half on a spans-enabled plan.
    fn measure(frame: &ImageF32, seconds: f64) -> Result<PlanProbe, String> {
        let (w, h) = (frame.width(), frame.height());
        let mut out = vec![0.0f32; frame.len()];
        let mut prepare = Vec::new();
        let mut plan = None;
        for _ in 0..3 {
            drop(plan.take());
            let t = Instant::now();
            let p = w8000_pipeline(Context::new(DeviceSpec::firepro_w8000())).prepared(w, h)?;
            prepare.push(t.elapsed().as_secs_f64());
            plan = Some(p);
        }
        let mut plan = plan.expect("prepared three times");
        let mut run_into = Vec::new();
        let mut comps = None;
        repeat_for(seconds / 2.0, 2, || {
            let t = Instant::now();
            let c = plan.run_into(frame, &mut out)?;
            run_into.push(t.elapsed().as_secs_f64());
            comps = Some(c);
            Ok(())
        })?;
        let c = comps.expect("ran at least once");
        let global_bytes = plan
            .records()
            .iter()
            .filter_map(|r| r.counters.as_ref())
            .map(|c| c.global_bytes())
            .sum();
        let commands = plan.records().len();
        let pool = plan.pipeline().context().pool_stats();
        drop(plan);

        let mut traced = w8000_pipeline(Context::new(DeviceSpec::firepro_w8000()).with_spans())
            .prepared(w, h)?;
        let mut spans = SpanProbe::default();
        let mut traced_op = Vec::new();
        repeat_for(seconds / 2.0, 2, || {
            let t = Instant::now();
            traced.run_into(frame, &mut out)?;
            traced_op.push(t.elapsed().as_secs_f64());
            spans.add(&traced.spans());
            Ok(())
        })?;
        Ok(PlanProbe {
            prepare,
            run_into,
            spans,
            traced_op,
            sim: [c.upload_s, c.compute_s, c.download_s],
            global_bytes,
            commands,
            pool_hit_frac: hit_frac(&pool),
        })
    }

    /// Pushes the plan metrics; `run_s` is the fresh-context `run` time at
    /// the same shape, for the allocation tax.
    fn push(&self, rec: &mut RunRecord, run_s: f64) {
        rec.push_ms("pipeline.prepare_ms", &self.prepare);
        rec.push_ms("pipeline.run_into_ms", &self.run_into);
        rec.push(
            "pipeline.alloc_tax_ms",
            (run_s - median(&self.run_into)) * 1e3,
            self.run_into.len(),
        );
        for (name, v) in self.spans.layers() {
            rec.push_ms(name, v);
        }
        rec.push("sim.upload_ms", self.sim[0] * 1e3, 1);
        rec.push("sim.compute_ms", self.sim[1] * 1e3, 1);
        rec.push("sim.download_ms", self.sim[2] * 1e3, 1);
        rec.push("simgpu.global_bytes", self.global_bytes as f64, 1);
        rec.push("simgpu.commands", self.commands as f64, 1);
        rec.push("simgpu.pool_hit_frac", self.pool_hit_frac, 1);
    }
}

/// Compares the run's output hash and simulated-time bits with the values
/// stored for the default seed.
fn check_expected(w: Workload, cfg: &Config, rec: &mut RunRecord) {
    if !cfg.has_expected() {
        return;
    }
    let want = expected::for_workload(w);
    if rec.output_hash != want.output_hash {
        rec.reference_mismatch(format!(
            "output hash {:#018x} differs from the stored {:#018x}",
            rec.output_hash, want.output_hash
        ));
    }
    if rec.sim_bits != want.sim_bits {
        rec.reference_mismatch(format!(
            "simulated-time bits {:#018x} differ from the stored {:#018x}",
            rec.sim_bits, want.sim_bits
        ));
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Index of the first byte further than rounding plus [`CPU_TOLERANCE`]
/// from the CPU reference pixel.
fn beyond_tolerance(bytes: &[u8], reference: &ImageF32) -> Option<usize> {
    if bytes.len() != reference.len() {
        return Some(0);
    }
    bytes
        .iter()
        .zip(reference.pixels())
        .position(|(&b, &r)| (f32::from(b) - r.clamp(0.0, 255.0)).abs() > 0.5 + CPU_TOLERANCE)
}

/// Decodes a binary PGM written with a single whitespace after each
/// header field, independently of `imagekit::io`.
///
/// # Errors
/// On any other layout.
pub fn decode_pgm(bytes: &[u8]) -> Result<ImageU8, String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while fields.len() < 4 {
        let start = i;
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i == start || i >= bytes.len() {
            return Err("truncated header".to_string());
        }
        fields.push(std::str::from_utf8(&bytes[start..i]).map_err(|e| e.to_string())?);
        i += 1;
    }
    let num = |s: &str| {
        s.parse::<usize>()
            .map_err(|_| format!("bad header field {s:?}"))
    };
    if fields[0] != "P5" || num(fields[3])? != 255 {
        return Err(format!("unexpected header {fields:?}"));
    }
    let (w, h) = (num(fields[1])?, num(fields[2])?);
    let body = &bytes[i..];
    if Some(body.len()) != w.checked_mul(h) {
        return Err(format!("{w}x{h} header but {} pixel bytes", body.len()));
    }
    Ok(ImageU8::from_vec(w, h, body.to_vec()))
}
