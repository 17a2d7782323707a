//! Implementation of the `sharpen` command-line tool.
//!
//! Parsing and orchestration live here (unit-testable); the binary in
//! `src/bin/sharpen.rs` is a thin wrapper.

use std::path::PathBuf;

use imagekit::{io, metrics, ImageF32, ImageU8};
use sharpness_core::color::{sharpen_rgb, ColorMode};
use sharpness_core::cpu::CpuPipeline;
use sharpness_core::gpu::batch::Overlap;
use sharpness_core::gpu::{
    verify_static, GpuPipeline, InputFrame, OptConfig, StaticReport, Tuning,
};
use sharpness_core::params::SharpnessParams;
use sharpness_core::report::RunReport;
use sharpness_core::service::ServiceConfig;
use sharpness_core::telemetry::FrameTelemetry;
use simgpu::context::Context;
use simgpu::device::DeviceSpec;
use simgpu::metrics::{Histogram, MetricsRegistry};
use simgpu::queue::{CommandKind, CommandRecord};
use simgpu::span::SpanRecord;
use simgpu::trace;

/// Which engine executes the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The serial CPU reference.
    Cpu,
    /// The simulated-GPU port with the given device preset.
    Gpu(DevicePreset),
}

/// Named device presets selectable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePreset {
    /// AMD FirePro W8000 (the paper's card).
    W8000,
    /// Mid-range GPU.
    Midrange,
    /// APU-like part with a shared-memory link.
    Apu,
    /// Embedded SoC-class GPU: few CUs, slow launches, narrow memory.
    Embedded,
    /// HBM server part on a PCI-E 4.0 link.
    Hbm,
}

impl DevicePreset {
    /// Resolves the preset to a device spec.
    pub fn spec(self) -> DeviceSpec {
        match self {
            DevicePreset::W8000 => DeviceSpec::firepro_w8000(),
            DevicePreset::Midrange => DeviceSpec::midrange_gpu(),
            DevicePreset::Apu => DeviceSpec::apu(),
            DevicePreset::Embedded => DeviceSpec::embedded_gpu(),
            DevicePreset::Hbm => DeviceSpec::hbm_gpu(),
        }
    }

    /// Parses a `--device` name.
    pub fn parse(name: Option<&str>) -> Result<Self, String> {
        match name {
            Some("w8000") => Ok(DevicePreset::W8000),
            Some("midrange") => Ok(DevicePreset::Midrange),
            Some("apu") => Ok(DevicePreset::Apu),
            Some("embedded") => Ok(DevicePreset::Embedded),
            Some("hbm") => Ok(DevicePreset::Hbm),
            other => Err(format!("unknown device {other:?}")),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Input image path (`.pgm` grayscale or `.ppm` colour).
    pub input: PathBuf,
    /// Output image path (same format as input).
    pub output: PathBuf,
    /// Sharpening parameters.
    pub params: SharpnessParams,
    /// Engine selection.
    pub engine: Engine,
    /// GPU optimization flags.
    pub opts: OptConfig,
    /// Colour strategy for PPM inputs.
    pub color: ColorMode,
    /// Optional Chrome-trace JSON output path.
    pub trace_json: Option<PathBuf>,
    /// Print an ASCII Gantt chart of the run.
    pub gantt: bool,
    /// Number of frames one prepared plan replays the input for
    /// (1 = single-shot).
    pub frames: usize,
    /// Run every kernel under the shadow-execution sanitizer and fail on
    /// any finding (GPU single-frame only).
    pub sanitize: bool,
    /// Statically prove the dispatch schedule sound (bounds, write
    /// disjointness, byte accounting) before running, and
    /// require every live dispatch to declare its verified access summary
    /// (GPU only).
    pub verify_static: bool,
    /// Optional JSONL metrics output path — a file, or a directory to
    /// write `metrics.jsonl` into (GPU only).
    pub metrics: Option<PathBuf>,
    /// Print the per-kernel efficiency table (GPU only).
    pub profile: bool,
    /// Print the automated bottleneck report (GPU only).
    pub explain: bool,
    /// Force the scalar/autovectorized kernel spans even when the `simd`
    /// feature is compiled in (pixels and simulated time are identical
    /// either way; only wall-clock changes).
    pub no_simd: bool,
    /// Replace the paper's hand-tuned schedule with the model-searched
    /// one for the input's exact shape on the selected device (GPU only).
    pub autotune: bool,
}

/// Usage text.
pub const USAGE: &str = "\
usage: sharpen <input.pgm|input.ppm> <output> [options]
       sharpen serve [options]      (see `sharpen serve --help`)
options:
  --gain <f>        strength gain            (default 1.8)
  --gamma <f>       strength exponent        (default 0.5)
  --osc <f>         overshoot fraction 0..1  (default 0.35)
  --cpu             run the CPU reference instead of the GPU port
  --device <name>   w8000 | midrange | apu | embedded | hbm (default w8000)
  --opts <which>    none | all               (default all)
  --autotune        replace the paper's hand-tuned schedule with the
                    model-searched one for this exact shape and device:
                    a guided search over the full optimization space
                    (closed-form cost model, zero pipeline executions)
                    picks the OptConfig and Tuning, overriding --opts;
                    the summary reports the chosen schedule and its
                    predicted speedup over the paper default (GPU only)
  --color <mode>    luma | rgb               (default luma; PPM only)
  --trace <file>    write a Chrome-trace JSON of the run
  --gantt           print an ASCII timeline of the run
  --frames <n>      replay the input n times through one prepared plan
                    and report wall-clock frames/sec and the simulated
                    steady state (GPU only); a latency histogram summary
                    goes to stderr, --trace/--gantt show one frame
  --metrics <path>  write a JSONL metrics file: per-kernel efficiency
                    (loads/source-pixel, vector fraction, arithmetic
                    intensity, achieved vs peak bandwidth, occupancy);
                    with --frames also throughput gauges and wall +
                    simulated latency histograms. If <path> is an existing
                    directory the file is written as <path>/metrics.jsonl
                    (`repro --metrics` accepts the same spelling) (GPU only)
  --profile         print the per-kernel efficiency table (GPU only)
  --explain         print the automated bottleneck report: per-kernel
                    roofline verdicts (compute/bandwidth/LDS/launch-bound,
                    arithmetic intensity vs machine balance, achieved vs
                    peak fractions), the frame-level transfer verdict, the
                    host LLC-residency verdict, and per-phase span shares
                    (GPU only)
  --no-simd         force the scalar/autovectorized kernel spans even when
                    the simd feature is compiled in. Pixels and simulated
                    time are bit-identical either way — only wall-clock
                    changes
  --sanitize        run every kernel under the shadow-execution sanitizer
                    (data races, out-of-bounds, barrier divergence, cost
                    accounting drift); exits non-zero on any finding.
                    GPU single-frame only; results and simulated time are
                    unchanged — the overhead is wall-clock only
  --verify-static   statically prove the dispatch schedule sound before
                    running — every kernel in-bounds, write-sets disjoint,
                    charged bytes within the closed-form overcharge bound —
                    then
                    require every live dispatch to declare its verified
                    access summary (undeclared dispatch is a hard error).
                    Pixels and simulated time are unchanged (GPU only)
";

/// Usage text for `sharpen serve`.
pub const SERVE_USAGE: &str = "\
usage: sharpen serve [options]
Replays a deterministic synthetic request stream (Zipf-distributed frame
shapes, bursty arrivals, per-request priority class) through the sharpen
service scheduler and prints served/shed counters, wall + simulated
latency quantiles, and plan-cache/buffer-pool statistics.
options:
  --requests <n>    requests in the stream           (default 256)
  --seed <n>        traffic seed; same seed, same stream (default 2015)
  --gap-us <f>      mean simulated inter-arrival gap in microseconds —
                    the offered-load knob            (default 2000)
  --device <name>   w8000 | midrange | apu | embedded | hbm (default w8000)
  --opts <which>    none | all                       (default all)
  --autotune        key the plan cache on per-shape model-tuned schedules:
                    each cache miss runs the guided cost-model search for
                    the requested shape and prepares the winning plan
                    (pixels are bit-identical; simulated seconds drop)
  --queue-cap <n>   bounded queue length per class   (default 64)
  --max-batch <n>   max requests coalesced per batch (default 16)
  --cache-cap <n>   plan-cache capacity, plans       (default 8)
  --shards <n>      plan-cache shards                (default 4)
  --selfcheck       re-run every served request directly (fresh plan, no
                    scheduler) and fail unless the pixels are bit-identical
  --sanitize        serve on a sanitized context; exits non-zero on any
                    finding (wall-clock overhead only)
  --metrics <path>  write the service metrics registry as JSONL
  --no-simd         force the scalar/autovectorized kernel spans
";

/// Parsed `sharpen serve` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Requests in the synthetic stream.
    pub requests: usize,
    /// Traffic seed (identical seed ⇒ identical stream).
    pub seed: u64,
    /// Mean simulated inter-arrival gap, microseconds (offered load).
    pub gap_us: f64,
    /// Device preset to serve on.
    pub device: DevicePreset,
    /// GPU optimization flags.
    pub opts: OptConfig,
    /// Bounded queue length per priority class.
    pub queue_cap: usize,
    /// Maximum batch size.
    pub max_batch: usize,
    /// Plan-cache capacity in plans.
    pub cache_cap: usize,
    /// Plan-cache shard count.
    pub shards: usize,
    /// Byte-compare every served output against direct execution.
    pub selfcheck: bool,
    /// Serve on a sanitized context and fail on any finding.
    pub sanitize: bool,
    /// Optional JSONL metrics output path.
    pub metrics: Option<PathBuf>,
    /// Force the scalar/autovectorized kernel spans.
    pub no_simd: bool,
    /// Key the plan cache on per-shape model-tuned schedules.
    pub autotune: bool,
}

/// Parses a `sharpen serve` argument list (without the program name and
/// without the leading `serve`). The service options default to
/// [`ServiceConfig::default`]'s.
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let service = ServiceConfig::default();
    let mut sv = ServeArgs {
        requests: 256,
        seed: 2015,
        gap_us: 2000.0,
        device: DevicePreset::W8000,
        opts: OptConfig::all(),
        queue_cap: service.queue_capacity,
        max_batch: service.max_batch,
        cache_cap: service.cache_capacity,
        shards: service.cache_shards,
        selfcheck: false,
        sanitize: false,
        metrics: None,
        no_simd: false,
        autotune: false,
    };
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--requests" => sv.requests = parse_value(&arg, it.next())?,
            "--seed" => sv.seed = parse_value(&arg, it.next())?,
            "--gap-us" => sv.gap_us = parse_value(&arg, it.next())?,
            "--device" => sv.device = DevicePreset::parse(it.next().as_deref())?,
            "--opts" => {
                sv.opts = match it.next().as_deref() {
                    Some("none") => OptConfig::none(),
                    Some("all") => OptConfig::all(),
                    other => return Err(format!("unknown opts {other:?}")),
                }
            }
            "--queue-cap" => sv.queue_cap = parse_value(&arg, it.next())?,
            "--max-batch" => sv.max_batch = parse_value(&arg, it.next())?,
            "--cache-cap" => sv.cache_cap = parse_value(&arg, it.next())?,
            "--shards" => sv.shards = parse_value(&arg, it.next())?,
            "--selfcheck" => sv.selfcheck = true,
            "--sanitize" => sv.sanitize = true,
            "--autotune" => sv.autotune = true,
            "--metrics" => {
                sv.metrics = Some(PathBuf::from(parse_value::<String>(&arg, it.next())?))
            }
            "--no-simd" => sv.no_simd = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if sv.requests == 0 {
        return Err("--requests must be at least 1".to_string());
    }
    if !sv.gap_us.is_finite() || sv.gap_us <= 0.0 {
        return Err("--gap-us must be positive".to_string());
    }
    if sv.queue_cap == 0 || sv.max_batch == 0 {
        return Err("--queue-cap and --max-batch must be at least 1".to_string());
    }
    Ok(sv)
}

/// Executes `sharpen serve`, returning the human-readable summary.
pub fn run_serve(sv: &ServeArgs) -> Result<String, String> {
    use sharpness_core::service::{generate_requests, SharpenService, TrafficConfig};

    if sv.no_simd {
        sharpness_core::simd::set_backend(Some(sharpness_core::simd::Backend::Autovec));
    }
    let traffic = TrafficConfig {
        requests: sv.requests,
        seed: sv.seed,
        mean_gap_s: sv.gap_us * 1e-6,
        ..TrafficConfig::default()
    };
    let requests = generate_requests(&traffic);
    let ctx = if sv.sanitize {
        Context::sanitized(sv.device.spec())
    } else {
        Context::new(sv.device.spec())
    };
    let pipe = GpuPipeline::new(ctx.clone(), SharpnessParams::default(), sv.opts);
    let service = SharpenService::new(
        pipe,
        ServiceConfig {
            queue_capacity: sv.queue_cap,
            max_batch: sv.max_batch,
            cache_shards: sv.shards,
            cache_capacity: sv.cache_cap,
            keep_outputs: sv.selfcheck,
            tune_per_shape: sv.autotune,
            ..ServiceConfig::default()
        },
    );
    let report = service.serve(&requests)?;
    let mut summary = format!(
        "serve: {} requests, seed {}, mean gap {:.0} us\n{}",
        sv.requests,
        sv.seed,
        sv.gap_us,
        report.summary()
    );
    if let Some(san) = ctx.sanitize_report() {
        if !san.is_clean() {
            return Err(format!("{san}"));
        }
        summary.push_str("sanitizer: clean across the whole served stream\n");
    }
    if sv.selfcheck {
        // Every served output must be bit-identical to a fresh,
        // scheduler-free plan executing the same request.
        let direct = GpuPipeline::new(
            Context::new(sv.device.spec()),
            SharpnessParams::default(),
            sv.opts,
        );
        let by_id: std::collections::HashMap<u64, &sharpness_core::service::Request> =
            requests.iter().map(|r| (r.id, r)).collect();
        for (id, out) in &report.outputs {
            let r = by_id.get(id).ok_or_else(|| format!("unknown id {id}"))?;
            let mut plan = direct.prepared(r.width, r.height)?;
            let mut expect = vec![0.0f32; r.width * r.height];
            plan.run_into(&r.frame(), &mut expect)?;
            if out.pixels() != expect.as_slice() {
                return Err(format!(
                    "selfcheck: request {id} ({}) diverged from direct execution",
                    format_args!("{}x{}", r.width, r.height),
                ));
            }
        }
        summary.push_str(&format!(
            "selfcheck: {} served outputs bit-identical to direct execution\n",
            report.outputs.len()
        ));
    }
    if let Some(path) = &sv.metrics {
        let file = if path.is_dir() {
            path.join("metrics.jsonl")
        } else {
            path.clone()
        };
        std::fs::write(&file, report.to_registry().to_jsonl()).map_err(|e| e.to_string())?;
        summary.push_str(&format!("wrote metrics to {}\n", file.display()));
    }
    Ok(summary)
}

fn parse_value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("invalid value {v:?} for {flag}"))
}

/// Parses the argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut it = args.iter().cloned();
    let input = PathBuf::from(it.next().ok_or("missing input path")?);
    let output = PathBuf::from(it.next().ok_or("missing output path")?);
    let mut cli = CliArgs {
        input,
        output,
        params: SharpnessParams::default(),
        engine: Engine::Gpu(DevicePreset::W8000),
        opts: OptConfig::all(),
        color: ColorMode::LumaOnly,
        trace_json: None,
        gantt: false,
        frames: 1,
        sanitize: false,
        verify_static: false,
        metrics: None,
        profile: false,
        explain: false,
        no_simd: false,
        autotune: false,
    };
    let mut device = DevicePreset::W8000;
    let mut use_cpu = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gain" => cli.params.gain = parse_value(&arg, it.next())?,
            "--gamma" => cli.params.gamma = parse_value(&arg, it.next())?,
            "--osc" => cli.params.osc = parse_value(&arg, it.next())?,
            "--cpu" => use_cpu = true,
            "--device" => device = DevicePreset::parse(it.next().as_deref())?,
            "--opts" => {
                cli.opts = match it.next().as_deref() {
                    Some("none") => OptConfig::none(),
                    Some("all") => OptConfig::all(),
                    other => return Err(format!("unknown opts {other:?}")),
                }
            }
            "--color" => {
                cli.color = match it.next().as_deref() {
                    Some("luma") => ColorMode::LumaOnly,
                    Some("rgb") => ColorMode::PerChannel,
                    other => return Err(format!("unknown color mode {other:?}")),
                }
            }
            "--trace" => {
                cli.trace_json = Some(PathBuf::from(parse_value::<String>(&arg, it.next())?))
            }
            "--gantt" => cli.gantt = true,
            "--frames" => cli.frames = parse_value(&arg, it.next())?,
            "--sanitize" => cli.sanitize = true,
            "--verify-static" => cli.verify_static = true,
            "--metrics" => {
                cli.metrics = Some(PathBuf::from(parse_value::<String>(&arg, it.next())?))
            }
            "--profile" => cli.profile = true,
            "--explain" => cli.explain = true,
            "--no-simd" => cli.no_simd = true,
            "--autotune" => cli.autotune = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    cli.engine = if use_cpu {
        Engine::Cpu
    } else {
        Engine::Gpu(device)
    };
    if cli.frames == 0 {
        return Err("--frames must be at least 1".to_string());
    }
    if cli.frames > 1 && use_cpu {
        return Err("--frames requires the GPU engine (drop --cpu)".to_string());
    }
    if cli.sanitize && use_cpu {
        return Err("--sanitize requires the GPU engine (drop --cpu)".to_string());
    }
    if cli.sanitize && cli.frames > 1 {
        return Err(
            "--sanitize cannot be combined with --frames: only the single-frame run \
             is sanitized"
                .to_string(),
        );
    }
    if cli.verify_static && use_cpu {
        return Err("--verify-static requires the GPU engine (drop --cpu)".to_string());
    }
    if cli.autotune && use_cpu {
        return Err("--autotune requires the GPU engine (drop --cpu)".to_string());
    }
    if (cli.metrics.is_some() || cli.profile || cli.explain) && use_cpu {
        return Err(
            "--metrics/--profile/--explain require the GPU engine (efficiency metrics \
             come from the simulated device's cost counters; drop --cpu)"
                .to_string(),
        );
    }
    cli.params.validate()?;
    Ok(cli)
}

/// Converts a run report back into command records for trace export,
/// inferring the command kind from the pipeline's naming convention.
pub fn report_to_records(report: &RunReport) -> Vec<CommandRecord> {
    let mut t = 0.0;
    report
        .stages
        .iter()
        .map(|s| {
            let kind = if s.name.starts_with("write:") {
                CommandKind::WriteBuffer
            } else if s.name.starts_with("rect-write:") {
                CommandKind::RectWrite
            } else if s.name.starts_with("read:") {
                CommandKind::ReadBuffer
            } else if s.name.starts_with("map-") {
                CommandKind::Map
            } else if s.name.starts_with("host:") {
                CommandKind::HostWork
            } else if s.name.as_ref() == "finish" {
                CommandKind::Finish
            } else {
                CommandKind::Kernel
            };
            let rec = CommandRecord {
                name: s.name.clone(),
                kind,
                start_s: t,
                duration_s: s.seconds,
                counters: None,
            };
            t += s.seconds;
            rec
        })
        .collect()
}

/// The effective (opts, tuning) for a GPU run of a `w`×`h` plane: the
/// command line's values under the paper's hand-tuned defaults, or —
/// with `--autotune` — the guided model search's winner for this exact
/// shape on the selected device. The search never executes the
/// pipeline, so re-deriving it per plane costs microseconds and stays
/// deterministic.
fn gpu_config_for(
    cli: &CliArgs,
    preset: DevicePreset,
    w: usize,
    h: usize,
) -> Result<(OptConfig, Tuning), String> {
    if !cli.autotune {
        return Ok((cli.opts, Tuning::default()));
    }
    let r = autotune_search(preset, w, h)?;
    Ok((r.opts, r.tuning))
}

/// Runs the guided model search for one shape on a preset.
fn autotune_search(
    preset: DevicePreset,
    w: usize,
    h: usize,
) -> Result<sharpness_core::tune::TuneReport, String> {
    let dev = preset.spec();
    let ctx = Context::new(dev.clone());
    sharpness_core::tune::search(
        w,
        h,
        &dev,
        ctx.cpu(),
        sharpness_core::tune::SearchMode::Guided,
    )
}

/// Sharpens one plane. The GPU engine takes an 8-bit plane as it is —
/// the upload widens it — and runs it on a one-shot context without
/// pooling, whose sharpening pass writes the output image directly; the
/// CPU reference converts to `f32` first.
fn sharpen_plane(cli: &CliArgs, plane: InputFrame) -> Result<RunReport, String> {
    match cli.engine {
        Engine::Cpu => match plane {
            InputFrame::F32(img) => CpuPipeline::new(cli.params).run(img),
            InputFrame::U8(img) => CpuPipeline::new(cli.params).run(&img.to_f32()),
        },
        Engine::Gpu(preset) => {
            let (opts, tuning) = gpu_config_for(cli, preset, plane.width(), plane.height())?;
            if cli.verify_static {
                // Prove the whole dispatch schedule sound before touching
                // a single pixel; a failed proof aborts the run.
                verify_static(plane.width(), plane.height(), &opts, &tuning)?;
            }
            let ctx = if cli.sanitize {
                Context::sanitized(preset.spec())
            } else {
                Context::new(preset.spec())
            }
            .with_pooling(false);
            let report = GpuPipeline::new(ctx.clone(), cli.params, opts)
                .with_tuning(tuning)
                .run(plane)?;
            if let Some(san) = ctx.sanitize_report() {
                if !san.is_clean() {
                    return Err(format!("{san}"));
                }
            }
            Ok(report)
        }
    }
}

/// What a `--frames` run measured: wall and simulated rates plus the
/// per-frame latency histograms.
struct FramesReport {
    wall_fps: f64,
    simulated_fps: f64,
    wall_latency: Histogram,
    sim_latency: Histogram,
}

/// Replays `plane` `cli.frames` times through one prepared plan and one
/// reused output buffer. Memory does not grow with the frame count: each
/// frame overwrites the last one's output, and the latency histograms and
/// the [`Overlap`] steady-state recurrence fold frame by frame. Returns the
/// formatted rates and the report behind the metrics.
fn run_frames(cli: &CliArgs, plane: InputFrame) -> Result<(String, FramesReport), String> {
    let Engine::Gpu(preset) = cli.engine else {
        return Err("--frames requires the GPU engine".to_string());
    };
    let (opts, tuning) = gpu_config_for(cli, preset, plane.width(), plane.height())?;
    let pipe = GpuPipeline::new(Context::new(preset.spec()), cli.params, opts).with_tuning(tuning);
    let mut plan = pipe.prepared(plane.width(), plane.height())?;
    let mut out = vec![0.0f32; plane.width() * plane.height()];
    let mut overlap = Overlap::default();
    let mut wall_latency = Histogram::latency_seconds();
    let mut sim_latency = Histogram::latency_seconds();
    let started = std::time::Instant::now();
    for _ in 0..cli.frames {
        let t0 = std::time::Instant::now();
        let c = plan.run_into(plane, &mut out)?;
        wall_latency.observe(t0.elapsed().as_secs_f64());
        sim_latency.observe(c.total());
        overlap.push(&c);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let n = cli.frames as f64;
    let rep = FramesReport {
        wall_fps: n / wall_s,
        simulated_fps: n / overlap.total_s(),
        wall_latency,
        sim_latency,
    };
    // The simulated latency histogram's sum is the serial (non-overlapped)
    // time of the whole run.
    let serial_s = rep.sim_latency.sum();
    let text = format!(
        "throughput: {} frames through one plan in {:.3} s wall ({:.1} frames/s)\n\
         simulated steady-state: {:.3} ms/frame pipelined ({:.1} frames/s; {:.3} ms serial)\n",
        cli.frames,
        wall_s,
        rep.wall_fps,
        overlap.total_s() / n * 1e3,
        rep.simulated_fps,
        serial_s / n * 1e3,
    );
    Ok((text, rep))
}

/// Re-runs one plane through a prepared plan with spans enabled and
/// returns the frame's raw command records (with cost counters), its
/// derived telemetry, and its span tree — the data behind `--metrics`,
/// `--profile`, `--explain`, and enriched single-frame traces.
fn gpu_observe(
    cli: &CliArgs,
    plane: InputFrame,
) -> Result<(Vec<CommandRecord>, FrameTelemetry, Vec<SpanRecord>), String> {
    let Engine::Gpu(preset) = cli.engine else {
        return Err("kernel telemetry requires the GPU engine".to_string());
    };
    let (opts, tuning) = gpu_config_for(cli, preset, plane.width(), plane.height())?;
    let pipe = GpuPipeline::new(Context::new(preset.spec()).with_spans(), cli.params, opts)
        .with_tuning(tuning);
    let mut plan = pipe.prepared(plane.width(), plane.height())?;
    plan.run(plane)?;
    let tel = plan.telemetry();
    let spans = plan.spans();
    Ok((plan.records().to_vec(), tel, spans))
}

/// The plane a call decodes, which the later re-runs (`--frames`,
/// telemetry) take: a PGM's 8-bit pixels, or a colour frame's luma plane.
enum Plane {
    Gray(ImageU8),
    Luma(ImageF32),
}

impl Plane {
    fn frame(&self) -> InputFrame<'_> {
        match self {
            Plane::Gray(img) => img.into(),
            Plane::Luma(img) => img.into(),
        }
    }
}

/// Executes the parsed command, returning the human-readable summary that
/// the binary prints.
pub fn run(cli: &CliArgs) -> Result<String, String> {
    if cli.no_simd {
        sharpness_core::simd::set_backend(Some(sharpness_core::simd::Backend::Autovec));
    }
    let ext = cli.input.extension().and_then(|e| e.to_str()).unwrap_or("");
    let mut summary = String::new();
    let report: RunReport;
    let plane: Plane;
    match ext {
        "pgm" => {
            let img = io::read_pgm(&cli.input).map_err(|e| e.to_string())?;
            report = sharpen_plane(cli, InputFrame::U8(&img))?;
            // The output's gradient energy — a serial f64 sum — runs on a
            // second thread while this one encodes and writes the file.
            let out = &report.output;
            let (written, energy_out) = std::thread::scope(|s| {
                let energy = s.spawn(|| metrics::gradient_energy(out));
                let written = io::write_pgm(&cli.output, &out.to_u8());
                let energy = energy
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                (written, energy)
            });
            written.map_err(|e| e.to_string())?;
            summary.push_str(&format!(
                "sharpened {}x{} grayscale in {:.3} simulated ms\n",
                img.width(),
                img.height(),
                report.total_s * 1e3
            ));
            summary.push_str(&format!(
                "gradient energy {:.3} -> {:.3}\n",
                metrics::gradient_energy_u8(&img),
                energy_out
            ));
            plane = Plane::Gray(img);
        }
        "ppm" => {
            let frame = io::read_ppm(&cli.input).map_err(|e| e.to_string())?;
            struct PlaneSharpener<'a>(&'a CliArgs);
            impl sharpness_core::color::Sharpener for PlaneSharpener<'_> {
                fn sharpen(&self, plane: &ImageF32) -> Result<RunReport, String> {
                    sharpen_plane(self.0, plane.into())
                }
            }
            let color = sharpen_rgb(&PlaneSharpener(cli), &frame, cli.color)?;
            io::write_ppm(&cli.output, &color.output).map_err(|e| e.to_string())?;
            summary.push_str(&format!(
                "sharpened {}x{} colour frame ({:?}, {} plane runs) in {:.3} simulated ms\n",
                frame.width(),
                frame.height(),
                cli.color,
                color.plane_runs,
                color.total_s * 1e3
            ));
            // Trace/gantt/telemetry need a plane report; redo the luma
            // plane cheaply.
            let luma = frame.to_luma();
            report = sharpen_plane(cli, (&luma).into())?;
            plane = Plane::Luma(luma);
        }
        other => {
            return Err(format!(
                "unsupported input extension {other:?} (use .pgm or .ppm)"
            ))
        }
    }

    let plane = plane.frame();

    // Multi-frame stream: replay the plane through one prepared plan.
    let tput = if cli.frames > 1 {
        let (text, rep) = run_frames(cli, plane)?;
        summary.push_str(&text);
        eprint!(
            "frame latency (wall): {}\nframe latency (simulated): {}\n",
            rep.wall_latency.summary(1e3, "ms"),
            rep.sim_latency.summary(1e3, "ms"),
        );
        Some(rep)
    } else {
        None
    };

    // Kernel telemetry (counters survive only on the plan's queue, not in
    // the RunReport): collected when --metrics/--profile ask for it, and
    // for single-frame GPU traces so they carry real command kinds and the
    // cumulative global-bytes counter track.
    let is_gpu = matches!(cli.engine, Engine::Gpu(_));

    // Under --autotune report the schedule the model search picked (the
    // runs above already executed under it) and keep the report around
    // for the tune.* metric gauges.
    let tune_report = if cli.autotune && is_gpu {
        let Engine::Gpu(preset) = cli.engine else {
            unreachable!("--autotune rejected with --cpu at parse time");
        };
        let t0 = std::time::Instant::now();
        let r = autotune_search(preset, plane.width(), plane.height())?;
        let wall = t0.elapsed().as_secs_f64();
        summary.push_str(&format!("autotune: {}\n", r.summary_line()));
        Some((r, wall))
    } else {
        None
    };

    let wants_single_trace = cli.trace_json.is_some() || cli.gantt;
    let observed =
        if is_gpu && (cli.metrics.is_some() || cli.profile || cli.explain || wants_single_trace) {
            Some(gpu_observe(cli, plane)?)
        } else {
            None
        };

    if cli.sanitize {
        // Any violation aborts the run with the sanitizer's report, so
        // reaching this point means every dispatch came back clean.
        summary.push_str(
            "sanitizer: clean (no races, out-of-bounds, barrier divergence, or accounting drift)\n",
        );
    }
    // Reaching this point with --verify-static means the proof succeeded
    // (sharpen_plane aborts otherwise) and every live dispatch declared its
    // summary; recompute the report for the stats line and metric gauges.
    let static_report: Option<StaticReport> = if cli.verify_static && is_gpu {
        let Engine::Gpu(preset) = cli.engine else {
            unreachable!("--verify-static rejected with --cpu at parse time");
        };
        let (opts, tuning) = gpu_config_for(cli, preset, plane.width(), plane.height())?;
        let r = verify_static(plane.width(), plane.height(), &opts, &tuning)?;
        summary.push_str(&r.summary_line());
        summary.push('\n');
        Some(r)
    } else {
        None
    };
    if let Some(path) = &cli.metrics {
        let (_, tel, spans) = observed.as_ref().expect("observed when --metrics");
        let mut reg = MetricsRegistry::new();
        tel.to_registry(&mut reg);
        simgpu::span::to_registry(spans, &mut reg);
        if let Some(r) = &static_report {
            r.to_registry(&mut reg);
        }
        if let Some((r, wall)) = &tune_report {
            r.to_registry(&mut reg);
            // Wall time is the one non-deterministic tune gauge; it never
            // enters committed baselines (those use TuneReport::to_registry
            // alone) but belongs in an operator-requested metrics dump.
            reg.set_gauge("tune.search_wall_s", *wall);
        }
        if let Some(tp) = &tput {
            reg.inc("throughput.frames", cli.frames as u64);
            reg.set_gauge("throughput.wall_fps", tp.wall_fps);
            reg.set_gauge("throughput.simulated_fps", tp.simulated_fps);
            reg.record_histogram("latency.wall_s", &tp.wall_latency);
            reg.record_histogram("latency.sim_s", &tp.sim_latency);
        }
        // `--metrics` accepts a file or a directory (same as `repro`):
        // directories get a metrics.jsonl inside.
        let file = if path.is_dir() {
            path.join("metrics.jsonl")
        } else {
            path.clone()
        };
        std::fs::write(&file, reg.to_jsonl()).map_err(|e| e.to_string())?;
        summary.push_str(&format!("wrote metrics to {}\n", file.display()));
    }
    if cli.profile {
        let (_, tel, _) = observed.as_ref().expect("observed when --profile");
        summary.push_str(&format!(
            "host: cpu features [{}], kernel backend {} (simd feature {})\n",
            sharpness_core::simd::host_features(),
            sharpness_core::simd::dispatched_backend().label(),
            if sharpness_core::simd::simd_compiled() {
                "on"
            } else {
                "off"
            },
        ));
        summary.push_str("kernel efficiency (one luma-plane frame):\n");
        summary.push_str(&tel.efficiency_table());
    }
    if cli.explain {
        let Engine::Gpu(preset) = cli.engine else {
            unreachable!("--explain rejected with --cpu at parse time");
        };
        let (_, tel, spans) = observed.as_ref().expect("observed when --explain");
        let (w, h) = (plane.width(), plane.height());
        let (opts, tuning) = gpu_config_for(cli, preset, w, h)?;
        let e = sharpness_core::analyze::explain(
            tel,
            spans,
            &preset.spec(),
            sharpness_core::analyze::host_streams(w, h, &opts, &tuning)?,
            sharpness_core::autotune::detected_cache_bytes(),
        );
        summary.push_str(&e.render(8));
    }
    if let Some(path) = &cli.trace_json {
        let json = match &observed {
            Some((records, _, spans)) => trace::to_chrome_json_with_spans(records, spans),
            None => trace::to_chrome_json(&report_to_records(&report)),
        };
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        summary.push_str(&format!("wrote trace to {}\n", path.display()));
    }
    if cli.gantt {
        match &observed {
            Some((records, _, _)) => summary.push_str(&trace::gantt(records, 60)),
            None => summary.push_str(&trace::gantt(&report_to_records(&report), 60)),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_minimal() {
        let cli = parse_args(&strs(&["in.pgm", "out.pgm"])).unwrap();
        assert_eq!(cli.engine, Engine::Gpu(DevicePreset::W8000));
        assert_eq!(cli.opts, OptConfig::all());
        assert_eq!(cli.color, ColorMode::LumaOnly);
    }

    #[test]
    fn parses_everything() {
        let cli = parse_args(&strs(&[
            "a.ppm", "b.ppm", "--gain", "2.5", "--gamma", "0.7", "--osc", "0.2", "--device", "apu",
            "--opts", "none", "--color", "rgb", "--trace", "t.json", "--gantt",
        ]))
        .unwrap();
        assert_eq!(cli.engine, Engine::Gpu(DevicePreset::Apu));
        assert_eq!(cli.opts, OptConfig::none());
        assert_eq!(cli.color, ColorMode::PerChannel);
        assert!((cli.params.gain - 2.5).abs() < 1e-6);
        assert!(cli.gantt);
        assert_eq!(
            cli.trace_json.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
    }

    #[test]
    fn cpu_flag_overrides_device() {
        let cli = parse_args(&strs(&["a.pgm", "b.pgm", "--cpu", "--device", "midrange"])).unwrap();
        assert_eq!(cli.engine, Engine::Cpu);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_args(&strs(&[])).is_err());
        assert!(parse_args(&strs(&["a.pgm"])).is_err());
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--bogus"])).is_err());
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--gain"])).is_err());
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--gain", "x"])).is_err());
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--device", "rtx"])).is_err());
        // Invalid parameter values are caught at parse time.
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--osc", "7"])).is_err());
    }

    #[test]
    fn parses_throughput_flags() {
        let cli = parse_args(&strs(&["a.pgm", "b.pgm", "--frames", "32"])).unwrap();
        assert_eq!(cli.frames, 32);
        // Default: a single frame.
        let cli = parse_args(&strs(&["a.pgm", "b.pgm"])).unwrap();
        assert_eq!(cli.frames, 1);
        // Invalid combinations are rejected at parse time.
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--frames", "0"])).is_err());
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--frames", "4", "--cpu"])).is_err());
    }

    #[test]
    fn frames_flag_reports_throughput() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("cli-tp-in-{}.pgm", std::process::id()));
        let out_one = dir.join(format!("cli-tp-one-{}.pgm", std::process::id()));
        let out_six = dir.join(format!("cli-tp-six-{}.pgm", std::process::id()));
        let mfile = dir.join(format!("cli-tp-met-{}.jsonl", std::process::id()));
        let img = imagekit::generate::natural(64, 64, 5).to_u8();
        io::write_pgm(&input, &img).unwrap();
        let one = parse_args(&strs(&[input.to_str().unwrap(), out_one.to_str().unwrap()])).unwrap();
        run(&one).unwrap();
        let six = parse_args(&strs(&[
            input.to_str().unwrap(),
            out_six.to_str().unwrap(),
            "--frames",
            "6",
            "--metrics",
            mfile.to_str().unwrap(),
            "--gantt",
        ]))
        .unwrap();
        let summary = run(&six).unwrap();
        // The gantt shows the single-frame command timeline.
        assert!(summary.contains("sobel_vec4"), "{summary}");
        assert!(
            summary.contains("throughput: 6 frames through one plan"),
            "{summary}"
        );
        assert!(summary.contains("simulated steady-state"), "{summary}");
        assert_eq!(
            std::fs::read(&out_one).unwrap(),
            std::fs::read(&out_six).unwrap()
        );
        // One frame of the same plan, simulated in isolation.
        let pipe = GpuPipeline::new(
            Context::new(DeviceSpec::firepro_w8000()),
            SharpnessParams::default(),
            OptConfig::all(),
        );
        let mut plan = pipe.prepared(64, 64).unwrap();
        let mut out = vec![0.0f32; 64 * 64];
        let single = plan.run_into(&img.to_f32(), &mut out).unwrap().total();
        let six_fold = (0..6).fold(0.0f64, |acc, _| acc + single);
        // The serial simulated time the run reports (the sum of its
        // simulated latency histogram) is six times the single frame's,
        // bit for bit.
        let jsonl = std::fs::read_to_string(&mfile).unwrap();
        let fields = jsonl
            .lines()
            .filter_map(simgpu::metrics::parse_jsonl_line)
            .find(|(name, _)| name == "latency.sim_s")
            .expect("latency.sim_s histogram")
            .1;
        let field = |key: &str| fields.iter().find(|(k, _)| k == key).unwrap().1;
        assert_eq!(field("count"), 6.0);
        assert_eq!(field("sum").to_bits(), six_fold.to_bits());
        assert_eq!(field("max").to_bits(), single.to_bits());
        assert!(jsonl.contains("\"name\":\"throughput.frames\""), "{jsonl}");
        assert!(jsonl.contains("\"name\":\"latency.wall_s\""), "{jsonl}");
        for p in [input, out_one, out_six, mfile] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn parses_no_simd_flag() {
        assert!(!parse_args(&strs(&["a.pgm", "b.pgm"])).unwrap().no_simd);
        let cli = parse_args(&strs(&["a.pgm", "b.pgm", "--no-simd"])).unwrap();
        assert!(cli.no_simd);
        // Valid with either engine: the CPU reference shares the spans.
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--no-simd", "--cpu"])).is_ok());
    }

    #[test]
    fn parses_sanitize_flag_and_rejects_bad_combinations() {
        let cli = parse_args(&strs(&["a.pgm", "b.pgm", "--sanitize"])).unwrap();
        assert!(cli.sanitize);
        assert!(!parse_args(&strs(&["a.pgm", "b.pgm"])).unwrap().sanitize);
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--sanitize", "--cpu"])).is_err());
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--sanitize", "--frames", "4"])).is_err());
    }

    #[test]
    fn sanitize_flag_runs_clean_end_to_end() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("cli-san-in-{}.pgm", std::process::id()));
        let output = dir.join(format!("cli-san-out-{}.pgm", std::process::id()));
        let img = imagekit::generate::natural(64, 64, 4).to_u8();
        io::write_pgm(&input, &img).unwrap();
        let cli = parse_args(&strs(&[
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--sanitize",
        ]))
        .unwrap();
        let summary = run(&cli).unwrap();
        assert!(summary.contains("sanitizer: clean"), "{summary}");
        // The sanitized output is the same image the plain run produces.
        let plain =
            parse_args(&strs(&[input.to_str().unwrap(), output.to_str().unwrap()])).unwrap();
        let plain_summary = run(&plain).unwrap();
        let line = |s: &str| s.lines().next().unwrap_or("").to_string();
        assert_eq!(line(&summary), line(&plain_summary));
        for p in [input, output] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn parses_verify_static_flag() {
        let cli = parse_args(&strs(&["a.pgm", "b.pgm", "--verify-static"])).unwrap();
        assert!(cli.verify_static);
        assert!(
            !parse_args(&strs(&["a.pgm", "b.pgm"]))
                .unwrap()
                .verify_static
        );
        // The static verifier proves GPU dispatch schedules; the CPU
        // reference has none.
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--verify-static", "--cpu"])).is_err());
    }

    #[test]
    fn verify_static_flag_end_to_end() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("cli-vs-in-{}.pgm", std::process::id()));
        let out_plain = dir.join(format!("cli-vs-plain-{}.pgm", std::process::id()));
        let out_verif = dir.join(format!("cli-vs-verif-{}.pgm", std::process::id()));
        let mfile = dir.join(format!("cli-vs-{}.jsonl", std::process::id()));
        // Ragged shape: the proof must cover partial tail groups.
        let img = imagekit::generate::natural(101, 67, 7).to_u8();
        io::write_pgm(&input, &img).unwrap();
        let plain = parse_args(&strs(&[
            input.to_str().unwrap(),
            out_plain.to_str().unwrap(),
        ]))
        .unwrap();
        let plain_summary = run(&plain).unwrap();
        let cli = parse_args(&strs(&[
            input.to_str().unwrap(),
            out_verif.to_str().unwrap(),
            "--verify-static",
            "--metrics",
            mfile.to_str().unwrap(),
        ]))
        .unwrap();
        let summary = run(&cli).unwrap();
        assert!(summary.contains("static verifier:"), "{summary}");
        assert!(summary.contains("proved in-bounds"), "{summary}");
        // Verification is observation-only: same pixels, same simulated
        // milliseconds in the summary line.
        assert_eq!(
            std::fs::read(&out_plain).unwrap(),
            std::fs::read(&out_verif).unwrap()
        );
        let line = |s: &str| s.lines().next().unwrap_or("").to_string();
        assert_eq!(line(&plain_summary), line(&summary));
        // The verifier counters ride along in the metrics export.
        let jsonl = std::fs::read_to_string(&mfile).unwrap();
        assert!(jsonl.contains("\"name\":\"verify.dispatches\""), "{jsonl}");
        assert!(
            jsonl.contains("\"name\":\"verify.max_ratio_slack\""),
            "{jsonl}"
        );
        for p in [input, out_plain, out_verif, mfile] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn parses_metrics_and_profile_flags() {
        let cli = parse_args(&strs(&[
            "a.pgm",
            "b.pgm",
            "--metrics",
            "m.jsonl",
            "--profile",
        ]))
        .unwrap();
        assert_eq!(
            cli.metrics.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        assert!(cli.profile);
        let cli = parse_args(&strs(&["a.pgm", "b.pgm"])).unwrap();
        assert_eq!(cli.metrics, None);
        assert!(!cli.profile);
        // Efficiency metrics come from the simulated device: CPU engine
        // combinations are rejected at parse time.
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--cpu", "--profile"])).is_err());
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--cpu", "--metrics", "m"])).is_err());
    }

    #[test]
    fn metrics_and_profile_end_to_end() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("cli-met-in-{}.pgm", std::process::id()));
        let output = dir.join(format!("cli-met-out-{}.pgm", std::process::id()));
        let mfile = dir.join(format!("cli-met-{}.jsonl", std::process::id()));
        let img = imagekit::generate::natural(64, 64, 11).to_u8();
        io::write_pgm(&input, &img).unwrap();
        let cli = parse_args(&strs(&[
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--metrics",
            mfile.to_str().unwrap(),
            "--profile",
        ]))
        .unwrap();
        let summary = run(&cli).unwrap();
        assert!(summary.contains("kernel efficiency"), "{summary}");
        assert!(summary.contains("host: cpu features ["), "{summary}");
        assert!(summary.contains("kernel backend"), "{summary}");
        assert!(summary.contains("loads/px"), "{summary}");
        assert!(summary.contains("wrote metrics"), "{summary}");
        let jsonl = std::fs::read_to_string(&mfile).unwrap();
        let mut sobel_loads = None;
        for line in jsonl.lines() {
            let (name, fields) =
                simgpu::metrics::parse_jsonl_line(line).unwrap_or_else(|| panic!("{line}"));
            if name == "kernel.sobel_vec4.loads_per_source_pixel" {
                sobel_loads = Some(fields[0].1);
            }
        }
        // The paper's §V.D claim, machine-checked end to end through the
        // CLI export path.
        let loads = sobel_loads.expect("vec4 sobel metric present");
        assert!((loads - 4.5).abs() < 0.01, "loads/px {loads}");
        for p in [input, output, mfile] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn parses_explain_flag() {
        let cli = parse_args(&strs(&["a.pgm", "b.pgm", "--explain"])).unwrap();
        assert!(cli.explain);
        assert!(!parse_args(&strs(&["a.pgm", "b.pgm"])).unwrap().explain);
        // The report needs the simulated device's cost counters.
        assert!(parse_args(&strs(&["a.pgm", "b.pgm", "--explain", "--cpu"])).is_err());
    }

    #[test]
    fn explain_flag_prints_bottleneck_report() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("cli-exp-in-{}.pgm", std::process::id()));
        let output = dir.join(format!("cli-exp-out-{}.pgm", std::process::id()));
        let img = imagekit::generate::natural(64, 64, 21).to_u8();
        io::write_pgm(&input, &img).unwrap();
        let cli = parse_args(&strs(&[
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--explain",
        ]))
        .unwrap();
        let summary = run(&cli).unwrap();
        assert!(summary.contains("bottleneck report: 64x64"), "{summary}");
        assert!(summary.contains("-bound"), "{summary}");
        assert!(summary.contains("host:"), "{summary}");
        assert!(summary.contains("wall/sim:"), "{summary}");
        assert!(summary.contains("phases:"), "{summary}");
        for p in [input, output] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn metrics_path_accepts_a_directory() {
        let dir = std::env::temp_dir().join(format!("cli-metdir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.pgm");
        let output = dir.join("out.pgm");
        let img = imagekit::generate::natural(64, 64, 2).to_u8();
        io::write_pgm(&input, &img).unwrap();
        let cli = parse_args(&strs(&[
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--metrics",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let summary = run(&cli).unwrap();
        let file = dir.join("metrics.jsonl");
        assert!(summary.contains("wrote metrics"), "{summary}");
        let jsonl = std::fs::read_to_string(&file).unwrap();
        assert!(jsonl.contains("\"name\":\"frame.simulated_s\""), "{jsonl}");
        // Span aggregates ride along in the export now.
        assert!(jsonl.contains("span.frame"), "{jsonl}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_reconstruction_classifies_kinds() {
        use sharpness_core::report::StageRecord;
        let report = RunReport {
            output: ImageF32::zeros(4, 4),
            total_s: 4.0,
            stages: vec![
                StageRecord {
                    name: "rect-write:padded".into(),
                    seconds: 1.0,
                },
                StageRecord {
                    name: "sobel_vec4".into(),
                    seconds: 1.0,
                },
                StageRecord {
                    name: "host:reduction".into(),
                    seconds: 1.0,
                },
                StageRecord {
                    name: "read:final".into(),
                    seconds: 1.0,
                },
            ],
        };
        let recs = report_to_records(&report);
        assert_eq!(recs[0].kind, CommandKind::RectWrite);
        assert_eq!(recs[1].kind, CommandKind::Kernel);
        assert_eq!(recs[2].kind, CommandKind::HostWork);
        assert_eq!(recs[3].kind, CommandKind::ReadBuffer);
        assert!((recs[3].start_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_pgm_roundtrip() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("cli-in-{}.pgm", std::process::id()));
        let output = dir.join(format!("cli-out-{}.pgm", std::process::id()));
        let trace = dir.join(format!("cli-trace-{}.json", std::process::id()));
        let img = imagekit::generate::natural(64, 64, 3).to_u8();
        io::write_pgm(&input, &img).unwrap();
        let cli = parse_args(&strs(&[
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--gantt",
        ]))
        .unwrap();
        let summary = run(&cli).unwrap();
        assert!(summary.contains("sharpened 64x64 grayscale"));
        assert!(summary.contains("wrote trace"));
        assert!(summary.contains('#')); // gantt bars
        let out = io::read_pgm(&output).unwrap();
        assert_eq!(out.width(), 64);
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        for p in [input, output, trace] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn end_to_end_ppm_roundtrip() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("cli-in-{}.ppm", std::process::id()));
        let output = dir.join(format!("cli-out-{}.ppm", std::process::id()));
        let g = imagekit::generate::natural(32, 32, 9).to_u8();
        io::write_ppm(&input, &imagekit::rgb::gray_to_rgb(&g)).unwrap();
        let cli = parse_args(&strs(&[
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--color",
            "rgb",
        ]))
        .unwrap();
        let summary = run(&cli).unwrap();
        assert!(summary.contains("3 plane runs"));
        assert!(io::read_ppm(&output).is_ok());
        for p in [input, output] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn parses_serve_defaults_and_flags() {
        let sv = parse_serve_args(&strs(&[])).unwrap();
        assert_eq!((sv.requests, sv.seed), (256, 2015));
        assert_eq!(sv.gap_us, 2000.0);
        assert!(!sv.selfcheck && !sv.sanitize);
        let sv = parse_serve_args(&strs(&[
            "--requests",
            "48",
            "--seed",
            "9",
            "--gap-us",
            "500",
            "--max-batch",
            "8",
            "--queue-cap",
            "16",
            "--cache-cap",
            "4",
            "--shards",
            "2",
            "--opts",
            "none",
            "--selfcheck",
            "--sanitize",
        ]))
        .unwrap();
        assert_eq!(sv.requests, 48);
        assert_eq!(sv.seed, 9);
        assert_eq!(sv.gap_us, 500.0);
        assert_eq!((sv.max_batch, sv.queue_cap), (8, 16));
        assert_eq!((sv.cache_cap, sv.shards), (4, 2));
        assert_eq!(sv.opts, OptConfig::none());
        assert!(sv.selfcheck && sv.sanitize);
        // Invalid values are rejected at parse time.
        assert!(parse_serve_args(&strs(&["--requests", "0"])).is_err());
        assert!(parse_serve_args(&strs(&["--gap-us", "-1"])).is_err());
        assert!(parse_serve_args(&strs(&["--bogus"])).is_err());
        assert!(parse_serve_args(&strs(&["--max-batch", "0"])).is_err());
    }

    #[test]
    fn serve_defaults_are_the_library_defaults() {
        let sv = parse_serve_args(&[]).unwrap();
        let lib = ServiceConfig::default();
        assert_eq!(
            (sv.queue_cap, sv.max_batch, sv.cache_cap, sv.shards),
            (
                lib.queue_capacity,
                lib.max_batch,
                lib.cache_capacity,
                lib.cache_shards
            )
        );
    }

    #[test]
    fn serve_end_to_end_with_selfcheck_and_metrics() {
        let dir = std::env::temp_dir();
        let mfile = dir.join(format!("cli-serve-{}.jsonl", std::process::id()));
        let sv = parse_serve_args(&strs(&[
            "--requests",
            "24",
            "--seed",
            "7",
            "--selfcheck",
            "--metrics",
            mfile.to_str().unwrap(),
        ]))
        .unwrap();
        let summary = run_serve(&sv).unwrap();
        assert!(summary.contains("serve: 24 requests, seed 7"), "{summary}");
        assert!(summary.contains("frames/s wall"), "{summary}");
        assert!(summary.contains("p99"), "{summary}");
        assert!(summary.contains("plan cache:"), "{summary}");
        assert!(
            summary.contains("bit-identical to direct execution"),
            "{summary}"
        );
        let jsonl = std::fs::read_to_string(&mfile).unwrap();
        assert!(jsonl.contains("\"name\":\"service.served\""), "{jsonl}");
        assert!(
            jsonl.contains("\"name\":\"service.latency.sim_s\""),
            "{jsonl}"
        );
        assert!(jsonl.contains("service.pool.evicted"), "{jsonl}");
        std::fs::remove_file(&mfile).ok();
    }

    #[test]
    fn serve_sanitized_matches_plain_serve() {
        let base = strs(&["--requests", "16", "--seed", "3", "--selfcheck"]);
        let plain = run_serve(&parse_serve_args(&base).unwrap()).unwrap();
        let mut san_args = base.clone();
        san_args.push("--sanitize".to_string());
        let sanitized = run_serve(&parse_serve_args(&san_args).unwrap()).unwrap();
        assert!(sanitized.contains("sanitizer: clean"), "{sanitized}");
        // Served/shed/batches and latency-in-simulated-seconds lines are
        // identical: the sanitizer is observation-only.
        let sim_lines = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("served ") || l.contains("simulated, arrival"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(sim_lines(&plain), sim_lines(&sanitized));
    }

    #[test]
    fn header_claiming_more_pixels_than_the_file_holds_is_an_error() {
        // 24 bytes whose header claims 2^20 x 2^20 pixels: the reader must
        // return an error, not try to allocate a terabyte.
        let dir = std::env::temp_dir();
        let input = dir.join(format!("cli-hdr-in-{}.pgm", std::process::id()));
        let output = dir.join(format!("cli-hdr-out-{}.pgm", std::process::id()));
        std::fs::write(&input, b"P5\n1048576 1048576\n255\n\x01\x02").unwrap();
        let cli = parse_args(&strs(&[input.to_str().unwrap(), output.to_str().unwrap()])).unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.contains("1099511627776 bytes"), "{err}");
        assert!(!output.exists());
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn unsupported_extension_rejected() {
        let cli = parse_args(&strs(&["a.png", "b.png"])).unwrap();
        assert!(run(&cli).unwrap_err().contains("unsupported"));
    }
}
