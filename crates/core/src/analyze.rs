//! Automated bottleneck attribution: joins the span tree, per-kernel
//! telemetry and the device cost model into a ranked "where did the time
//! go" report.
//!
//! Three verdict layers, because the repo tracks three currencies:
//!
//! * **per-kernel (simulated device)** — a roofline classification from the
//!   cost model's own decomposition: a kernel is compute-, bandwidth-,
//!   LDS- or launch-bound depending on which term of
//!   `launch + max(alu, mem, lds)` dominates, annotated with arithmetic
//!   intensity vs the device's machine balance and achieved-vs-peak
//!   fractions;
//! * **frame (simulated device)** — transfer-bound when the upload +
//!   readback lanes outweigh compute (the paper's naive-configuration
//!   diagnosis), otherwise the top kernel's verdict;
//! * **host (wall clock)** — the PR 5/6 result re-derived from first
//!   principles: the frame's working set (the caller's frames plus the
//!   full-size planes the frame program keeps, [`host_streams`]) either fits the last-level cache (compute-bound host, SIMD pays off)
//!   or streams from DRAM (bandwidth-bound host, SIMD caps out).
//!
//! Everything here is **observation-only**: inputs are immutable telemetry,
//! span snapshots and device specs; nothing can perturb pixels or the
//! virtual clock. The report is exposed as `sharpen --explain`.

use std::fmt::Write as _;
use std::sync::Arc;

use simgpu::device::DeviceSpec;
use simgpu::span::{aggregate, SpanKind, SpanRecord};
use simgpu::timing::{kernel_time, GpuOpWeights};

use crate::gpu::program::FrameProgram;
use crate::gpu::{OptConfig, Tuning};

use crate::telemetry::{FrameTelemetry, KernelMetrics};

/// Number of full-size f32 streams a `w × h` frame under `opts` and
/// `tuning` keeps live on the host, from the frame program's storage rule:
/// the caller's input and output frames plus every full-size buffer kept
/// as a plane. A plain all-optimizations frame with the border on the
/// device streams three: the input, `padded` and the output.
///
/// # Errors
/// On unsupported shapes.
pub fn host_streams(w: usize, h: usize, opts: &OptConfig, tuning: &Tuning) -> Result<u64, String> {
    Ok(FrameProgram::build(w, h, opts, tuning)?.host_streams())
}

/// What limits a kernel, frame or host run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// ALU throughput limits: arithmetic intensity above machine balance.
    Compute,
    /// Global-memory bandwidth limits.
    Bandwidth,
    /// Local-memory (LDS) bandwidth limits.
    Lds,
    /// Fixed launch overhead dominates (dispatch too small).
    Launch,
    /// Host-device transfers dominate the frame.
    Transfer,
}

impl Bound {
    /// Human-readable label used in the report.
    pub fn label(self) -> &'static str {
        match self {
            Bound::Compute => "compute-bound",
            Bound::Bandwidth => "bandwidth-bound",
            Bound::Lds => "lds-bound",
            Bound::Launch => "launch-bound",
            Bound::Transfer => "transfer-bound",
        }
    }
}

/// Roofline verdict for one kernel (all dispatches of one name).
#[derive(Debug, Clone)]
pub struct KernelVerdict {
    /// Kernel name.
    pub name: Arc<str>,
    /// Simulated seconds across dispatches.
    pub seconds: f64,
    /// Fraction of the frame's simulated time (0..1).
    pub share: f64,
    /// The dominating roofline term.
    pub bound: Bound,
    /// Arithmetic intensity, ALU ops per global byte.
    pub intensity: f64,
    /// Achieved global bandwidth as a fraction of device peak (0..1).
    pub bw_fraction: f64,
    /// Achieved ALU throughput as a fraction of effective peak (0..1).
    pub alu_fraction: f64,
    /// Fraction of the kernel's time that is fixed launch overhead.
    pub launch_share: f64,
    /// Duration-weighted modeled occupancy (0..1).
    pub occupancy: f64,
}

fn classify_kernel(k: &KernelMetrics, dev: &DeviceSpec, frame_s: f64) -> KernelVerdict {
    // The decomposition terms are linear in the counters, so classifying
    // from the dispatch-merged counters is exact; the shared utilisation
    // divisor scales all three terms equally and cannot flip the argmax.
    let t = kernel_time(dev, &k.counters);
    let launch_s = k.dispatches as f64 * dev.launch_overhead_s;
    let launch_share = if k.seconds > 0.0 {
        (launch_s / k.seconds).min(1.0)
    } else {
        0.0
    };
    let bound = if launch_share > 0.5 {
        Bound::Launch
    } else if t.mem_s >= t.alu_s && t.mem_s >= t.lds_s {
        Bound::Bandwidth
    } else if t.alu_s >= t.lds_s {
        Bound::Compute
    } else {
        Bound::Lds
    };
    let alu_fraction = if k.seconds > 0.0 {
        (GpuOpWeights::default().cycles(&k.counters.ops) / dev.effective_lane_hz() / k.seconds)
            .min(1.0)
    } else {
        0.0
    };
    KernelVerdict {
        name: Arc::clone(&k.name),
        seconds: k.seconds,
        share: if frame_s > 0.0 {
            k.seconds / frame_s
        } else {
            0.0
        },
        bound,
        intensity: k.arithmetic_intensity(),
        bw_fraction: k.bandwidth_fraction(dev),
        alu_fraction,
        launch_share,
        occupancy: k.occupancy,
    }
}

/// Host-side wall-clock verdict: is the frame's working set resident in
/// the last-level cache?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostVerdict {
    /// Estimated live bytes per frame ([`host_streams`] f32 streams).
    pub working_set_bytes: u64,
    /// Last-level cache size the verdict was made against.
    pub llc_bytes: u64,
    /// Whether the working set fits the cache.
    pub resident: bool,
    /// [`Bound::Compute`] when resident, [`Bound::Bandwidth`] when the
    /// frame streams from DRAM.
    pub bound: Bound,
}

/// Classifies the host execution of a `width`×`height` frame of `streams`
/// full-size f32 streams ([`host_streams`]) against an LLC of `llc_bytes`
/// (use `autotune::detected_cache_bytes()` for the running machine, or
/// pass a size explicitly for reproducible tests).
pub fn host_verdict(width: usize, height: usize, streams: u64, llc_bytes: usize) -> HostVerdict {
    let working_set_bytes = streams * (width as u64) * (height as u64) * 4;
    let resident = working_set_bytes <= llc_bytes as u64;
    HostVerdict {
        working_set_bytes,
        llc_bytes: llc_bytes as u64,
        resident,
        bound: if resident {
            Bound::Compute
        } else {
            Bound::Bandwidth
        },
    }
}

/// Wall-clock vs simulated time of the frame span, when spans were
/// recorded.
#[derive(Debug, Clone, Copy)]
pub struct WallSim {
    /// Host wall-clock seconds of the frame span.
    pub wall_s: f64,
    /// Simulated seconds of the frame span.
    pub sim_s: f64,
}

impl WallSim {
    /// Wall seconds per simulated second (how much faster/slower the host
    /// executes the frame than the modeled device would).
    pub fn ratio(&self) -> f64 {
        if self.sim_s > 0.0 {
            self.wall_s / self.sim_s
        } else {
            0.0
        }
    }
}

/// One phase row of the report: a depth-1 span aggregate.
#[derive(Debug, Clone)]
pub struct PhaseShare {
    /// Phase name (`upload`, `sobel`, `readback`, ...).
    pub name: String,
    /// Simulated seconds aggregated over the phase's spans.
    pub sim_s: f64,
    /// Host wall-clock seconds aggregated over the phase's spans.
    pub wall_s: f64,
    /// Fraction of the frame's simulated time (0..1).
    pub share: f64,
}

/// The full bottleneck attribution for one frame.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Device the frame ran on (name used in the report header).
    pub device: &'static str,
    /// Total simulated seconds.
    pub simulated_s: f64,
    /// Device machine balance: effective ALU ops per global byte at peak.
    pub machine_balance: f64,
    /// Simulated seconds in host↔device transfers (upload + readback).
    pub transfer_s: f64,
    /// Transfer fraction of the frame (0..1).
    pub transfer_share: f64,
    /// Frame-level verdict.
    pub frame_bound: Bound,
    /// Per-kernel verdicts, ranked by simulated seconds, largest first.
    pub kernels: Vec<KernelVerdict>,
    /// Host-side wall-clock verdict.
    pub host: HostVerdict,
    /// Wall vs simulated time of the frame span, when spans were recorded.
    pub wall_sim: Option<WallSim>,
    /// Depth-1 phase aggregates from the span tree, in tree order.
    pub phases: Vec<PhaseShare>,
}

/// Builds the attribution report from one frame's telemetry, its span
/// snapshot (may be empty), the device it ran on, the frame's host
/// streams ([`host_streams`]), and the host LLC size to judge wall-clock
/// behaviour against.
pub fn explain(
    tel: &FrameTelemetry,
    spans: &[SpanRecord],
    dev: &DeviceSpec,
    streams: u64,
    llc_bytes: usize,
) -> Explanation {
    let mut kernels: Vec<KernelVerdict> = tel
        .kernels
        .iter()
        .map(|k| classify_kernel(k, dev, tel.simulated_s))
        .collect();
    kernels.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));

    let transfer_s = tel.upload_s + tel.download_s;
    let transfer_share = if tel.simulated_s > 0.0 {
        transfer_s / tel.simulated_s
    } else {
        0.0
    };
    let frame_bound = if transfer_share > 0.5 {
        Bound::Transfer
    } else {
        kernels.first().map_or(Bound::Compute, |k| k.bound)
    };

    let wall_sim = spans
        .iter()
        .find(|s| s.kind == SpanKind::Frame)
        .map(|f| WallSim {
            wall_s: f.wall_s(),
            sim_s: f.sim_s(),
        });
    let phases = aggregate(spans)
        .into_iter()
        .filter(|a| a.kind == SpanKind::Phase && a.path.matches('/').count() == 1)
        .map(|a| PhaseShare {
            share: if tel.simulated_s > 0.0 {
                a.sim_s / tel.simulated_s
            } else {
                0.0
            },
            name: a.path.split('/').next_back().unwrap_or("").to_string(),
            sim_s: a.sim_s,
            wall_s: a.wall_s,
        })
        .collect();

    Explanation {
        width: tel.width,
        height: tel.height,
        device: dev.name,
        simulated_s: tel.simulated_s,
        machine_balance: dev.effective_lane_hz() / dev.mem_bw,
        transfer_s,
        transfer_share,
        frame_bound,
        kernels,
        host: host_verdict(tel.width, tel.height, streams, llc_bytes),
        wall_sim,
        phases,
    }
}

impl Explanation {
    /// The `n` largest kernel verdicts (all of them if fewer).
    pub fn top(&self, n: usize) -> &[KernelVerdict] {
        &self.kernels[..n.min(self.kernels.len())]
    }

    /// Renders the ranked report `sharpen --explain` prints.
    pub fn render(&self, top_n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bottleneck report: {}x{} frame on {} (machine balance {:.1} op/B)",
            self.width, self.height, self.device, self.machine_balance,
        );
        let _ = writeln!(
            out,
            "frame: {} — transfers {:.1}% of {:.3} simulated ms",
            self.frame_bound.label(),
            self.transfer_share * 100.0,
            self.simulated_s * 1e3,
        );
        let _ = writeln!(
            out,
            "host:  working set {:.1} MiB vs LLC {:.1} MiB → {} ({} wall-clock)",
            self.host.working_set_bytes as f64 / (1 << 20) as f64,
            self.host.llc_bytes as f64 / (1 << 20) as f64,
            if self.host.resident {
                "LLC-resident"
            } else {
                "DRAM-streaming"
            },
            self.host.bound.label(),
        );
        if let Some(ws) = &self.wall_sim {
            let _ = writeln!(
                out,
                "wall/sim: {:.3} ms wall / {:.3} ms simulated = {:.2}x",
                ws.wall_s * 1e3,
                ws.sim_s * 1e3,
                ws.ratio(),
            );
        }
        let name_w = self
            .kernels
            .iter()
            .map(|k| k.name.chars().count())
            .max()
            .unwrap_or(6)
            .max(6);
        let _ = writeln!(
            out,
            "rank {:<name_w$} {:>9} {:>6} {:>15} {:>7} {:>7} {:>7} {:>5}",
            "kernel", "sim µs", "share", "verdict", "AI op/B", "bw/peak", "alu/pk", "occ",
        );
        for (i, k) in self.top(top_n).iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>4} {:<name_w$} {:>9.1} {:>5.1}% {:>15} {:>7.2} {:>6.1}% {:>6.1}% {:>5.2}",
                i + 1,
                k.name,
                k.seconds * 1e6,
                k.share * 100.0,
                k.bound.label(),
                k.intensity,
                k.bw_fraction * 100.0,
                k.alu_fraction * 100.0,
                k.occupancy,
            );
        }
        if !self.phases.is_empty() {
            let _ = write!(out, "phases:");
            for p in &self.phases {
                let _ = write!(out, " {} {:.1}%", p.name, p.share * 100.0);
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuPipeline;
    use crate::params::SharpnessParams;
    use imagekit::generate;
    use simgpu::context::Context;

    /// The container-class LLC the PR 5/6 diagnoses were made on.
    const LLC: usize = 105 << 20;

    fn observed(cfg: OptConfig, w: usize) -> (FrameTelemetry, Vec<SpanRecord>) {
        let ctx = Context::new(DeviceSpec::firepro_w8000()).with_spans();
        let pipe = GpuPipeline::new(ctx, SharpnessParams::default(), cfg);
        let mut plan = pipe.prepared(w, w).unwrap();
        let img = generate::natural(w, w, 7);
        let mut out = vec![0.0f32; w * w];
        plan.run_into(&img, &mut out).unwrap();
        (plan.telemetry(), plan.spans())
    }

    #[test]
    fn naive_config_is_transfer_bound_and_opts_cut_transfer_time() {
        // The paper's base-version diagnosis: at 1024² the unoptimized
        // configuration spends most of its simulated frame moving data.
        let (naive, spans) = observed(OptConfig::none(), 1024);
        let e = explain(&naive, &spans, &DeviceSpec::firepro_w8000(), 8, LLC);
        assert_eq!(e.frame_bound, Bound::Transfer, "{}", e.render(8));
        assert!(e.transfer_share > 0.5, "share {}", e.transfer_share);
        // And the transfer optimization's claim in absolute terms: the
        // optimized ladder moves strictly less transfer time per frame.
        let (opt, _) = observed(OptConfig::all(), 1024);
        let eo = explain(&opt, &[], &DeviceSpec::firepro_w8000(), 3, LLC);
        assert!(
            eo.transfer_s < e.transfer_s,
            "optimized transfers {} s vs naive {} s",
            eo.transfer_s,
            e.transfer_s
        );
    }

    #[test]
    fn host_streams_follow_the_storage_rule() {
        let streams = |opts, tuning| host_streams(256, 256, &opts, &tuning).unwrap();
        let gpu_border = Tuning {
            border_gpu_min_width: 0,
            ..Tuning::default()
        };
        // The input, `padded` and the output.
        assert_eq!(streams(OptConfig::all(), gpu_border), 3);
        // With the border on the host, `up` is a plane too.
        assert_eq!(streams(OptConfig::all(), Tuning::default()), 4);
        // The CPU reduction reads `pEdge` back: it is a plane.
        let cpu_reduction = OptConfig {
            reduction_gpu: false,
            ..OptConfig::all()
        };
        assert_eq!(streams(cpu_reduction, gpu_border), 4);
        // The base configuration: `padded`, `original`, `up`, `pEdge`,
        // `pError` and `prelim`, with the caller's two frames.
        assert_eq!(streams(OptConfig::none(), Tuning::default()), 8);
    }

    #[test]
    fn host_is_compute_bound_at_1024_and_bandwidth_bound_at_4096() {
        // The 105 MiB LLC holds a 1024² frame's 12 MiB working set (SIMD
        // pays), while 4096² needs 192 MiB and streams from DRAM.
        let streams = |w| host_streams(w, w, &OptConfig::all(), &Tuning::default()).unwrap();
        let h1k = host_verdict(1024, 1024, streams(1024), LLC);
        assert_eq!(h1k.working_set_bytes, 12 << 20);
        assert!(h1k.resident);
        assert_eq!(h1k.bound, Bound::Compute);
        let h4k = host_verdict(4096, 4096, streams(4096), LLC);
        assert_eq!(h4k.working_set_bytes, 192 << 20);
        assert!(!h4k.resident);
        assert_eq!(h4k.bound, Bound::Bandwidth);
        // The vec4 Sobel keeps ≤4.6 loads/px (§V.D), so residency — not
        // redundant traffic — is what decides the host verdict.
        let (tel, _) = observed(OptConfig::all(), 64);
        let loads = tel.sobel_loads_per_source_pixel().unwrap();
        assert!(loads <= 4.6, "loads/px {loads}");
    }

    #[test]
    fn kernels_rank_by_simulated_seconds() {
        let (tel, spans) = observed(OptConfig::all(), 256);
        let e = explain(&tel, &spans, &DeviceSpec::firepro_w8000(), 3, LLC);
        assert!(!e.kernels.is_empty());
        for pair in e.kernels.windows(2) {
            assert!(pair[0].seconds >= pair[1].seconds);
        }
        assert_eq!(e.top(3).len(), 3.min(e.kernels.len()));
        // Shares and fractions are sane.
        for k in &e.kernels {
            assert!((0.0..=1.0).contains(&k.share), "{} {}", k.name, k.share);
            assert!(k.bw_fraction <= 1.0 + 1e-9, "{}", k.name);
            assert!(k.alu_fraction <= 1.0, "{}", k.name);
        }
    }

    #[test]
    fn verdict_tracks_the_cost_model_decomposition() {
        let dev = DeviceSpec::firepro_w8000();
        let (tel, _) = observed(OptConfig::all(), 256);
        for k in &tel.kernels {
            let v = classify_kernel(k, &dev, tel.simulated_s);
            let t = kernel_time(&dev, &k.counters);
            match v.bound {
                Bound::Bandwidth => assert!(t.mem_s >= t.alu_s && t.mem_s >= t.lds_s),
                Bound::Compute => assert!(t.alu_s >= t.mem_s || v.launch_share <= 0.5),
                Bound::Lds => assert!(t.lds_s > t.alu_s && t.lds_s > t.mem_s),
                Bound::Launch => assert!(v.launch_share > 0.5),
                Bound::Transfer => panic!("kernels are never transfer-bound"),
            }
            // A kernel whose intensity is below machine balance and that
            // isn't launch-dominated must be memory-limited.
            if v.intensity < dev.effective_lane_hz() / dev.mem_bw && v.launch_share <= 0.5 {
                assert_ne!(v.bound, Bound::Compute, "{}", k.name);
            }
        }
    }

    #[test]
    fn report_renders_phases_and_wall_sim_when_spans_present() {
        let (tel, spans) = observed(OptConfig::all(), 64);
        let e = explain(&tel, &spans, &DeviceSpec::firepro_w8000(), 3, LLC);
        assert!(e.wall_sim.is_some());
        assert!(!e.phases.is_empty());
        let text = e.render(5);
        assert!(text.contains("bottleneck report: 64x64"), "{text}");
        assert!(text.contains("frame:"), "{text}");
        assert!(text.contains("host:"), "{text}");
        assert!(text.contains("wall/sim:"), "{text}");
        assert!(text.contains("phases:"), "{text}");
        assert!(text.contains("sobel"), "{text}");
        // Without spans the report still renders, minus the span rows.
        let e2 = explain(&tel, &[], &DeviceSpec::firepro_w8000(), 3, LLC);
        assert!(e2.wall_sim.is_none());
        assert!(e2.phases.is_empty());
        assert!(!e2.render(5).contains("wall/sim:"));
    }
}
