//! Model-based search over the schedule space, plus the closed-form stage
//! probes behind the paper's component figures (Figs. 15–17) and
//! [`crate::autotune`].
//!
//! Every candidate is evaluated with [`predict_frame`] — the bit-exact
//! closed-form predictor — so walking the full space costs microseconds
//! per candidate instead of a simulated pipeline execution per probe.
//! [`SearchMode::Exhaustive`] enumerates the full cross product: 64
//! [`OptConfig`]s × 3 reduction strategies × {host, device} stage-2
//! placement × {CPU, GPU} border placement, 768 candidates per shape.
//! [`SearchMode::Guided`] fixes one axis at a time (~71 candidates); a
//! unit test below checks that both walks pick the same argmin on every
//! device preset.
//!
//! Like the predictor, this module must stay execution-free — no
//! pipelines, no queues, no buffers (a lint rule enforces it). The wall
//! clock of a search is measured by callers (the `tune` bin and the
//! bench) and exported as the `tune.search_wall_s` gauge; it is kept out
//! of [`TuneReport::to_registry`] so committed metric baselines stay
//! deterministic.

use simgpu::access::BufRef;
use simgpu::device::{CpuSpec, DeviceSpec};
use simgpu::metrics::MetricsRegistry;
use simgpu::timing::{bulk_transfer_time, cpu_stage_time, kernel_time};

use crate::gpu::kernels::reduction::{
    stage1_access, stage1_desc, stage1_groups, stage2_access, stage2_desc, ReductionStrategy,
};
use crate::gpu::kernels::upscale::border_kernels;
use crate::gpu::kernels::KernelTuning;
use crate::gpu::program::{border_elems, border_host_counters, host_sum_counters};
use crate::gpu::{OptConfig, Tuning};
use crate::params::{device_stride, SCALE};

use super::predict::predict_frame;

/// How [`search`] walks the candidate space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// The full cross product of every axis (768 candidates per shape).
    Exhaustive,
    /// One axis at a time: flags at the paper-default tuning, then the
    /// reduction strategy, stage-2 placement and border placement on the
    /// winner (~71 candidates).
    Guided,
}

/// The argmin of one `(shape, device)` search, with enough context to
/// report and to gate regressions.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Image width the search tuned for.
    pub w: usize,
    /// Image height the search tuned for.
    pub h: usize,
    /// Device preset name the candidates were costed on.
    pub device: &'static str,
    /// Which walk produced this report.
    pub mode: SearchMode,
    /// Winning optimization flags.
    pub opts: OptConfig,
    /// Winning tuning. `stage2_gpu_threshold` and `border_gpu_min_width`
    /// encode the binary per-shape placement decisions (`usize::MAX` /
    /// partials−1 for host/device stage 2; `w+1` / `w` for CPU/GPU
    /// border), not a crossover — crossovers come from
    /// [`crate::autotune::autotune`].
    pub tuning: Tuning,
    /// Predicted simulated seconds of the winner (bit-identical to what
    /// executing it would report).
    pub predicted_s: f64,
    /// Predicted simulated seconds of the paper's hand-tuned default
    /// ([`OptConfig::all`] + [`Tuning::default`]) on the same shape and
    /// device.
    pub default_s: f64,
    /// Candidates evaluated.
    pub candidates: usize,
}

impl TuneReport {
    /// Simulated speedup of the tuned schedule over the paper default
    /// (> 1.0 means the search beat the hand-tuned configuration).
    pub fn speedup_vs_default(&self) -> f64 {
        self.default_s / self.predicted_s
    }

    /// Exports the deterministic `tune.*` gauges (everything but search
    /// wall time, which callers measure and export separately).
    pub fn to_registry(&self, reg: &mut MetricsRegistry) {
        reg.set_gauge("tune.candidates", self.candidates as f64);
        reg.set_gauge("tune.predicted_best_s", self.predicted_s);
        reg.set_gauge("tune.default_s", self.default_s);
        reg.set_gauge("tune.speedup_vs_default", self.speedup_vs_default());
        reg.set_gauge("tune.flag_bits", f64::from(self.opts.bits()));
        let strategy = match self.tuning.reduction_strategy {
            ReductionStrategy::NoUnroll => 0.0,
            ReductionStrategy::UnrollOne => 1.0,
            ReductionStrategy::UnrollTwo => 2.0,
        };
        reg.set_gauge("tune.reduction_strategy", strategy);
        let stage2_device =
            stage1_groups(device_stride(self.w) * self.h) > self.tuning.stage2_gpu_threshold;
        reg.set_gauge("tune.stage2_device", f64::from(u8::from(stage2_device)));
        let border_gpu = self.opts.border_gpu && self.w >= self.tuning.border_gpu_min_width;
        reg.set_gauge("tune.border_gpu", f64::from(u8::from(border_gpu)));
    }

    /// One human-readable line for CLI summaries.
    pub fn summary_line(&self) -> String {
        let stage2 =
            if stage1_groups(device_stride(self.w) * self.h) > self.tuning.stage2_gpu_threshold {
                "device"
            } else {
                "host"
            };
        let border = if self.opts.border_gpu && self.w >= self.tuning.border_gpu_min_width {
            "gpu"
        } else {
            "cpu"
        };
        format!(
            "tune: {}x{} on {}: best {} ({:?}, stage2 {stage2}, border {border}) \
             predicted {:.3} ms, {:.3}x vs paper default ({} candidates{})",
            self.w,
            self.h,
            self.device,
            flags_label(&self.opts),
            self.tuning.reduction_strategy,
            self.predicted_s * 1e3,
            self.speedup_vs_default(),
            self.candidates,
            if self.mode == SearchMode::Guided {
                ", guided"
            } else {
                ""
            },
        )
    }
}

/// Compact label for a flag set, e.g. `dt+kf+red+vec+bord+oth` or `base`.
pub fn flags_label(o: &OptConfig) -> String {
    let names = [
        (o.data_transfer, "dt"),
        (o.kernel_fusion, "kf"),
        (o.reduction_gpu, "red"),
        (o.vectorization, "vec"),
        (o.border_gpu, "bord"),
        (o.others, "oth"),
    ];
    let on: Vec<&str> = names.iter().filter(|(b, _)| *b).map(|&(_, n)| n).collect();
    if on.is_empty() {
        "base".to_string()
    } else {
        on.join("+")
    }
}

/// Finds the fastest predicted schedule for one `(w, h)` frame on one
/// device, evaluating candidates purely through the cost model.
///
/// Ties keep the earliest candidate in the fixed enumeration order
/// (flag bits ascending; `NoUnroll` → `UnrollOne` → `UnrollTwo`; host
/// stage 2 before device; CPU border before GPU), so inert axes settle
/// on the least-machinery choice deterministically.
///
/// # Errors
/// On unsupported shapes (propagated from the predictor).
pub fn search(
    w: usize,
    h: usize,
    dev: &DeviceSpec,
    cpu: &CpuSpec,
    mode: SearchMode,
) -> Result<TuneReport, String> {
    let groups = stage1_groups(device_stride(w) * h);
    // Host stage 2 first (threshold no partial count exceeds), then
    // device (threshold just below this shape's partial count).
    let thresholds = [usize::MAX, groups.saturating_sub(1)];
    // CPU border first (crossover above this width), then GPU (at it).
    let border_widths = [w + 1, w];
    let strategies = [
        ReductionStrategy::NoUnroll,
        ReductionStrategy::UnrollOne,
        ReductionStrategy::UnrollTwo,
    ];

    let mut candidates = 0usize;
    let mut best: Option<(OptConfig, Tuning, f64)> = None;
    let consider = |opts: OptConfig,
                    tuning: Tuning,
                    candidates: &mut usize,
                    best: &mut Option<(OptConfig, Tuning, f64)>|
     -> Result<(), String> {
        let p = predict_frame(w, h, &opts, &tuning, dev, cpu)?;
        *candidates += 1;
        if best.as_ref().is_none_or(|(_, _, t)| p.total_s < *t) {
            *best = Some((opts, tuning, p.total_s));
        }
        Ok(())
    };

    match mode {
        SearchMode::Exhaustive => {
            for bits in 0u32..64 {
                let opts = OptConfig::from_bits(bits);
                for strategy in strategies {
                    for &stage2 in &thresholds {
                        for &border_w in &border_widths {
                            let tuning = Tuning {
                                reduction_strategy: strategy,
                                stage2_gpu_threshold: stage2,
                                border_gpu_min_width: border_w,
                            };
                            consider(opts, tuning, &mut candidates, &mut best)?;
                        }
                    }
                }
            }
        }
        SearchMode::Guided => {
            // Axis 1: flags, at the paper-default tuning.
            for bits in 0u32..64 {
                consider(
                    OptConfig::from_bits(bits),
                    Tuning::default(),
                    &mut candidates,
                    &mut best,
                )?;
            }
            // Axis 2: reduction strategy on the winning flags.
            let opts = best.as_ref().expect("64 candidates evaluated").0;
            for strategy in strategies {
                let tuning = Tuning {
                    reduction_strategy: strategy,
                    ..best.as_ref().expect("nonempty").1
                };
                consider(opts, tuning, &mut candidates, &mut best)?;
            }
            // Axis 3: stage-2 placement.
            for &stage2 in &thresholds {
                let tuning = Tuning {
                    stage2_gpu_threshold: stage2,
                    ..best.as_ref().expect("nonempty").1
                };
                consider(opts, tuning, &mut candidates, &mut best)?;
            }
            // Axis 4: border placement — flag and width move together, so
            // the axis stays live even when axis 1 ran below the default
            // crossover (where the bare flag is inert).
            let (opts, tuning, _) = *best.as_ref().expect("nonempty");
            for (flag, border_w) in [(false, w + 1), (true, w)] {
                let opts = OptConfig {
                    border_gpu: flag,
                    ..opts
                };
                let tuning = Tuning {
                    border_gpu_min_width: border_w,
                    ..tuning
                };
                consider(opts, tuning, &mut candidates, &mut best)?;
            }
        }
    }

    let (opts, tuning, predicted_s) = best.expect("search evaluated at least one candidate");
    let default_s = predict_frame(w, h, &OptConfig::all(), &Tuning::default(), dev, cpu)?.total_s;
    Ok(TuneReport {
        w,
        h,
        device: dev.name,
        mode,
        opts,
        tuning,
        predicted_s,
        default_s,
        candidates,
    })
}

/// [`search`] restricted to the *pixel-invariant* axes: transfer
/// strategy, kernel fusion, vectorization, border placement, the extra
/// optimizations and the reduction unrolling strategy. The two
/// summation-order axes — the `reduction_gpu` flag (host sequential sum
/// vs device tree) and the stage-2 host/device placement — change the
/// rounding of the global pEdge mean and with it the output pixels, so
/// they stay pinned to `pinned_opts`/`pinned_tuning`. The service plan
/// cache tunes through this entry so a tuned plan's pixels are
/// bit-identical to the fixed pipeline's.
///
/// The walk is exhaustive over the restricted space (32 flag sets × 3
/// strategies × 2 border placements = 192 candidates) and the pinned
/// configuration's effective behavior is inside it, so the winner always
/// beats-or-ties the pinned configuration. The report's `mode` is
/// [`SearchMode::Exhaustive`]; `default_s` still refers to the paper
/// default, as everywhere else.
///
/// # Errors
/// On unsupported shapes (propagated from the predictor).
pub fn search_pixel_invariant(
    w: usize,
    h: usize,
    dev: &DeviceSpec,
    cpu: &CpuSpec,
    pinned_opts: &OptConfig,
    pinned_tuning: &Tuning,
) -> Result<TuneReport, String> {
    let strategies = [
        ReductionStrategy::NoUnroll,
        ReductionStrategy::UnrollOne,
        ReductionStrategy::UnrollTwo,
    ];
    let border_widths = [w + 1, w];
    let mut candidates = 0usize;
    let mut best: Option<(OptConfig, Tuning, f64)> = None;
    for bits in 0u32..64 {
        let opts = OptConfig::from_bits(bits);
        if opts.reduction_gpu != pinned_opts.reduction_gpu {
            continue;
        }
        for strategy in strategies {
            for &border_w in &border_widths {
                let tuning = Tuning {
                    reduction_strategy: strategy,
                    stage2_gpu_threshold: pinned_tuning.stage2_gpu_threshold,
                    border_gpu_min_width: border_w,
                };
                let p = predict_frame(w, h, &opts, &tuning, dev, cpu)?;
                candidates += 1;
                if best.as_ref().is_none_or(|(_, _, t)| p.total_s < *t) {
                    best = Some((opts, tuning, p.total_s));
                }
            }
        }
    }
    let (opts, tuning, predicted_s) = best.expect("pinned search evaluated 192 candidates");
    let default_s = predict_frame(w, h, &OptConfig::all(), &Tuning::default(), dev, cpu)?.total_s;
    Ok(TuneReport {
        w,
        h,
        device: dev.name,
        mode: SearchMode::Exhaustive,
        opts,
        tuning,
        predicted_s,
        default_s,
        candidates,
    })
}

// ---------------------------------------------------------------------------
// Closed-form stage probes: the in-pipeline cost of one stage with its
// input already resident on the device (as it is mid-pipeline), so the CPU
// variants pay the device→host transfer the paper highlights ("the
// procedure of reduction on CPU includes transferring the pEdge matrix
// from GPU to CPU"). Each sums the durations of the stage's commands in
// the order a queue would record them — no syncs, always-bulk readbacks,
// default kernel tuning — costing every kernel with the declaration its
// own access constructor returns and every host stage with the frame
// program's recipe, so `crate::autotune` decides in microseconds and the
// figures need no execution.
// ---------------------------------------------------------------------------

/// Predicted seconds of the GPU reduction probe: stage 1 over `n`
/// elements, then either the device stage 2 plus a one-element readback
/// (partial count above `stage2_threshold`) or a partials readback plus
/// the host-side sum.
pub fn reduction_gpu_model(
    dev: &DeviceSpec,
    cpu: &CpuSpec,
    n: usize,
    strategy: ReductionStrategy,
    stage2_threshold: usize,
) -> f64 {
    let groups = stage1_groups(n);
    let (src, partials) = (BufRef::f32("pEdge", n), BufRef::f32("partials", groups));
    let desc = stage1_desc(n, strategy);
    let stage1 = stage1_access(&desc, 0..desc.total_groups(), &src, &partials, n, strategy);
    let mut t = kernel_time(dev, &stage1.charged).total_s;
    if groups > stage2_threshold {
        let out = BufRef::f32("reduction_out", 1);
        let stage2 = stage2_access(&stage2_desc(), &partials, groups, &out);
        t += kernel_time(dev, &stage2.charged).total_s;
        t += bulk_transfer_time(&dev.transfer, 4);
    } else {
        t += bulk_transfer_time(&dev.transfer, groups as u64 * 4);
        t += cpu_stage_time(cpu, &host_sum_counters(groups));
    }
    t
}

/// Predicted seconds of the CPU reduction probe: read all `n` elements
/// back, sum on the host.
pub fn reduction_cpu_model(dev: &DeviceSpec, cpu: &CpuSpec, n: usize) -> f64 {
    let mut t = bulk_transfer_time(&dev.transfer, n as u64 * 4);
    t += cpu_stage_time(cpu, &host_sum_counters(n));
    t
}

/// Predicted seconds of the GPU border probe: the four border kernels
/// (top, bottom, left, right), nothing else.
pub fn border_gpu_model(dev: &DeviceSpec, w: usize, h: usize) -> f64 {
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let ws = device_stride(w);
    let (down, up) = (BufRef::f32("down", wd * hd), BufRef::f32("up", ws * h));
    let mut t = 0.0;
    for k in border_kernels(w, h) {
        let access = k.access(&down, &up, w, h, ws, KernelTuning::default());
        t += kernel_time(dev, &access.charged).total_s;
    }
    t
}

/// Predicted seconds of the CPU border probe: read the downscaled image
/// back, interpolate the border on the host, write the border band to
/// the device.
pub fn border_cpu_model(dev: &DeviceSpec, cpu: &CpuSpec, w: usize, h: usize) -> f64 {
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let mut t = bulk_transfer_time(&dev.transfer, (wd * hd * 4) as u64);
    t += cpu_stage_time(cpu, &border_host_counters(w, h));
    t += bulk_transfer_time(&dev.transfer, border_elems(w, h) * 4);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w8000() -> (DeviceSpec, CpuSpec) {
        (DeviceSpec::firepro_w8000(), CpuSpec::core_i5_3470())
    }

    #[test]
    fn exhaustive_search_covers_the_full_space() {
        let (dev, cpu) = w8000();
        let r = search(256, 256, &dev, &cpu, SearchMode::Exhaustive).unwrap();
        assert_eq!(r.candidates, 64 * 3 * 2 * 2);
        assert!(r.predicted_s > 0.0);
        assert!(r.predicted_s <= r.default_s, "argmin beats any fixed point");
    }

    #[test]
    fn guided_search_agrees_with_exhaustive_on_every_preset() {
        let cpu = CpuSpec::core_i5_3470();
        let presets = [
            DeviceSpec::firepro_w8000(),
            DeviceSpec::midrange_gpu(),
            DeviceSpec::apu(),
            DeviceSpec::embedded_gpu(),
            DeviceSpec::hbm_gpu(),
        ];
        for dev in &presets {
            for (w, h) in [(256, 256), (1001, 701)] {
                let ex = search(w, h, dev, &cpu, SearchMode::Exhaustive).unwrap();
                let gd = search(w, h, dev, &cpu, SearchMode::Guided).unwrap();
                assert!(gd.candidates < ex.candidates / 10);
                assert_eq!(
                    ex.predicted_s.to_bits(),
                    gd.predicted_s.to_bits(),
                    "{} {w}x{h}: guided {} vs exhaustive {}",
                    dev.name,
                    gd.summary_line(),
                    ex.summary_line()
                );
            }
        }
    }

    #[test]
    fn report_exports_deterministic_gauges() {
        let (dev, cpu) = w8000();
        let r = search(256, 256, &dev, &cpu, SearchMode::Guided).unwrap();
        let mut reg = MetricsRegistry::new();
        r.to_registry(&mut reg);
        assert_eq!(reg.gauge("tune.candidates"), r.candidates as f64);
        assert_eq!(reg.gauge("tune.predicted_best_s"), r.predicted_s);
        assert!(reg.gauge("tune.speedup_vs_default") >= 1.0);
        assert!(
            reg.get("tune.search_wall_s").is_none(),
            "wall time is caller-owned"
        );
    }

    #[test]
    fn pixel_invariant_search_respects_its_pins() {
        let (dev, cpu) = w8000();
        for pin_red in [true, false] {
            let pinned = OptConfig {
                reduction_gpu: pin_red,
                ..OptConfig::all()
            };
            let r =
                search_pixel_invariant(256, 256, &dev, &cpu, &pinned, &Tuning::default()).unwrap();
            assert_eq!(r.candidates, 32 * 3 * 2);
            assert_eq!(r.opts.reduction_gpu, pin_red, "{}", r.summary_line());
            assert_eq!(
                r.tuning.stage2_gpu_threshold,
                Tuning::default().stage2_gpu_threshold
            );
            // The pinned configuration's effective behavior is in the
            // space, so the winner can only beat or tie it.
            let pinned_s = predict_frame(256, 256, &pinned, &Tuning::default(), &dev, &cpu)
                .unwrap()
                .total_s;
            assert!(r.predicted_s <= pinned_s);
        }
    }

    #[test]
    fn flags_label_is_compact() {
        assert_eq!(flags_label(&OptConfig::none()), "base");
        assert_eq!(flags_label(&OptConfig::all()), "dt+kf+red+vec+bord+oth");
    }

    // The stage probes' figure shapes (Figs. 15–17).

    #[test]
    fn gpu_reduction_beats_cpu_at_scale() {
        // Fig. 16: at large sizes the GPU reduction wins by a wide margin.
        let (dev, cpu) = w8000();
        let n = 4096 * 4096;
        let t_cpu = reduction_cpu_model(&dev, &cpu, n);
        let t_gpu = reduction_gpu_model(&dev, &cpu, n, ReductionStrategy::UnrollOne, 4096);
        assert!(t_gpu * 5.0 < t_cpu, "gpu {t_gpu} vs cpu {t_cpu}");
    }

    #[test]
    fn reduction_times_scale_with_n() {
        let (dev, cpu) = w8000();
        let t = |n| reduction_gpu_model(&dev, &cpu, n, ReductionStrategy::UnrollOne, 4096);
        assert!(t(2048 * 2048) > t(256 * 256));
    }

    #[test]
    fn border_cpu_wins_small_gpu_wins_large() {
        // Fig. 17: the crossover sits between the smallest and largest
        // tested sizes.
        let (dev, cpu) = w8000();
        assert!(border_cpu_model(&dev, &cpu, 448, 448) < border_gpu_model(&dev, 448, 448));
        assert!(border_gpu_model(&dev, 1536, 1536) < border_cpu_model(&dev, &cpu, 1536, 1536));
    }

    #[test]
    fn stage2_threshold_changes_path() {
        let (dev, cpu) = w8000();
        let n = 2048 * 2048;
        // Device stage 2 vs host stage 2; both are positive and differ.
        let t_dev = reduction_gpu_model(&dev, &cpu, n, ReductionStrategy::UnrollOne, 0);
        let t_host = reduction_gpu_model(&dev, &cpu, n, ReductionStrategy::UnrollOne, usize::MAX);
        assert!(t_dev > 0.0 && t_host > 0.0);
    }
}
