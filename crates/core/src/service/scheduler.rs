//! The sharpen service scheduler: bounded queues, model-based admission,
//! shape-coalescing batches, simulated-time latency accounting.
//!
//! ## Honesty on a 1-core box
//!
//! The container has one core, so an "async" thread-pool service would
//! measure scheduler overhead, not service behaviour. The scheduler is
//! therefore an explicit single-threaded event loop over **simulated
//! time**: the virtual clock advances by each frame's modeled
//! upload+compute+download seconds (the same deterministic `f64` sums the
//! whole repo uses), arrivals are ingested as the clock passes them, and
//! queueing latency is measured in that currency. Wall-clock is still
//! reported — but only for what wall-clock honestly measures here:
//! per-frame host execution cost and whole-run throughput.
//!
//! ## Policies
//!
//! * **Admission** (per arriving request, deterministic): shed when the
//!   class queue is full, or when the analytical cost model — learned
//!   per-shape simulated frame times, bootstrapped from a per-pixel
//!   estimate — predicts the request would finish past its class SLO.
//!   This is the same use-the-model-instead-of-running-it move the
//!   schedule autotuner makes.
//! * **Batching**: the highest-priority queued request leads a batch; up
//!   to `max_batch` queued requests of the *same shape* coalesce onto it
//!   (priority order, FIFO within a class), so one plan-cache access
//!   serves the whole batch — launch-amortization at the service layer.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use imagekit::ImageF32;
use simgpu::metrics::{Histogram, MetricsRegistry};
use simgpu::pool::PoolStats;

use crate::gpu::batch::FrameComponents;
use crate::gpu::pipeline::GpuPipeline;
use crate::service::cache::{CacheStats, PlanCache};
use crate::service::traffic::{Priority, Request};

/// Bootstrap simulated cost per pixel, seconds, used for a shape's first
/// admission decision (before any frame of that shape has been measured).
/// Calibrated to the all-opts config on the modeled FirePro W8000 — the
/// learned per-shape value replaces it after the first served frame.
pub const DEFAULT_EST_S_PER_PIXEL: f64 = 3e-9;

/// Configuration of the service's scheduling policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bounded queue length per priority class (backpressure: a full
    /// queue sheds).
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// Plan-cache shard count.
    pub cache_shards: usize,
    /// Plan-cache total capacity (plans).
    pub cache_capacity: usize,
    /// Per-class simulated-latency SLO, seconds,
    /// `[interactive, standard, batch]`. Admission sheds a request whose
    /// predicted completion latency exceeds its class SLO.
    pub slo_s: [f64; 3],
    /// Keep served output frames in the report (bit-identity checks; off
    /// for load benches).
    pub keep_outputs: bool,
    /// Key the plan cache on per-shape model-tuned schedules: each cache
    /// miss runs the pixel-invariant cost-model search for the requested
    /// shape and prepares the winning `(OptConfig, Tuning)` instead of
    /// the pipeline's fixed configuration (the summation-order axes stay
    /// pinned — see [`PlanCache::with_per_shape_tuning`]). Served outputs
    /// do not change; only the simulated frame times (and with them
    /// admission and latency) drop.
    pub tune_per_shape: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            max_batch: 16,
            cache_shards: 4,
            cache_capacity: 8,
            slo_s: [0.05, 0.25, 2.0],
            keep_outputs: false,
            tune_per_shape: false,
        }
    }
}

/// Per-class outcome counters and latency histograms.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Class label (`interactive`, `standard`, `batch`).
    pub label: &'static str,
    /// Requests of this class in the offered stream.
    pub offered: u64,
    /// Requests admitted to a queue.
    pub admitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed (queue full or predicted SLO miss).
    pub shed: u64,
    /// Served requests whose simulated latency exceeded the class SLO.
    pub slo_violations: u64,
    /// Per-request wall-clock **service** latency (host seconds executing
    /// the frame; queueing excluded — wall queueing time would be a lie,
    /// see the module docs).
    pub wall: Histogram,
    /// Per-request simulated latency: arrival → completion on the virtual
    /// clock, queueing included.
    pub sim: Histogram,
}

impl ClassReport {
    fn new(label: &'static str) -> Self {
        ClassReport {
            label,
            offered: 0,
            admitted: 0,
            served: 0,
            shed: 0,
            slo_violations: 0,
            wall: Histogram::latency_seconds(),
            sim: Histogram::latency_seconds(),
        }
    }
}

/// Everything a service run measured.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Requests in the offered stream.
    pub requests: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests that rode an existing batch (batch position > 0) — each
    /// one is a plan-cache access amortised away.
    pub coalesced: u64,
    /// High-water mark of total queued requests.
    pub peak_queued: usize,
    /// Wall-clock duration of the run, seconds.
    pub wall_s: f64,
    /// Virtual clock when the last frame completed, seconds.
    pub sim_end_s: f64,
    /// Sum of served frames' simulated times, seconds (busy time; the
    /// difference to `sim_end_s` is simulated idle).
    pub sim_busy_s: f64,
    /// Per-class counters and latency histograms, `[interactive,
    /// standard, batch]`.
    pub classes: [ClassReport; 3],
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Buffer-pool counters of the service context after the run.
    pub pool: PoolStats,
    /// Ids of shed requests, in shed order (determinism checks).
    pub shed_ids: Vec<u64>,
    /// Served `(request id, output frame)` pairs when
    /// [`ServiceConfig::keep_outputs`] was set, in completion order.
    pub outputs: Vec<(u64, ImageF32)>,
}

impl ServiceReport {
    /// Wall-clock throughput, served frames per second.
    pub fn wall_fps(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.served as f64 / self.wall_s
        }
    }

    /// Simulated throughput, served frames per simulated second.
    pub fn sim_fps(&self) -> f64 {
        if self.sim_end_s <= 0.0 {
            0.0
        } else {
            self.served as f64 / self.sim_end_s
        }
    }

    /// All-class wall service-latency histogram.
    pub fn wall_latency(&self) -> Histogram {
        let mut h = Histogram::latency_seconds();
        for c in &self.classes {
            h.merge(&c.wall);
        }
        h
    }

    /// All-class simulated latency histogram.
    pub fn sim_latency(&self) -> Histogram {
        let mut h = Histogram::latency_seconds();
        for c in &self.classes {
            h.merge(&c.sim);
        }
        h
    }

    /// Exports counters, gauges and latency histograms into a fresh
    /// metrics registry under the `service.` prefix.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc("service.requests", self.requests);
        reg.inc("service.served", self.served);
        reg.inc("service.shed", self.shed);
        reg.inc("service.batches", self.batches);
        reg.inc("service.coalesced", self.coalesced);
        reg.inc("service.cache.hits", self.cache.hits);
        reg.inc("service.cache.misses", self.cache.misses);
        reg.inc("service.cache.evictions", self.cache.evictions);
        reg.set_gauge("service.queue.peak", self.peak_queued as f64);
        reg.set_gauge("service.wall_fps", self.wall_fps());
        reg.set_gauge("service.sim_fps", self.sim_fps());
        reg.record_histogram("service.latency.wall_s", &self.wall_latency());
        reg.record_histogram("service.latency.sim_s", &self.sim_latency());
        for c in &self.classes {
            reg.inc(&format!("service.{}.served", c.label), c.served);
            reg.inc(&format!("service.{}.shed", c.label), c.shed);
            reg.inc(
                &format!("service.{}.slo_violations", c.label),
                c.slo_violations,
            );
            reg.record_histogram(&format!("service.{}.latency.sim_s", c.label), &c.sim);
            reg.record_histogram(&format!("service.{}.latency.wall_s", c.label), &c.wall);
        }
        self.pool.to_registry("service.pool", &mut reg);
        reg
    }

    /// Multi-line human summary (the `sharpen serve` output).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "served {}/{} requests ({} shed) in {} batches ({} coalesced), peak queue {}\n\
             throughput: {:.1} frames/s wall, {:.1} frames/s simulated\n\
             latency (wall, service): {}\n\
             latency (simulated, arrival→completion): {}\n",
            self.served,
            self.requests,
            self.shed,
            self.batches,
            self.coalesced,
            self.peak_queued,
            self.wall_fps(),
            self.sim_fps(),
            self.wall_latency().summary(1e3, "ms"),
            self.sim_latency().summary(1e3, "ms"),
        );
        for c in &self.classes {
            s.push_str(&format!(
                "  {:<12} served {:>4}  shed {:>3}  slo-miss {:>3}  sim {}\n",
                c.label,
                c.served,
                c.shed,
                c.slo_violations,
                c.sim.summary(1e3, "ms"),
            ));
        }
        s.push_str(&format!(
            "plan cache: {} hits / {} misses / {} evictions ({:.0}% hit), \
             prepare {:.1} ms wall\n\
             buffer pool: {} hits / {} misses / {} evicted, {} B parked\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.hit_rate() * 100.0,
            self.cache.prepare_wall_s * 1e3,
            self.pool.hits,
            self.pool.misses,
            self.pool.evicted,
            self.pool.pooled_bytes,
        ));
        s
    }
}

/// The sharpen service: a pipeline configuration plus scheduler policy.
pub struct SharpenService {
    pipe: GpuPipeline,
    cfg: ServiceConfig,
}

impl SharpenService {
    /// Creates a service over `pipe` (its opt config and tuning apply
    /// to every request) with scheduler policy `cfg`.
    pub fn new(pipe: GpuPipeline, cfg: ServiceConfig) -> Self {
        SharpenService { pipe, cfg }
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The pipeline requests are served with.
    pub fn pipeline(&self) -> &GpuPipeline {
        &self.pipe
    }

    /// Runs the stream to completion and reports. Requests must be in
    /// arrival order (as [`generate_requests`](crate::service::traffic::generate_requests)
    /// produces them).
    ///
    /// # Errors
    /// The first frame execution or plan preparation failure aborts the
    /// run (admission sheds are not errors).
    pub fn serve(&self, requests: &[Request]) -> Result<ServiceReport, String> {
        let mut cache = PlanCache::new(
            self.pipe.clone(),
            self.cfg.cache_shards,
            self.cfg.cache_capacity,
        )
        .with_per_shape_tuning(self.cfg.tune_per_shape);
        let mut classes = [
            ClassReport::new(Priority::Interactive.label()),
            ClassReport::new(Priority::Standard.label()),
            ClassReport::new(Priority::Batch.label()),
        ];
        let mut queues: [VecDeque<&Request>; 3] = Default::default();
        // Learned simulated per-frame cost per shape (admission model).
        let mut learned: HashMap<(usize, usize), f64> = HashMap::new();
        let est = |learned: &HashMap<(usize, usize), f64>, r: &Request| -> f64 {
            learned
                .get(&r.shape())
                .copied()
                .unwrap_or(r.pixels() as f64 * DEFAULT_EST_S_PER_PIXEL)
        };

        let started = Instant::now();
        let mut clock = 0.0f64; // the virtual clock, seconds
        let mut sim_busy_s = 0.0f64;
        let mut next = 0usize; // arrival cursor
        let mut out_buf: Vec<f32> = Vec::new();
        let mut outputs = Vec::new();
        let mut shed_ids = Vec::new();
        let mut peak_queued = 0usize;
        let (mut batches, mut coalesced) = (0u64, 0u64);

        loop {
            // Ingest every arrival the clock has passed, applying
            // admission control at ingest time.
            while next < requests.len() && requests[next].arrival_s() <= clock {
                let r = &requests[next];
                next += 1;
                let ci = r.class.index();
                classes[ci].offered += 1;
                // Backlog the request would wait behind: everything queued
                // at its priority or higher (lower classes are overtaken).
                let backlog_s: f64 = queues[..=ci]
                    .iter()
                    .flat_map(|q| q.iter())
                    .map(|q| est(&learned, q))
                    .sum();
                let predicted = (clock - r.arrival_s()) + backlog_s + est(&learned, r);
                if queues[ci].len() >= self.cfg.queue_capacity || predicted > self.cfg.slo_s[ci] {
                    classes[ci].shed += 1;
                    shed_ids.push(r.id);
                    continue;
                }
                classes[ci].admitted += 1;
                queues[ci].push_back(r);
                peak_queued = peak_queued.max(queues.iter().map(VecDeque::len).sum());
            }

            // Idle: jump the clock to the next arrival, or finish.
            if queues.iter().all(VecDeque::is_empty) {
                if next >= requests.len() {
                    break;
                }
                clock = clock.max(requests[next].arrival_s());
                continue;
            }

            // Lead request: head of the highest-priority non-empty queue.
            let lead_class = Priority::ALL
                .into_iter()
                .find(|c| !queues[c.index()].is_empty())
                .expect("some queue is non-empty");
            let lead = queues[lead_class.index()]
                .pop_front()
                .expect("non-empty queue");
            let shape = lead.shape();
            // Coalesce same-shape requests, priority order, FIFO within a
            // class (they jump different-shape requests — that is the
            // point of batching).
            let mut batch = vec![lead];
            for q in queues.iter_mut() {
                let mut i = 0;
                while i < q.len() && batch.len() < self.cfg.max_batch {
                    if q[i].shape() == shape {
                        batch.push(q.remove(i).expect("index in bounds"));
                    } else {
                        i += 1;
                    }
                }
            }
            batches += 1;
            coalesced += batch.len() as u64 - 1;

            // Execute the batch: one plan-cache access, N frames.
            let plan = cache.get(shape)?;
            for r in batch {
                let frame = r.frame();
                out_buf.resize(frame.len(), 0.0);
                let frame_started = Instant::now();
                let comps: FrameComponents = plan.run_into(&frame, &mut out_buf)?;
                let wall = frame_started.elapsed().as_secs_f64();
                let sim_frame = comps.total();
                clock += sim_frame;
                sim_busy_s += sim_frame;
                learned.insert(shape, sim_frame);
                let ci = r.class.index();
                let sim_latency = clock - r.arrival_s();
                classes[ci].served += 1;
                classes[ci].wall.observe(wall);
                classes[ci].sim.observe(sim_latency);
                if sim_latency > self.cfg.slo_s[ci] {
                    classes[ci].slo_violations += 1;
                }
                if self.cfg.keep_outputs {
                    outputs.push((r.id, ImageF32::from_vec(shape.0, shape.1, out_buf.clone())));
                }
            }
        }

        let served = classes.iter().map(|c| c.served).sum();
        let shed = classes.iter().map(|c| c.shed).sum();
        Ok(ServiceReport {
            requests: requests.len() as u64,
            served,
            shed,
            batches,
            coalesced,
            peak_queued,
            wall_s: started.elapsed().as_secs_f64(),
            sim_end_s: clock,
            sim_busy_s,
            classes,
            cache: cache.stats(),
            pool: self.pipe.context().pool_stats(),
            shed_ids,
            outputs,
        })
    }
}
