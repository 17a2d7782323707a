//! The context: device + host pairing, buffer factory, and buffer pool.

use std::sync::Arc;

use crate::buffer::{Buffer, Scalar};
use crate::device::{CpuSpec, DeviceSpec};
use crate::par::DispatchPool;
use crate::pool::{BufferPool, PoolStats};
use crate::queue::CommandQueue;
use crate::sanitize::{SanitizeConfig, SanitizeReport, SanitizeShared};

/// An OpenCL-like context binding a simulated device to a modeled host CPU.
///
/// Buffers are created from the context; command queues are created from it
/// too and inherit both machine models. When validation is enabled
/// (see [`Context::with_validation`]) every buffer carries per-element write
/// marks and kernel dispatches report write races — the simulator's
/// equivalent of running under a GPU race checker.
///
/// The context also owns a [`BufferPool`] that recycles buffer backing
/// storage across allocations (clones share the pool). Pooling is on by
/// default; [`Context::with_pooling`]`(false)` restores allocate-per-buffer
/// behaviour for baseline measurements.
#[derive(Clone)]
pub struct Context {
    device: DeviceSpec,
    cpu: CpuSpec,
    validate: bool,
    pool: BufferPool,
    pooling: bool,
    /// Host threads per kernel pass and large copy (0 = all available
    /// cores).
    dispatch_threads: usize,
    /// The worker threads behind those passes and copies, started on the
    /// first pass that needs them. Clones and queues share it; the last
    /// handle joins the workers.
    dispatch_pool: Arc<DispatchPool>,
    /// Shared sanitizer state (shadow-access recorder); `None` when the
    /// sanitizer is off. Clones share the same recorder.
    sanitize: Option<Arc<SanitizeShared>>,
    /// When true, queues retain every dispatch's verified access summary
    /// in their log.
    keep_access_log: bool,
    /// Span-ring capacity for queues created from this context; `None`
    /// disables span tracing (the default).
    span_capacity: Option<usize>,
}

impl Context {
    /// Creates a context for `device` with the paper's host CPU
    /// (Core i5-3470) and validation off.
    pub fn new(device: DeviceSpec) -> Self {
        Context {
            device,
            cpu: CpuSpec::core_i5_3470(),
            validate: false,
            pool: BufferPool::new(),
            pooling: true,
            dispatch_threads: 0,
            dispatch_pool: Arc::new(DispatchPool::new()),
            sanitize: None,
            keep_access_log: false,
            span_capacity: None,
        }
    }

    /// Creates a context with write-race validation enabled. Intended for
    /// tests: buffers allocate one mark byte per element.
    pub fn with_validation(device: DeviceSpec) -> Self {
        let mut ctx = Context::new(device);
        ctx.validate = true;
        ctx
    }

    /// Creates a context with the shadow-execution sanitizer enabled at its
    /// default configuration. Equivalent to
    /// `Context::new(device).with_sanitize(SanitizeConfig::default())`.
    ///
    /// Sanitized runs produce byte-identical pixels and identical simulated
    /// seconds to unsanitized runs — the overhead is wall-clock only. Only
    /// one kernel may be in flight at a time per sanitized context, so pin
    /// frame-level parallelism to a single frame when sanitizing.
    pub fn sanitized(device: DeviceSpec) -> Self {
        Context::new(device).with_sanitize(SanitizeConfig::default())
    }

    /// Enables the shadow-execution sanitizer with an explicit
    /// configuration. Buffers and queues created afterwards record every
    /// accounted access into shadow state; retrieve findings with
    /// [`Context::sanitize_report`].
    pub fn with_sanitize(mut self, config: SanitizeConfig) -> Self {
        self.sanitize = Some(Arc::new(SanitizeShared::new(
            config,
            self.device.wavefront as u64,
        )));
        self
    }

    /// Retains every dispatch's verified
    /// [`AccessSummary`](crate::access::AccessSummary) in
    /// [`CommandQueue::access_log`] on queues created from this context,
    /// for static-vs-dynamic agreement checks. Observation-only: pixels
    /// and simulated seconds are unchanged.
    pub fn with_access_log(mut self) -> Self {
        self.keep_access_log = true;
        self
    }

    /// Enables hierarchical span tracing on queues created from this
    /// context at the default ring capacity
    /// ([`crate::span::DEFAULT_SPAN_CAPACITY`]). Spans are
    /// observation-only: pixels and simulated seconds are bit-identical
    /// with spans on or off.
    pub fn with_spans(self) -> Self {
        self.with_span_capacity(crate::span::DEFAULT_SPAN_CAPACITY)
    }

    /// Enables span tracing with an explicit ring capacity (spans beyond
    /// it evict the oldest). See [`Context::with_spans`].
    pub fn with_span_capacity(mut self, capacity: usize) -> Self {
        self.span_capacity = Some(capacity);
        self
    }

    /// Overrides the host CPU model.
    pub fn with_cpu(mut self, cpu: CpuSpec) -> Self {
        self.cpu = cpu;
        self
    }

    /// Enables or disables buffer pooling (on by default). With pooling off
    /// every buffer allocates fresh storage — the per-run-allocation
    /// baseline the wall-clock benches compare against.
    pub fn with_pooling(mut self, pooling: bool) -> Self {
        self.pooling = pooling;
        self
    }

    /// Replaces the buffer pool with an empty one capped at
    /// `capacity_bytes` of parked storage (see
    /// [`BufferPool::with_capacity_bytes`]). Applies to this context and
    /// clones made *after* this call; earlier clones keep the old pool.
    pub fn with_pool_capacity(mut self, capacity_bytes: u64) -> Self {
        self.pool = BufferPool::with_capacity_bytes(capacity_bytes);
        self
    }

    /// Pins the number of host threads that run each kernel pass, and
    /// over which transfer copies of at least
    /// [`crate::queue::SPLIT_COPY_BYTES`] are split (0 = all available
    /// cores, the default). The calling thread counts as one of them: a
    /// pass on `threads` threads runs on the caller and on up to
    /// `threads − 1` workers of the context's pool. A pass whose largest
    /// grid covers at most [`crate::par::PASS_GRAIN_ELEMS`] frame elements
    /// runs on the caller alone whatever this says.
    pub fn with_dispatch_threads(mut self, threads: usize) -> Self {
        self.dispatch_threads = threads;
        self
    }

    /// The device spec this context is bound to.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The host CPU model.
    pub fn cpu(&self) -> &CpuSpec {
        &self.cpu
    }

    /// Whether buffers validate writes.
    pub fn validates(&self) -> bool {
        self.validate
    }

    /// Whether buffer allocations recycle through the pool.
    pub fn pools(&self) -> bool {
        self.pooling
    }

    /// Whether the shadow-execution sanitizer is enabled.
    pub fn sanitizes(&self) -> bool {
        self.sanitize.is_some()
    }

    /// Whether queues created from this context record spans.
    pub fn spans_enabled(&self) -> bool {
        self.span_capacity.is_some()
    }

    /// Snapshot of the sanitizer's findings so far, or `None` when the
    /// sanitizer is off.
    pub fn sanitize_report(&self) -> Option<SanitizeReport> {
        self.sanitize.as_ref().map(|s| s.report())
    }

    /// The context's buffer pool (shared by clones).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Snapshot of the buffer pool's hit/miss/live counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Host threads per kernel pass and large copy (0 = all available
    /// cores).
    pub fn dispatch_threads(&self) -> usize {
        self.dispatch_threads
    }

    /// Allocates a zero-initialised device buffer of `len` elements,
    /// recycling pooled storage when available.
    pub fn buffer<T: Scalar>(&self, label: &str, len: usize) -> Buffer<T> {
        Buffer::build_in(
            label,
            len,
            self.validate,
            self.sanitize.as_ref(),
            self.pooling.then_some(&self.pool),
        )
    }

    /// Allocates a device buffer initialised from a host slice *without*
    /// charging transfer time (test/setup convenience; model-honest uploads
    /// go through [`CommandQueue::enqueue_write`]).
    pub fn buffer_from<T: Scalar>(&self, label: &str, data: &[T]) -> Buffer<T> {
        let b = self.buffer(label, data.len());
        b.fill_from(data);
        b
    }

    /// Creates a new in-order command queue.
    pub fn queue(&self) -> CommandQueue {
        CommandQueue::new(
            self.device.clone(),
            self.cpu.clone(),
            self.dispatch_threads,
            Arc::clone(&self.dispatch_pool),
            self.sanitize.clone(),
            self.validate,
            self.keep_access_log,
            self.span_capacity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_inherit_validation() {
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let b = ctx.buffer::<f32>("t", 4);
        b.begin_write_epoch();
        let w = b.write_view();
        w.set_raw(0, 1.0);
        w.set_raw(0, 2.0);
        assert_eq!(b.race(), Some(0));

        let ctx2 = Context::new(DeviceSpec::firepro_w8000());
        let b2 = ctx2.buffer::<f32>("t", 4);
        let w2 = b2.write_view();
        w2.set_raw(0, 1.0);
        w2.set_raw(0, 2.0);
        assert_eq!(b2.race(), None);
    }

    #[test]
    fn buffer_from_initialises() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let b = ctx.buffer_from("t", &[1.0f32, 2.0, 3.0]);
        assert_eq!(b.snapshot(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn with_cpu_overrides() {
        let mut cpu = CpuSpec::core_i5_3470();
        cpu.clock_ghz = 4.0;
        let ctx = Context::new(DeviceSpec::firepro_w8000()).with_cpu(cpu);
        assert!((ctx.cpu().clock_ghz - 4.0).abs() < 1e-12);
        assert_eq!(ctx.queue().cpu().name, "Intel Core i5-3470");
    }

    #[test]
    fn dispatch_threads_knob_round_trips() {
        let ctx = Context::new(DeviceSpec::firepro_w8000()).with_dispatch_threads(1);
        assert_eq!(ctx.dispatch_threads(), 1);
        assert_eq!(
            Context::new(DeviceSpec::firepro_w8000()).dispatch_threads(),
            0
        );
    }

    #[test]
    fn buffer_from_recycles_through_pool() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        drop(ctx.buffer_from("t", &[1.0f32, 2.0]));
        let b = ctx.buffer_from("t", &[3.0f32, 4.0]);
        assert_eq!(b.snapshot(), vec![3.0, 4.0]);
        assert_eq!(ctx.pool_stats().hits, 1);
    }
}
