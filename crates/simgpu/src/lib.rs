//! # simgpu — a simulated OpenCL-like GPU for deterministic performance studies
//!
//! This crate is the hardware substrate for the reproduction of
//! *Optimizing Image Sharpening Algorithm on GPU* (ICPP 2015). The paper's
//! experiments ran on an AMD FirePro W8000 over PCI-E; this environment has
//! neither, so the device is **simulated**: kernels execute functionally on
//! the host (work-groups, or whole work-group rows, in parallel on scoped
//! threads, producing real pixels) while
//! a calibrated analytical cost model charges simulated time for every
//! command — kernel launches, ALU work, global/local memory traffic,
//! barriers, divergence, PCI-E transfers in three modes (bulk, rect,
//! map/unmap), and host synchronisation.
//!
//! The API deliberately mirrors the OpenCL host API the paper uses:
//!
//! * [`Context`](context::Context) ≈ `cl_context` — owns the device spec and
//!   creates buffers/queues;
//! * [`Buffer`](buffer::Buffer) ≈ `cl_mem`;
//! * [`CommandQueue`](queue::CommandQueue) ≈ an in-order `cl_command_queue`
//!   with profiling enabled, including `enqueue_write`/`enqueue_read`
//!   (`clEnqueueWriteBuffer`/`clEnqueueReadBuffer`),
//!   [`enqueue_write_rect`](queue::CommandQueue::enqueue_write_rect)
//!   (`clEnqueueWriteBufferRect` — the paper pads during this transfer),
//!   [`map_write`](queue::CommandQueue::map_write)/[`map_read`](queue::CommandQueue::map_read)
//!   (`clEnqueueMapBuffer`), and [`finish`](queue::CommandQueue::finish)
//!   (`clFinish`);
//! * [`KernelDesc`](kernel::KernelDesc) + a closure ≈ a compiled kernel and
//!   its NDRange.
//!
//! Kernels are closures. Dispatched with
//! [`run`](queue::CommandQueue::run), a closure is invoked once per
//! *work-group* with a [`GroupCtx`](kernel::GroupCtx); it iterates its
//! work-items, accesses global memory through the buffer views, local
//! memory through `local_read`/`local_write`, and synchronises with
//! `barrier()`. See the [`kernel`] module docs for why this reproduces
//! OpenCL barrier semantics faithfully. Dispatched with
//! [`run_rows`](queue::CommandQueue::run_rows), a closure is invoked once
//! per *work-group row* with a [`RowCtx`](kernel::RowCtx) and walks each
//! image row across all of the row's groups before the next — the same
//! per-group work in a streaming host order, for kernels without local
//! memory or barriers. A closure computes pixels and nothing else: each dispatch
//! hands the queue an [`AccessSummary`](access::AccessSummary) that
//! declares, in closed form, the windows it touches and the
//! [`CostCounters`](cost::CostCounters) it costs. Declared once, charged
//! once; the sanitizer audits declared against observed.
//!
//! ## Example
//!
//! ```
//! use simgpu::prelude::*;
//!
//! let ctx = Context::new(DeviceSpec::firepro_w8000());
//! let mut q = ctx.queue();
//!
//! // Upload 1024 floats.
//! let src: Vec<f32> = (0..1024).map(|i| i as f32).collect();
//! let a = ctx.buffer::<f32>("a", 1024);
//! q.enqueue_write(&a, &src).unwrap();
//!
//! // y[i] = 2*x[i] on the device, declared as one 4-byte load, one
//! // 4-byte store and one multiply per item.
//! let y = ctx.buffer::<f32>("y", 1024);
//! let (av, yv) = (a.view(), y.write_view());
//! let desc = KernelDesc::new_1d("double", 1024, 256);
//! let mut decl = AccessSummary::new(&desc, 0..desc.total_groups());
//! decl.push(AccessWindow::read(av.info(), 0, 1024));
//! decl.push(AccessWindow::write(yv.info(), 0, 1024));
//! decl.charge_global_n(4, 0, 4, 0, 1024);
//! decl.charged.charge_ops_n(&OpCounts::ZERO.muls(1), 1024);
//! q.run(&desc, decl, &[&y], |g| {
//!     for l in items(g.group_size) {
//!         let i = g.global_index(l, 1024);
//!         yv.set_raw(i, 2.0 * av.get_raw(i));
//!     }
//! }).unwrap();
//!
//! let mut out = vec![0.0f32; 1024];
//! q.enqueue_read(&y, &mut out).unwrap();
//! assert_eq!(out[7], 14.0);
//! assert!(q.elapsed() > 0.0); // simulated seconds accumulated
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod buffer;
pub mod context;
pub mod cost;
pub mod device;
pub mod error;
pub mod kernel;
pub mod metrics;
pub mod par;
pub mod pool;
pub mod queue;
pub mod sanitize;
pub mod span;
pub mod timing;
pub mod trace;

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::access::{AccessError, AccessSummary, AccessWindow, BufRef, Role, VerifyStats};
    pub use crate::buffer::{Buffer, GlobalView, GlobalWriteView, Scalar};
    pub use crate::context::Context;
    pub use crate::cost::{CostCounters, OpCounts};
    pub use crate::device::{CpuSpec, DeviceSpec, TransferModel};
    pub use crate::error::{Error, Result};
    pub use crate::kernel::{items, round_up, GroupCtx, KernelDesc, RowCtx};
    pub use crate::metrics::{Counter, Gauge, Histogram, Metric, MetricsRegistry};
    pub use crate::pool::{BufferPool, PoolStats};
    pub use crate::queue::{CommandKind, CommandQueue, CommandRecord};
    pub use crate::sanitize::{DriftClass, RaceKind, SanitizeConfig, SanitizeReport, Violation};
    pub use crate::span::{
        aggregate as span_aggregate, span_tree, SpanAgg, SpanId, SpanKind, SpanRecord,
    };
    pub use crate::timing::{
        bulk_transfer_time, cpu_stage_time, host_memcpy_time, kernel_time, map_transfer_time,
        rect_transfer_time, KernelTime,
    };
}
