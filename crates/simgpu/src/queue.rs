//! The in-order command queue: dispatch, transfers, host work, profiling.
//!
//! Commands execute *functionally* right away (kernels run in parallel over
//! work-groups on scoped host threads; transfers copy memory) while their
//! *simulated* duration is computed from the timing model and appended to
//! the queue's virtual clock. The dispatch call picks the unit of host
//! work: [`CommandQueue::run`] calls the kernel closure once per
//! work-group, [`CommandQueue::run_rows`] once per work-group row (the
//! closure walks each image row across the row's groups). Both run the
//! same groups through one execution loop and charge the same
//! declaration, so the unit changes host wall time only — never pixels,
//! records or simulated seconds. A kernel's duration comes from the
//! [`CostCounters`] its [`AccessSummary`] declares — the queue charges
//! that declaration and nothing else. Because the queue is in-order — like
//! the paper's OpenCL command queue with the default execution mode —
//! virtual time is simply the sum of command durations, plus explicit
//! [`CommandQueue::finish`] synchronisation overheads (which the paper's
//! Section V-F optimization removes).
//!
//! Every command leaves a [`CommandRecord`]; the per-stage breakdowns of
//! the paper's Fig. 13 are produced by aggregating these records by name.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::access::{self, AccessError, AccessSummary};
use crate::buffer::{Buffer, Scalar};
use crate::cost::CostCounters;
use crate::device::{CpuSpec, DeviceSpec};
use crate::error::{Error, Result};
use crate::kernel::{GroupCtx, KernelDesc, RowCtx};
use crate::sanitize::{DriftClass, GroupSan, SanitizeShared, Violation};
use crate::span::{SpanId, SpanKind, SpanRecord, SpanRing};
use crate::timing::{
    bulk_transfer_time, cpu_stage_time, kernel_time, map_transfer_time, rect_transfer_time,
    KernelTime,
};

/// What kind of command a [`CommandRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// NDRange kernel dispatch.
    Kernel,
    /// Bulk host→device write.
    WriteBuffer,
    /// Bulk device→host read.
    ReadBuffer,
    /// Rectangular host→device write (`clEnqueueWriteBufferRect`).
    RectWrite,
    /// map/unmap round trip.
    Map,
    /// Host-side synchronisation (`clFinish`).
    Finish,
    /// Work executed on the host CPU as part of the pipeline (e.g. the
    /// border stage when it runs on CPU).
    HostWork,
}

/// One executed command with its simulated start time and duration.
#[derive(Debug, Clone)]
pub struct CommandRecord {
    /// Command name (kernel name, buffer label, or stage label). Interned:
    /// repeated commands of a steady-state frame loop share one allocation.
    pub name: Arc<str>,
    /// Command class.
    pub kind: CommandKind,
    /// Simulated start time, seconds since queue creation/reset.
    pub start_s: f64,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Work counters (kernels and host work only).
    pub counters: Option<CostCounters>,
}

/// Buffers whose write epoch the dispatcher should track for race checking.
///
/// Implemented by [`Buffer`]; a kernel launch lists its output buffers so
/// the validation layer can reset marks before and inspect races after the
/// dispatch.
pub trait WriteTracked: Sync {
    /// Resets validation marks for a new write epoch.
    fn begin_epoch(&self);
    /// First raced element, if any.
    fn race_index(&self) -> Option<usize>;
}

impl<T: Scalar> WriteTracked for Buffer<T> {
    fn begin_epoch(&self) {
        self.begin_write_epoch();
    }
    fn race_index(&self) -> Option<usize> {
        self.race()
    }
}

/// Accumulator for one *logical* kernel dispatch executed as several
/// contiguous work-group slices via [`CommandQueue::run_sliced`].
///
/// The banded (megapass) scheduler cuts a dispatch into row-band slices so
/// each band's data stays cache-resident on the host, but the cost model
/// must see exactly the dispatch a whole-grid [`CommandQueue::run`] would
/// have produced. The slices' declared counters fold with the associative,
/// commutative u64 [`CostCounters::merge`]; because each kernel's
/// closed-form declaration of a group range sums to its whole-grid
/// declaration, the record committed by [`CommandQueue::commit_sliced`]
/// carries bit-identical counters — and therefore a bit-identical
/// [`kernel_time`] — to the monolithic dispatch. Nothing is recorded on
/// the queue (and the simulated clock does not move) until commit.
#[derive(Debug, Default)]
pub struct SlicedDispatch {
    /// Declared counters merged across slices.
    counters: CostCounters,
    /// Window-declared read bytes summed across slices and the largest
    /// declared read ratio, for the merged ratio bound at commit.
    declared_read_bytes: u64,
    read_ratio: f64,
    /// Sanitizer-observed traffic summed across slices; audited once at
    /// commit against the merged counters.
    observed_read_bytes: u64,
    observed_write_bytes: u64,
    /// Flat group range of every non-empty slice, checked at commit to
    /// exactly partition the grid (static property d).
    ranges: Vec<std::ops::Range<usize>>,
    /// Slice declarations, retained only for a queue keeping its access log.
    access: Vec<AccessSummary>,
}

impl SlicedDispatch {
    /// A fresh accumulator for one logical dispatch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The unit of parallel host work a dispatch executes its closure for: one
/// work-group, or one run of work-groups in a group row. The dispatch call
/// picks it ([`CommandQueue::run`] / [`CommandQueue::run_sliced`] per
/// group, [`CommandQueue::run_rows`] / [`CommandQueue::run_sliced_rows`]
/// per row); both go through the one execution loop.
enum Unit<'f> {
    Group(&'f (dyn Fn(&mut GroupCtx) + Sync)),
    Row(&'f (dyn Fn(&mut RowCtx) + Sync)),
}

/// An in-order command queue bound to one simulated device and one modeled
/// host CPU.
pub struct CommandQueue {
    device: DeviceSpec,
    cpu: CpuSpec,
    clock_s: f64,
    records: Vec<CommandRecord>,
    commands_since_finish: usize,
    /// Host threads used per kernel dispatch (0 = all available).
    dispatch_threads: usize,
    /// Interned command names: one `Arc<str>` per distinct name for the
    /// queue's lifetime, shared by every record (survives [`Self::reset`]).
    interner: HashSet<Arc<str>>,
    /// Reused scratch for composing `"prefix:label"` names without a fresh
    /// `String` per command.
    name_scratch: String,
    /// Sanitizer handle inherited from the creating context; `Some` only
    /// for sanitized contexts.
    sanitize: Option<Arc<SanitizeShared>>,
    /// When true, declared summaries are retained in [`Self::access_log`].
    keep_access_log: bool,
    /// Verified summaries of past dispatches (populated only when the log
    /// is kept, to bound steady-state memory).
    access_log: Vec<AccessSummary>,
    /// Hierarchical span ring; `None` when span tracing is off. Boxed so
    /// the disabled (default) case costs one pointer in the queue.
    spans: Option<Box<SpanRing>>,
}

/// The span class a committed command reports as.
fn span_kind_of(kind: CommandKind) -> SpanKind {
    match kind {
        CommandKind::Kernel => SpanKind::Kernel,
        CommandKind::WriteBuffer | CommandKind::RectWrite | CommandKind::Map => SpanKind::Transfer,
        CommandKind::ReadBuffer => SpanKind::Readback,
        CommandKind::HostWork => SpanKind::Host,
        CommandKind::Finish => SpanKind::Sync,
    }
}

impl CommandQueue {
    pub(crate) fn new(
        device: DeviceSpec,
        cpu: CpuSpec,
        dispatch_threads: usize,
        sanitize: Option<Arc<SanitizeShared>>,
        keep_access_log: bool,
        span_capacity: Option<usize>,
    ) -> Self {
        CommandQueue {
            device,
            cpu,
            clock_s: 0.0,
            records: Vec::new(),
            commands_since_finish: 0,
            dispatch_threads,
            interner: HashSet::new(),
            name_scratch: String::new(),
            sanitize,
            keep_access_log,
            access_log: Vec::new(),
            spans: span_capacity.map(|c| Box::new(SpanRing::new(c))),
        }
    }

    /// The device this queue dispatches to.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The modeled host CPU.
    pub fn cpu(&self) -> &CpuSpec {
        &self.cpu
    }

    /// Returns the interned `Arc<str>` for `name`, allocating only the
    /// first time each distinct name is seen.
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(n) = self.interner.get(name) {
            return Arc::clone(n);
        }
        let n: Arc<str> = Arc::from(name);
        self.interner.insert(Arc::clone(&n));
        n
    }

    fn push(&mut self, name: &str, kind: CommandKind, dur: f64, counters: Option<CostCounters>) {
        let name = self.intern(name);
        if let Some(ring) = &mut self.spans {
            // Leaf span before the clock advances: the simulated interval
            // is exactly the record's; the wall interval is the gap since
            // the previous span event (the host time spent producing this
            // command). Reads the clock, never writes it.
            ring.leaf(span_kind_of(kind), Arc::clone(&name), self.clock_s, dur);
        }
        self.records.push(CommandRecord {
            name,
            kind,
            start_s: self.clock_s,
            duration_s: dur,
            counters,
        });
        self.clock_s += dur;
        if kind != CommandKind::Finish {
            self.commands_since_finish += 1;
        }
    }

    /// Pushes a record named `"{prefix}{label}"`, composing the name in the
    /// queue's scratch `String` so steady-state frames allocate nothing.
    fn push_labeled(
        &mut self,
        prefix: &str,
        label: &str,
        kind: CommandKind,
        dur: f64,
        counters: Option<CostCounters>,
    ) {
        let mut scratch = std::mem::take(&mut self.name_scratch);
        scratch.clear();
        scratch.push_str(prefix);
        scratch.push_str(label);
        self.push(&scratch, kind, dur, counters);
        self.name_scratch = scratch;
    }

    // ---- kernel dispatch ------------------------------------------------

    /// Verified summaries retained from declared dispatches. Populated
    /// only when the context keeps the access log
    /// ([`crate::context::Context::with_access_log`]); cleared by
    /// [`Self::reset`] and [`Self::take_access_log`].
    pub fn access_log(&self) -> &[AccessSummary] {
        &self.access_log
    }

    /// Takes the retained access summaries, leaving the log empty.
    pub fn take_access_log(&mut self) -> Vec<AccessSummary> {
        std::mem::take(&mut self.access_log)
    }

    /// Compares the sanitizer's observed per-element traffic against the
    /// declared windows — equality, not a bound: summaries declare access
    /// *events* exactly, so any drift means the declaration rotted.
    fn cross_validate(sh: &SanitizeShared, a: &AccessSummary, observed_r: u64, observed_w: u64) {
        let declared_r = a.declared_read_bytes();
        if declared_r != observed_r {
            sh.record(Violation::SummaryDrift {
                kernel: a.kernel.clone(),
                class: DriftClass::Read,
                observed: observed_r,
                declared: declared_r,
            });
        }
        let declared_w = a.declared_write_bytes();
        if declared_w != observed_w {
            sh.record(Violation::SummaryDrift {
                kernel: a.kernel.clone(),
                class: DriftClass::Write,
                observed: observed_w,
                declared: declared_w,
            });
        }
    }

    /// Dispatches a kernel over its whole grid: verifies `decl` against
    /// `desc` before any work runs, executes `f` once per work-group (in
    /// parallel), checks `outputs` for write races, and charges the timing
    /// model with `decl`'s counters — the dispatch's one cost declaration.
    /// `decl` must cover the full grid.
    ///
    /// Returns the timing decomposition of the dispatch.
    pub fn run<F>(
        &mut self,
        desc: &KernelDesc,
        decl: AccessSummary,
        outputs: &[&dyn WriteTracked],
        f: F,
    ) -> Result<KernelTime>
    where
        F: Fn(&mut GroupCtx) + Sync,
    {
        self.run_unit(desc, decl, outputs, Unit::Group(&f))
    }

    /// [`CommandQueue::run`] with the work-group *row* as the unit of host
    /// work: `f` runs once per group row (rows in parallel) with a
    /// [`RowCtx`] over the row's groups. Counters, records and simulated
    /// time are those of the same dispatch run per group.
    pub fn run_rows<F>(
        &mut self,
        desc: &KernelDesc,
        decl: AccessSummary,
        outputs: &[&dyn WriteTracked],
        f: F,
    ) -> Result<KernelTime>
    where
        F: Fn(&mut RowCtx) + Sync,
    {
        self.run_unit(desc, decl, outputs, Unit::Row(&f))
    }

    fn run_unit(
        &mut self,
        desc: &KernelDesc,
        decl: AccessSummary,
        outputs: &[&dyn WriteTracked],
        unit: Unit<'_>,
    ) -> Result<KernelTime> {
        if !decl.covers_full_grid() {
            return Err(Error::Access(AccessError::GridMismatch {
                kernel: desc.name.clone(),
                detail: format!(
                    "whole-grid dispatch declared groups {}..{} of {}",
                    decl.groups.start, decl.groups.end, decl.total_groups
                ),
            }));
        }
        let (r, w) = self.execute(desc, &decl, outputs, unit)?;
        if let Some(sh) = &self.sanitize {
            sh.audit_totals(&desc.name, &decl.charged, r, w, decl.read_ratio);
        }
        let t = kernel_time(&self.device, &decl.charged);
        self.push(
            &desc.name,
            CommandKind::Kernel,
            t.total_s,
            Some(decl.charged),
        );
        if self.keep_access_log {
            self.access_log.push(decl);
        }
        Ok(t)
    }

    /// Executes the contiguous flat-group-index slice `decl.groups` of
    /// `desc`'s grid and folds `decl` into `acc` without recording any
    /// command. Flat index `gi` maps to group `[gi % gx, gi / gx]`, exactly
    /// as in [`CommandQueue::run`], so the union of disjoint slices over
    /// `0..desc.total_groups()` performs precisely the monolithic
    /// dispatch's work. An empty slice is a no-op.
    ///
    /// Write-race validation and the sanitizer's race/bounds/barrier
    /// analysis run per slice (each slice is its own write epoch and
    /// sanitizer dispatch; cross-slice conflicts are out of scope — a
    /// correct slicer gives slices disjoint output rows). The
    /// cost-accounting drift audit is deferred to
    /// [`CommandQueue::commit_sliced`], which compares the slice-summed
    /// observed traffic against the merged declarations once: a single
    /// slice may legitimately observe zero read bytes while its declared
    /// charge is positive.
    pub fn run_sliced<F>(
        &mut self,
        desc: &KernelDesc,
        decl: AccessSummary,
        outputs: &[&dyn WriteTracked],
        acc: &mut SlicedDispatch,
        f: F,
    ) -> Result<()>
    where
        F: Fn(&mut GroupCtx) + Sync,
    {
        self.slice_unit(desc, decl, outputs, acc, Unit::Group(&f))
    }

    /// [`CommandQueue::run_sliced`] with the work-group row as the unit of
    /// host work, as in [`CommandQueue::run_rows`]. A slice that starts or
    /// ends inside a group row hands the row's covered groups to `f`.
    pub fn run_sliced_rows<F>(
        &mut self,
        desc: &KernelDesc,
        decl: AccessSummary,
        outputs: &[&dyn WriteTracked],
        acc: &mut SlicedDispatch,
        f: F,
    ) -> Result<()>
    where
        F: Fn(&mut RowCtx) + Sync,
    {
        self.slice_unit(desc, decl, outputs, acc, Unit::Row(&f))
    }

    fn slice_unit(
        &mut self,
        desc: &KernelDesc,
        decl: AccessSummary,
        outputs: &[&dyn WriteTracked],
        acc: &mut SlicedDispatch,
        unit: Unit<'_>,
    ) -> Result<()> {
        if decl.groups.is_empty() {
            return Ok(());
        }
        let (r, w) = self.execute(desc, &decl, outputs, unit)?;
        acc.counters.merge(&decl.charged);
        acc.declared_read_bytes += decl.declared_read_bytes();
        acc.read_ratio = acc.read_ratio.max(decl.read_ratio);
        acc.observed_read_bytes += r;
        acc.observed_write_bytes += w;
        acc.ranges.push(decl.groups.clone());
        if self.keep_access_log {
            acc.access.push(decl);
        }
        if self.spans.is_some() {
            // The clock does not move until commit, so a slice's simulated
            // duration is zero; its wall gap is the slice's execution time.
            let name = self.intern(&desc.name);
            if let Some(ring) = &mut self.spans {
                ring.leaf(SpanKind::Slice, name, self.clock_s, 0.0);
            }
        }
        Ok(())
    }

    /// The one group-execution loop, shared by every dispatch entry point:
    /// checks `decl` against `desc` and verifies it statically (bounds,
    /// write disjointness, accounting) before any work runs, executes the
    /// groups of `decl.groups` in parallel — one closure call per group,
    /// or per group row covering them, as `unit` says — cross-validates
    /// the declared windows against the sanitizer's observation, and checks
    /// `outputs` for write races. Returns the observed global `(read,
    /// write)` bytes — zero on unsanitized contexts.
    fn execute(
        &self,
        desc: &KernelDesc,
        decl: &AccessSummary,
        outputs: &[&dyn WriteTracked],
        unit: Unit<'_>,
    ) -> Result<(u64, u64)> {
        desc.check()?;
        if decl.kernel != desc.name || decl.total_groups != desc.total_groups() {
            return Err(Error::Access(AccessError::GridMismatch {
                kernel: desc.name.clone(),
                detail: format!(
                    "declared `{}` over {} groups, dispatching `{}` over {}",
                    decl.kernel,
                    decl.total_groups,
                    desc.name,
                    desc.total_groups()
                ),
            }));
        }
        access::verify_summary(decl)?;
        for out in outputs {
            out.begin_epoch();
        }
        let [gx, _gy] = desc.num_groups();
        let threads = if self.dispatch_threads == 0 {
            crate::par::default_threads()
        } else {
            self.dispatch_threads
        };
        let san_epoch = self.sanitize.as_ref().map(|s| s.begin_dispatch(&desc.name));
        let san = || match (&self.sanitize, san_epoch) {
            (Some(s), Some(e)) => Some((Arc::clone(s), e)),
            _ => None,
        };
        // Units are the groups of the range, or the group rows it touches
        // (each clipped to the range).
        let groups = decl.groups.clone();
        let (first, units) = match unit {
            Unit::Group(_) => (groups.start, groups.len()),
            Unit::Row(_) => (
                groups.start / gx,
                groups.end.div_ceil(gx) - groups.start / gx,
            ),
        };
        // A panicking kernel closure (e.g. an out-of-bounds assertion on an
        // unsanitized context) is caught and surfaced as a recoverable
        // `Error::KernelPanic` instead of tearing the process down.
        let panic_msg: Mutex<Option<String>> = Mutex::new(None);
        let poisoned = AtomicBool::new(false);
        crate::par::for_each_index(units, threads, |i| {
            if poisoned.load(Ordering::Relaxed) {
                return;
            }
            let u = first + i;
            let body = || match unit {
                Unit::Group(f) => {
                    let san = san().map(|(s, e)| GroupSan::new(s, e, u, desc.group_lanes()));
                    f(&mut GroupCtx::new_with(desc, [u % gx, u / gx], san))
                }
                Unit::Row(f) => {
                    let lo = groups.start.max(u * gx) - u * gx;
                    let hi = groups.end.min((u + 1) * gx) - u * gx;
                    f(&mut RowCtx::new(desc, u, lo..hi, san()))
                }
            };
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
                poisoned.store(true, Ordering::Relaxed);
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "kernel closure panicked".to_string());
                panic_msg.lock().unwrap().get_or_insert(msg);
            }
        });
        let panicked = panic_msg.into_inner().unwrap();
        let mut observed = (0, 0);
        if let Some(sh) = &self.sanitize {
            if panicked.is_none() {
                observed = sh.dispatch_traffic();
                Self::cross_validate(sh, decl, observed.0, observed.1);
            }
            sh.end_dispatch();
        }
        if let Some(message) = panicked {
            return Err(Error::KernelPanic {
                kernel: desc.name.clone(),
                message,
            });
        }
        for out in outputs {
            if let Some(index) = out.race_index() {
                return Err(Error::WriteRace {
                    kernel: desc.name.clone(),
                    index,
                });
            }
        }
        Ok(observed)
    }

    /// Commits a sliced dispatch: verifies every work-group of `desc`'s
    /// grid ran exactly once across the accumulated slices, checks the
    /// overcharge-ratio bound and audits the summed observed traffic on
    /// the merged declarations (sanitized contexts), and records the
    /// *single* kernel command the monolithic [`CommandQueue::run`] would
    /// have recorded — same name, same counters, same [`kernel_time`], so
    /// the simulated clock advances identically.
    pub fn commit_sliced(&mut self, desc: &KernelDesc, acc: SlicedDispatch) -> Result<KernelTime> {
        desc.check()?;
        // Static property (d): the executed slices must exactly tile the
        // grid — a gap or an overlap (even one that happens to sum to the
        // right group count) is a typed verdict, not a silent mis-commit.
        access::verify_partition(&desc.name, desc.total_groups(), &acc.ranges)?;
        // Static property (c) for sliced dispatches: the overcharge-ratio
        // bound holds on the merged totals (a border-only slice may charge
        // reads while declaring none; the whole dispatch still balances),
        // mirroring how the dynamic audit treats slices.
        let ratio = acc.read_ratio.max(1.0);
        let (declared_r, charged_r) = (acc.declared_read_bytes, acc.counters.global_read_bytes());
        if charged_r != declared_r && charged_r as f64 > declared_r as f64 * ratio {
            return Err(Error::Access(AccessError::RatioExceeded {
                kernel: desc.name.clone(),
                declared: declared_r,
                charged: charged_r,
                ratio_bits: ratio.to_bits(),
            }));
        }
        if let Some(sh) = &self.sanitize {
            sh.audit_totals(
                &desc.name,
                &acc.counters,
                acc.observed_read_bytes,
                acc.observed_write_bytes,
                ratio,
            );
        }
        let t = kernel_time(&self.device, &acc.counters);
        self.push(
            &desc.name,
            CommandKind::Kernel,
            t.total_s,
            Some(acc.counters),
        );
        self.access_log.extend(acc.access);
        Ok(t)
    }

    // ---- transfers --------------------------------------------------------

    /// Bulk host→device write of `src` into the whole buffer
    /// (`clEnqueueWriteBuffer`). Returns the simulated transfer time.
    pub fn enqueue_write<T: Scalar>(&mut self, buf: &Buffer<T>, src: &[T]) -> Result<f64> {
        if src.len() > buf.len() {
            return Err(Error::TransferOutOfBounds {
                op: "write",
                buffer_len: buf.len(),
                offending_index: src.len() - 1,
            });
        }
        // Functional copy.
        buf.inner.copy_in(0, src);
        let dur = bulk_transfer_time(&self.device.transfer, std::mem::size_of_val(src) as u64);
        self.push_labeled("write:", buf.label(), CommandKind::WriteBuffer, dur, None);
        Ok(dur)
    }

    /// Bulk device→host read of the whole buffer into `dst`
    /// (`clEnqueueReadBuffer`). Returns the simulated transfer time.
    pub fn enqueue_read<T: Scalar>(&mut self, buf: &Buffer<T>, dst: &mut [T]) -> Result<f64> {
        if dst.len() > buf.len() {
            return Err(Error::TransferOutOfBounds {
                op: "read",
                buffer_len: buf.len(),
                offending_index: dst.len() - 1,
            });
        }
        buf.inner.copy_out(0, dst);
        let dur = bulk_transfer_time(&self.device.transfer, std::mem::size_of_val(dst) as u64);
        self.push_labeled("read:", buf.label(), CommandKind::ReadBuffer, dur, None);
        Ok(dur)
    }

    /// Rectangular host→device write (`clEnqueueWriteBufferRect`): copies a
    /// `src_width × rows` host matrix into the destination buffer (row
    /// pitch `buf_width`) at origin `(buf_x, buf_y)`.
    ///
    /// This is how the optimized pipeline pads during the transfer
    /// (Section V-A): the original image is written into the interior of a
    /// pre-zeroed padded buffer with one rect transfer.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_write_rect<T: Scalar>(
        &mut self,
        buf: &Buffer<T>,
        buf_width: usize,
        buf_x: usize,
        buf_y: usize,
        src: &[T],
        src_width: usize,
        rows: usize,
    ) -> Result<f64> {
        if src.len() != src_width * rows {
            return Err(Error::RectShapeMismatch {
                rows,
                row_len: src_width,
                host_len: src.len(),
            });
        }
        if rows == 0 || src_width == 0 {
            return Err(Error::RectShapeMismatch {
                rows,
                row_len: src_width,
                host_len: src.len(),
            });
        }
        if buf_x + src_width > buf_width {
            // The region would wrap into the next row of the destination.
            return Err(Error::TransferOutOfBounds {
                op: "rect-write",
                buffer_len: buf_width,
                offending_index: buf_x + src_width - 1,
            });
        }
        let last = (buf_y + rows - 1) * buf_width + buf_x + src_width - 1;
        if last >= buf.len() {
            return Err(Error::TransferOutOfBounds {
                op: "rect-write",
                buffer_len: buf.len(),
                offending_index: last,
            });
        }
        for r in 0..rows {
            let src_row = &src[r * src_width..(r + 1) * src_width];
            buf.inner.copy_in((buf_y + r) * buf_width + buf_x, src_row);
        }
        let dur = rect_transfer_time(
            &self.device.transfer,
            rows as u64,
            std::mem::size_of_val(src) as u64,
        );
        self.push_labeled(
            "rect-write:",
            buf.label(),
            CommandKind::RectWrite,
            dur,
            None,
        );
        Ok(dur)
    }

    /// Rectangular device→host read (`clEnqueueReadBufferRect`): copies a
    /// `src_width × rows` region of the buffer (row pitch `buf_width`,
    /// origin `(buf_x, buf_y)`) into `dst`. Symmetric counterpart of
    /// [`CommandQueue::enqueue_write_rect`] — useful for reading back a
    /// sub-region (e.g. a border or a tile) without the whole matrix.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_read_rect<T: Scalar>(
        &mut self,
        buf: &Buffer<T>,
        buf_width: usize,
        buf_x: usize,
        buf_y: usize,
        dst: &mut [T],
        src_width: usize,
        rows: usize,
    ) -> Result<f64> {
        if dst.len() != src_width * rows {
            return Err(Error::RectShapeMismatch {
                rows,
                row_len: src_width,
                host_len: dst.len(),
            });
        }
        if rows == 0 || src_width == 0 {
            return Err(Error::RectShapeMismatch {
                rows,
                row_len: src_width,
                host_len: dst.len(),
            });
        }
        if buf_x + src_width > buf_width {
            return Err(Error::TransferOutOfBounds {
                op: "rect-read",
                buffer_len: buf_width,
                offending_index: buf_x + src_width - 1,
            });
        }
        let last = (buf_y + rows - 1) * buf_width + buf_x + src_width - 1;
        if last >= buf.len() {
            return Err(Error::TransferOutOfBounds {
                op: "rect-read",
                buffer_len: buf.len(),
                offending_index: last,
            });
        }
        for r in 0..rows {
            let src_base = (buf_y + r) * buf_width + buf_x;
            buf.inner
                .copy_out(src_base, &mut dst[r * src_width..(r + 1) * src_width]);
        }
        let dur = rect_transfer_time(
            &self.device.transfer,
            rows as u64,
            std::mem::size_of_val(dst) as u64,
        );
        self.push_labeled(
            "rect-read:",
            buf.label(),
            CommandKind::ReadBuffer,
            dur,
            None,
        );
        Ok(dur)
    }

    /// Maps a buffer for host writing. The full map/unmap round-trip cost
    /// for touching the whole buffer is charged up front (the model from
    /// Section V-A: each access crosses the link piecemeal, so total cost
    /// scales with bytes at the reduced `map_bw`).
    pub fn map_write<'a, T: Scalar>(&mut self, buf: &'a Buffer<T>) -> Result<MapWriteGuard<'a, T>> {
        if !buf.inner.try_map() {
            return Err(Error::AlreadyMapped);
        }
        // The guard hands the host the whole slab, so for the stale-read
        // detector every element counts as initialised from here on.
        buf.mark_all_init();
        let dur = map_transfer_time(&self.device.transfer, buf.byte_len());
        self.push_labeled("map-write:", buf.label(), CommandKind::Map, dur, None);
        Ok(MapWriteGuard { buf })
    }

    /// Maps a buffer for host reading. Cost model as in
    /// [`CommandQueue::map_write`].
    pub fn map_read<'a, T: Scalar>(&mut self, buf: &'a Buffer<T>) -> Result<MapReadGuard<'a, T>> {
        if !buf.inner.try_map() {
            return Err(Error::AlreadyMapped);
        }
        let dur = map_transfer_time(&self.device.transfer, buf.byte_len());
        self.push_labeled("map-read:", buf.label(), CommandKind::Map, dur, None);
        Ok(MapReadGuard { buf })
    }

    // ---- host work & synchronisation --------------------------------------

    /// Charges host-side (CPU) work described by counters, timed against
    /// the queue's CPU model. Used for pipeline stages that run on the CPU
    /// (border, reduction stage 2, padding).
    pub fn charge_host(&mut self, name: &str, counters: &CostCounters) -> f64 {
        let dur = cpu_stage_time(&self.cpu, counters);
        self.push(name, CommandKind::HostWork, dur, Some(*counters));
        dur
    }

    /// Charges a fixed host-side duration (e.g. a memcpy modeled
    /// separately).
    pub fn charge_host_seconds(&mut self, name: &str, seconds: f64) {
        self.push(name, CommandKind::HostWork, seconds, None);
    }

    /// Charges a bulk transfer of `bytes` without moving data — used when
    /// the pipeline writes a sub-region it has already placed with raw
    /// stores (e.g. the CPU-computed border written back to the device).
    pub fn charge_bulk(&mut self, name: &str, kind: CommandKind, bytes: u64) {
        let dur = bulk_transfer_time(&self.device.transfer, bytes);
        self.push(name, kind, dur, None);
    }

    /// Charges a map/unmap-mode transfer of `bytes` without moving data;
    /// counterpart of [`CommandQueue::charge_bulk`] for the base pipeline.
    pub fn charge_map(&mut self, name: &str, bytes: u64) {
        let dur = map_transfer_time(&self.device.transfer, bytes);
        self.push(name, CommandKind::Map, dur, None);
    }

    /// Host synchronisation (`clFinish`). Charges the device's sync
    /// overhead if any command was enqueued since the last finish;
    /// otherwise free. The paper's "Eliminate Global Synchronization"
    /// optimization removes these calls between kernels.
    pub fn finish(&mut self) {
        if self.commands_since_finish > 0 {
            let dur = self.device.sync_overhead_s;
            self.push("finish", CommandKind::Finish, dur, None);
            self.commands_since_finish = 0;
        }
    }

    // ---- spans -------------------------------------------------------------

    /// Whether this queue records hierarchical spans.
    pub fn spans_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Opens a scope span (frame / phase / band): subsequent commands and
    /// scopes nest under it until the matching [`CommandQueue::span_close`].
    /// Returns [`SpanId::NONE`] when spans are disabled, so call sites need
    /// no branching of their own.
    pub fn span_open(&mut self, kind: SpanKind, name: &str) -> SpanId {
        if self.spans.is_none() {
            return SpanId::NONE;
        }
        let name = self.intern(name);
        let sim = self.clock_s;
        match &mut self.spans {
            Some(ring) => ring.open(kind, name, sim),
            None => SpanId::NONE,
        }
    }

    /// Opens a scope span named `"{prefix}{label}"` (composed in the
    /// queue's scratch string, like [`CommandQueue::push_labeled`]).
    pub fn span_open_labeled(&mut self, kind: SpanKind, prefix: &str, label: &str) -> SpanId {
        if self.spans.is_none() {
            return SpanId::NONE;
        }
        let mut scratch = std::mem::take(&mut self.name_scratch);
        scratch.clear();
        scratch.push_str(prefix);
        scratch.push_str(label);
        let id = self.span_open(kind, &scratch);
        self.name_scratch = scratch;
        id
    }

    /// Closes the scope `id` at the current simulated/wall time. A
    /// [`SpanId::NONE`] (spans disabled) is a no-op.
    pub fn span_close(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let sim = self.clock_s;
        if let Some(ring) = &mut self.spans {
            ring.close(id, sim);
        }
    }

    /// Snapshot of the retained spans, oldest first (empty when spans are
    /// disabled).
    pub fn span_snapshot(&self) -> Vec<SpanRecord> {
        self.spans
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }

    /// Spans lost to ring wrap-around since creation/reset.
    pub fn spans_evicted(&self) -> u64 {
        self.spans.as_ref().map(|r| r.evicted()).unwrap_or(0)
    }

    // ---- profiling ---------------------------------------------------------

    /// Total simulated time elapsed on this queue.
    pub fn elapsed(&self) -> f64 {
        self.clock_s
    }

    /// All command records, in execution order.
    pub fn records(&self) -> &[CommandRecord] {
        &self.records
    }

    /// Aggregated `(name, total_seconds)` pairs, in first-seen order.
    ///
    /// Names are the queue's interned `Arc<str>`s — aggregation allocates
    /// no per-record strings, only refcount bumps on the shared names.
    pub fn time_by_name(&self) -> Vec<(Arc<str>, f64)> {
        let mut order: Vec<(Arc<str>, f64)> = Vec::new();
        let mut index: std::collections::HashMap<Arc<str>, usize> =
            std::collections::HashMap::new();
        for r in &self.records {
            match index.get(&r.name) {
                Some(&i) => order[i].1 += r.duration_s,
                None => {
                    index.insert(Arc::clone(&r.name), order.len());
                    order.push((Arc::clone(&r.name), r.duration_s));
                }
            }
        }
        order
    }

    /// Clears the clock and records (new measurement run). The name
    /// interner is kept: subsequent frames reuse the same `Arc<str>` names.
    pub fn reset(&mut self) {
        self.clock_s = 0.0;
        self.records.clear();
        self.commands_since_finish = 0;
        self.access_log.clear();
        if let Some(ring) = &mut self.spans {
            ring.clear();
        }
    }
}

/// RAII guard for a buffer mapped for host writing.
pub struct MapWriteGuard<'a, T: Scalar> {
    buf: &'a Buffer<T>,
}

impl<T: Scalar> MapWriteGuard<'_, T> {
    /// Mutable host view of the mapped buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: the mapped flag guarantees exclusive host access; no
        // kernels run while the guard is alive (dispatches are synchronous
        // and require `&mut CommandQueue`).
        unsafe { std::slice::from_raw_parts_mut(self.buf.inner.data_ptr(), self.buf.len()) }
    }
}

impl<T: Scalar> Drop for MapWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.buf.inner.unmap();
    }
}

/// RAII guard for a buffer mapped for host reading.
pub struct MapReadGuard<'a, T: Scalar> {
    buf: &'a Buffer<T>,
}

impl<T: Scalar> MapReadGuard<'_, T> {
    /// Host view of the mapped buffer.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: as for MapWriteGuard; reads only.
        unsafe { std::slice::from_raw_parts(self.buf.inner.data_ptr(), self.buf.len()) }
    }
}

impl<T: Scalar> Drop for MapReadGuard<'_, T> {
    fn drop(&mut self) {
        self.buf.inner.unmap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessWindow;
    use crate::context::Context;
    use crate::cost::OpCounts;

    fn ctx() -> Context {
        Context::new(DeviceSpec::firepro_w8000())
    }

    /// The fill kernel's grid: 64×64 items in 16×16 groups.
    fn fill_desc() -> KernelDesc {
        KernelDesc::new("fill", [64, 64], [16, 16])
    }

    /// Declaration of the fill kernel over flat groups `groups` (whole
    /// 16-row group rows): every covered item reads and writes its own
    /// element once and performs one add.
    fn fill_decl(buf: &Buffer<f32>, groups: std::ops::Range<usize>) -> AccessSummary {
        let desc = fill_desc();
        let rows = 16 * groups.start / 4..16 * groups.end / 4;
        let mut s = AccessSummary::new(&desc, groups);
        s.push(AccessWindow::read(
            buf.info(),
            rows.start * 64,
            rows.len() * 64,
        ));
        s.push(AccessWindow::write(
            buf.info(),
            rows.start * 64,
            rows.len() * 64,
        ));
        let n = s.charged.items;
        s.charge_global_n(4, 0, 4, 0, n);
        s.charged.charge_ops_n(&OpCounts::ZERO.adds(1), n);
        s
    }

    #[test]
    fn write_then_read_roundtrip_and_clock_advances() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("b", 256);
        let src: Vec<f32> = (0..256).map(|i| i as f32).collect();
        q.enqueue_write(&buf, &src).unwrap();
        let mut dst = vec![0.0f32; 256];
        q.enqueue_read(&buf, &mut dst).unwrap();
        assert_eq!(src, dst);
        assert!(q.elapsed() > 0.0);
        assert_eq!(q.records().len(), 2);
    }

    #[test]
    fn kernel_runs_all_groups_and_charges_the_declaration() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("out", 64 * 64);
        let w = buf.write_view();
        let desc = fill_desc();
        let mut decl = AccessSummary::new(&desc, 0..16);
        decl.push(AccessWindow::write(buf.info(), 0, 64 * 64));
        decl.charge_global_n(0, 0, 4, 0, 64 * 64);
        let t = q
            .run(&desc, decl, &[&buf], |g| {
                for l in crate::kernel::items(g.group_size) {
                    let idx = g.global_index(l, 64);
                    w.set_raw(idx, idx as f32);
                }
            })
            .unwrap();
        assert!(t.total_s > 0.0);
        let s = buf.snapshot();
        assert_eq!(s[100], 100.0);
        assert_eq!(s[64 * 64 - 1], (64 * 64 - 1) as f32);
        let rec = &q.records()[0];
        assert_eq!(rec.kind, CommandKind::Kernel);
        let c = rec.counters.unwrap();
        assert_eq!(c.items, 64 * 64);
        assert_eq!(c.groups, 16);
        assert_eq!(c.global_write_scalar, 64 * 64 * 4);
    }

    /// Runs the fill kernel whole-grid, or sliced at the given group-row
    /// cuts (in groups, multiples of 4) and committed.
    fn fill_kernel(
        q: &mut CommandQueue,
        buf: &Buffer<f32>,
        slices: Option<&[usize]>,
    ) -> Result<KernelTime> {
        let w = buf.write_view();
        let desc = fill_desc();
        let body = |g: &mut GroupCtx| {
            for l in crate::kernel::items(g.group_size) {
                g.begin_item(l);
                let idx = g.global_index(l, 64);
                w.set_raw(idx, w.get_raw(idx) + idx as f32);
            }
        };
        match slices {
            None => q.run(&desc, fill_decl(buf, 0..16), &[buf], body),
            Some(cuts) => {
                let mut acc = SlicedDispatch::new();
                let mut start = 0;
                for &end in cuts.iter().chain(&[desc.total_groups()]) {
                    q.run_sliced(&desc, fill_decl(buf, start..end), &[buf], &mut acc, body)?;
                    start = end;
                }
                q.commit_sliced(&desc, acc)
            }
        }
    }

    #[test]
    fn sliced_dispatch_commits_bit_identical_record() {
        let mono = ctx();
        let mut qm = mono.queue();
        let a = mono.buffer::<f32>("out", 64 * 64);
        let tm = fill_kernel(&mut qm, &a, None).unwrap();

        let sliced = ctx();
        let mut qs = sliced.queue();
        let b = sliced.buffer::<f32>("out", 64 * 64);
        // Deliberately uneven cuts (one, two and one group rows) of the
        // 16-group grid.
        let ts = fill_kernel(&mut qs, &b, Some(&[4, 12])).unwrap();

        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(tm.total_s.to_bits(), ts.total_s.to_bits());
        assert_eq!(qm.elapsed().to_bits(), qs.elapsed().to_bits());
        let (rm, rs) = (&qm.records()[0], &qs.records()[0]);
        assert_eq!(rm.name, rs.name);
        assert_eq!(rm.kind, rs.kind);
        assert_eq!(rm.duration_s.to_bits(), rs.duration_s.to_bits());
        assert_eq!(rm.counters.unwrap(), rs.counters.unwrap());
        assert_eq!(qs.records().len(), 1);
    }

    #[test]
    fn sliced_dispatch_is_sanitizer_clean_and_audits_once() {
        let ctx = Context::sanitized(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("out", 64 * 64);
        buf.fill_from(&vec![0.0; 64 * 64]);
        fill_kernel(&mut q, &buf, Some(&[4, 8, 12])).unwrap();
        let report = ctx.sanitize_report().unwrap();
        assert!(report.is_clean(), "{report}");
        // Each slice counts as one analysed dispatch.
        assert_eq!(report.dispatches, 4);
    }

    #[test]
    fn sliced_dispatch_commit_requires_full_coverage() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("out", 64 * 64);
        let w = buf.write_view();
        let desc = fill_desc();
        let mut acc = SlicedDispatch::new();
        q.run_sliced(&desc, fill_decl(&buf, 0..4), &[&buf], &mut acc, |g| {
            for l in crate::kernel::items(g.group_size) {
                let idx = g.global_index(l, 64);
                w.set_raw(idx, 1.0);
            }
        })
        .unwrap();
        let err = q.commit_sliced(&desc, acc).unwrap_err();
        assert!(matches!(
            err,
            Error::Access(crate::access::AccessError::CoverageGap { .. })
        ));
        // Nothing was recorded and the clock did not move.
        assert!(q.records().is_empty());
        assert_eq!(q.elapsed(), 0.0);
    }

    #[test]
    fn sliced_dispatch_range_checks_and_empty_slices() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("out", 64 * 64);
        let desc = fill_desc();
        let mut acc = SlicedDispatch::new();
        // Empty slice: fine, a no-op.
        let empty = AccessSummary::new(&desc, 3..3);
        q.run_sliced(&desc, empty, &[&buf], &mut acc, |_| {})
            .unwrap();
        assert!(acc.ranges.is_empty());
        // Out-of-grid range: typed error, before anything runs.
        let err = q
            .run_sliced(
                &desc,
                AccessSummary::new(&desc, 10..17),
                &[&buf],
                &mut acc,
                |_| panic!("must not execute"),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Access(AccessError::GridMismatch { .. })
        ));
    }

    #[test]
    fn dispatch_rejects_a_declaration_for_another_grid() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("out", 64 * 64);
        let desc = fill_desc();
        let other = KernelDesc::new("fill", [32, 64], [16, 16]);
        let err = q
            .run(&desc, AccessSummary::new(&other, 0..8), &[&buf], |_| {})
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Access(AccessError::GridMismatch { .. })
        ));
        // A partial range on the whole-grid path is rejected too.
        let err = q
            .run(&desc, AccessSummary::new(&desc, 0..8), &[&buf], |_| {})
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Access(AccessError::GridMismatch { .. })
        ));
        assert!(q.records().is_empty());
    }

    /// Runs a recording row kernel over `desc` with `threads` host
    /// threads, whole-grid (`cuts == None`) or sliced at the given flat
    /// group cuts (which may fall inside a group row). Returns every row
    /// unit's `(group_y, run, visits)` in completion order, where `visits`
    /// lists the unit's `(group_x, local row)` calls in execution order.
    #[allow(clippy::type_complexity)]
    fn record_rows(
        desc: &KernelDesc,
        threads: usize,
        cuts: Option<&[usize]>,
    ) -> Vec<(usize, std::ops::Range<usize>, Vec<(usize, usize)>)> {
        let ctx = ctx().with_dispatch_threads(threads);
        let mut q = ctx.queue();
        let log = Mutex::new(Vec::new());
        let body = |r: &mut RowCtx| {
            let mut visits = Vec::new();
            for ly in 0..r.group_size[1] {
                for gx in r.groups.clone() {
                    r.begin_item(gx, [0, ly]);
                    visits.push((gx, ly));
                }
            }
            log.lock()
                .unwrap()
                .push((r.group_y, r.groups.clone(), visits));
        };
        let n = desc.total_groups();
        match cuts {
            None => {
                q.run_rows(desc, AccessSummary::new(desc, 0..n), &[], body)
                    .unwrap();
            }
            Some(cuts) => {
                let mut acc = SlicedDispatch::new();
                let mut start = 0;
                for &end in cuts.iter().chain(&[n]) {
                    let decl = AccessSummary::new(desc, start..end);
                    q.run_sliced_rows(desc, decl, &[], &mut acc, body).unwrap();
                    start = end;
                }
                q.commit_sliced(desc, acc).unwrap();
            }
        }
        assert_eq!(q.records().len(), 1);
        log.into_inner().unwrap()
    }

    #[test]
    fn row_dispatch_visits_every_group_row_pair_once_in_row_order() {
        let grids = [
            KernelDesc::new("ragged", [1008, 704], [16, 16]), // 1001x701
            KernelDesc::new("one_wide", [16, 80], [16, 16]),
            KernelDesc::new("one_row", [160, 16], [16, 16]),
            KernelDesc::new("odd_group", [24, 20], [8, 4]),
        ];
        for desc in &grids {
            let [gx, gy] = desc.num_groups();
            let n = gx * gy;
            // Whole grid, whole-group-row slices, and cuts inside rows.
            let row_cuts: Vec<usize> = (1..gy).step_by(2).map(|r| r * gx).collect();
            let mid_cuts: Vec<usize> = [gx / 2, gx + 1, n / 2, n - 1]
                .into_iter()
                .filter(|&c| c > 0 && c < n)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            for cuts in [None, Some(&row_cuts[..]), Some(&mid_cuts[..])] {
                for threads in [1, 2] {
                    let what = format!("{} cuts {cuts:?} threads {threads}", desc.name);
                    let units = record_rows(desc, threads, cuts);
                    let mut seen = vec![0u32; n * desc.group[1]];
                    for (group_y, run, visits) in &units {
                        assert!(!run.is_empty() && run.end <= gx, "{what}");
                        // Local rows outermost, the run's groups inside.
                        let expected: Vec<(usize, usize)> = (0..desc.group[1])
                            .flat_map(|ly| run.clone().map(move |x| (x, ly)))
                            .collect();
                        assert_eq!(visits, &expected, "{what}: row {group_y}");
                        for &(x, ly) in visits {
                            seen[(group_y * gx + x) * desc.group[1] + ly] += 1;
                        }
                    }
                    assert!(seen.iter().all(|&c| c == 1), "{what}");
                }
            }
        }
    }

    #[test]
    fn row_dispatch_panic_is_a_typed_error_and_the_queue_recovers() {
        for threads in [1, 2] {
            let ctx = ctx().with_dispatch_threads(threads);
            let mut q = ctx.queue();
            let desc = KernelDesc::new("boom", [64, 64], [16, 16]);
            let err = q
                .run_rows(&desc, AccessSummary::new(&desc, 0..16), &[], |r| {
                    if r.group_y == 2 {
                        panic!("row unit {} failed", r.group_y);
                    }
                })
                .unwrap_err();
            match err {
                Error::KernelPanic { kernel, message } => {
                    assert_eq!(kernel, "boom");
                    assert!(message.contains("row unit 2 failed"), "{message}");
                }
                other => panic!("expected KernelPanic, got {other:?}"),
            }
            assert!(q.records().is_empty());
            // The next dispatch on the same queue runs and records.
            let buf = ctx.buffer::<f32>("out", 64 * 64);
            fill_kernel(&mut q, &buf, None).unwrap();
            assert_eq!(q.records().len(), 1);
            assert_eq!(buf.snapshot()[64 * 64 - 1], (64 * 64 - 1) as f32);
        }
    }

    #[test]
    fn kernel_race_detected_under_validation() {
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("out", 16);
        let w = buf.write_view();
        let desc = KernelDesc::new("racy", [64, 1], [8, 1]);
        let decl = AccessSummary::new(&desc, 0..8);
        let err = q
            .run(&desc, decl, &[&buf], |g| {
                for l in crate::kernel::items(g.group_size) {
                    // Everyone writes slot local-x: races across groups.
                    w.set_raw(l[0], 1.0);
                }
            })
            .unwrap_err();
        assert!(matches!(err, Error::WriteRace { .. }));
    }

    #[test]
    fn rect_write_pads_into_interior() {
        let ctx = ctx();
        let mut q = ctx.queue();
        // 6x6 padded buffer, write a 4x4 source at (1,1).
        let buf = ctx.buffer::<f32>("padded", 36);
        let src: Vec<f32> = (1..=16).map(|i| i as f32).collect();
        q.enqueue_write_rect(&buf, 6, 1, 1, &src, 4, 4).unwrap();
        let s = buf.snapshot();
        assert_eq!(s[0], 0.0); // border untouched
        assert_eq!(s[6 + 1], 1.0); // (1,1)
        assert_eq!(s[6 + 4], 4.0); // (4,1)
        assert_eq!(s[4 * 6 + 4], 16.0); // (4,4)
        assert_eq!(s[35], 0.0);
    }

    #[test]
    fn rect_write_shape_errors() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("p", 36);
        assert!(matches!(
            q.enqueue_write_rect(&buf, 6, 1, 1, &[1.0; 10], 4, 4),
            Err(Error::RectShapeMismatch { .. })
        ));
        assert!(matches!(
            q.enqueue_write_rect(&buf, 6, 3, 3, &[1.0; 16], 4, 4),
            Err(Error::TransferOutOfBounds { .. })
        ));
    }

    #[test]
    fn rect_read_extracts_region() {
        let ctx = ctx();
        let mut q = ctx.queue();
        // 4x4 matrix 0..16; read the centre 2x2.
        let buf = ctx.buffer_from("m", &(0..16).map(|i| i as f32).collect::<Vec<_>>());
        let mut out = [0.0f32; 4];
        q.enqueue_read_rect(&buf, 4, 1, 1, &mut out, 2, 2).unwrap();
        assert_eq!(out, [5.0, 6.0, 9.0, 10.0]);
        let rec = q.records().last().unwrap();
        assert_eq!(rec.kind, CommandKind::ReadBuffer);
        assert!(rec.name.starts_with("rect-read:m"));
    }

    #[test]
    fn rect_read_bounds_checked() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("m", 16);
        let mut out = [0.0f32; 4];
        // Region wraps the row.
        assert!(q.enqueue_read_rect(&buf, 4, 3, 0, &mut out, 2, 2).is_err());
        // Region falls off the bottom.
        assert!(q.enqueue_read_rect(&buf, 4, 0, 3, &mut out, 2, 2).is_err());
        // Host slice wrong size.
        let mut small = [0.0f32; 3];
        assert!(matches!(
            q.enqueue_read_rect(&buf, 4, 0, 0, &mut small, 2, 2),
            Err(Error::RectShapeMismatch { .. })
        ));
    }

    #[test]
    fn map_guards_enforce_exclusivity() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("m", 16);
        {
            let mut g = q.map_write(&buf).unwrap();
            g.as_mut_slice()[3] = 42.0;
            // Second map while the first is alive fails. We must not hold
            // two guards on the same queue borrow, so check via a second
            // queue.
            let mut q2 = ctx.queue();
            assert!(matches!(q2.map_read(&buf), Err(Error::AlreadyMapped)));
        }
        // Guard dropped: mapping again works and sees the written data.
        let g = q.map_read(&buf).unwrap();
        assert_eq!(g.as_slice()[3], 42.0);
    }

    #[test]
    fn finish_charges_only_when_pending() {
        let ctx = ctx();
        let mut q = ctx.queue();
        q.finish(); // nothing pending: free, no record
        assert_eq!(q.records().len(), 0);
        let buf = ctx.buffer::<f32>("b", 4);
        q.enqueue_write(&buf, &[1.0; 4]).unwrap();
        let before = q.elapsed();
        q.finish();
        assert!(q.elapsed() > before);
        q.finish(); // no new commands: free again
        assert_eq!(
            q.records()
                .iter()
                .filter(|r| r.kind == CommandKind::Finish)
                .count(),
            1
        );
    }

    #[test]
    fn time_by_name_aggregates() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("b", 4);
        q.enqueue_write(&buf, &[1.0; 4]).unwrap();
        q.enqueue_write(&buf, &[2.0; 4]).unwrap();
        let agg = q.time_by_name();
        assert_eq!(agg.len(), 1);
        assert_eq!(&*agg[0].0, "write:b");
        // The aggregated name is the interned Arc, not a fresh allocation.
        assert!(Arc::ptr_eq(&agg[0].0, &q.records()[0].name));
        let rec_total: f64 = q.records().iter().map(|r| r.duration_s).sum();
        assert!((agg[0].1 - rec_total).abs() < 1e-15);
        assert!((q.elapsed() - rec_total).abs() < 1e-15);
    }

    #[test]
    fn repeated_names_share_one_interned_allocation() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("b", 4);
        q.enqueue_write(&buf, &[1.0; 4]).unwrap();
        q.enqueue_write(&buf, &[2.0; 4]).unwrap();
        let r = q.records();
        assert!(Arc::ptr_eq(&r[0].name, &r[1].name));
        // Interning survives reset: the next frame reuses the same name.
        let first = Arc::clone(&r[0].name);
        q.reset();
        q.enqueue_write(&buf, &[3.0; 4]).unwrap();
        assert!(Arc::ptr_eq(&q.records()[0].name, &first));
    }

    #[test]
    fn charge_host_uses_cpu_model() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let mut c = CostCounters::new();
        c.ops = OpCounts::ZERO.pows(1_000_000);
        let dur = q.charge_host("strength_cpu", &c);
        assert!(dur > 0.0);
        assert_eq!(q.records()[0].kind, CommandKind::HostWork);
    }

    #[test]
    fn charge_helpers_use_their_transfer_models() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let bytes = 1 << 20;
        q.charge_bulk("write:up_border", CommandKind::WriteBuffer, bytes);
        q.charge_map("map-write:up_border", bytes);
        let recs = q.records();
        assert_eq!(recs.len(), 2);
        let t = &q.device().transfer;
        assert!((recs[0].duration_s - crate::timing::bulk_transfer_time(t, bytes)).abs() < 1e-15);
        assert!((recs[1].duration_s - crate::timing::map_transfer_time(t, bytes)).abs() < 1e-15);
        assert_eq!(recs[1].kind, CommandKind::Map);
    }

    #[test]
    fn reset_clears_everything() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("b", 4);
        q.enqueue_write(&buf, &[1.0; 4]).unwrap();
        q.reset();
        assert_eq!(q.elapsed(), 0.0);
        assert!(q.records().is_empty());
    }

    #[test]
    fn oversized_transfers_error() {
        let ctx = ctx();
        let mut q = ctx.queue();
        let buf = ctx.buffer::<f32>("b", 4);
        assert!(q.enqueue_write(&buf, &[0.0; 8]).is_err());
        let mut dst = [0.0f32; 8];
        assert!(q.enqueue_read(&buf, &mut dst).is_err());
    }
}
