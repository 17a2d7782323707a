//! The in-order command queue: dispatch, transfers, host work, profiling.
//!
//! Every command leaves a [`CommandRecord`] at its place in the command
//! order, with a *simulated* duration from the timing model appended to
//! the queue's virtual clock; its *functional* work runs on the host.
//! Transfers copy memory right away — split over the dispatch threads from
//! [`SPLIT_COPY_BYTES`] up. A kernel's duration comes from the
//! [`CostCounters`] its [`AccessSummary`] declares — the queue charges
//! that declaration and nothing else — so recording a dispatch and running
//! its body are separable:
//!
//! * [`CommandQueue::run`] / [`CommandQueue::run_rows`] /
//!   [`CommandQueue::dispatch`] run the body now, once per work-group or
//!   once per work-group row (the closure walks each image row across the
//!   row's groups), then record it;
//! * [`CommandQueue::commit`] records a [`Dispatch`] now and keeps its
//!   body; [`CommandQueue::execute`] later runs the bodies of several
//!   committed dispatches as one pass over windows of rows, every part's
//!   units of a window before the next window, so an intermediate is read
//!   back while still in cache. Sanitized and validated contexts run a
//!   committed body at once, because the sanitizer and the race marks
//!   attribute per dispatch.
//!
//! All of them go through one execution loop ([`crate::par::run_pass`]);
//! a run-now dispatch is its one-part, one-window case. The unit and the
//! order change host wall time only — never pixels, records or simulated
//! seconds. Because the queue is in-order — like the paper's OpenCL
//! command queue with the default execution mode — virtual time is simply
//! the sum of command durations, plus explicit [`CommandQueue::finish`]
//! synchronisation overheads (which the paper's Section V-F optimization
//! removes).
//!
//! The per-stage breakdowns of the paper's Fig. 13 are produced by
//! aggregating the records by name.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::access::{self, AccessError, AccessSummary};
use crate::buffer::{Buffer, Scalar};
use crate::cost::CostCounters;
use crate::device::{CpuSpec, DeviceSpec};
use crate::error::{Error, Result};
use crate::kernel::{GroupCtx, KernelDesc, RowCtx};
use crate::par::{DispatchPool, WindowUnits};
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

/// The body of a dispatch, owned: one closure call per work-group
/// ([`Dispatch::groups`]) or per work-group row ([`Dispatch::rows`]).
enum Body {
    Group(Box<dyn Fn(&mut GroupCtx) + Send + Sync>),
    Row(Box<dyn Fn(&mut RowCtx) + Send + Sync>),
}

/// A kernel dispatch that owns its body: the grid, the one cost
/// declaration and the closure. Built by a kernel and handed to
/// [`CommandQueue::dispatch`] (run now) or [`CommandQueue::commit`]
/// (record now, run when the host needs the outputs).
pub struct Dispatch {
    desc: KernelDesc,
    decl: AccessSummary,
    body: Body,
}

impl Dispatch {
    /// A dispatch whose body runs once per work-group (see
    /// [`CommandQueue::run`]).
    pub fn groups(
        desc: KernelDesc,
        decl: AccessSummary,
        f: impl Fn(&mut GroupCtx) + Send + Sync + 'static,
    ) -> Self {
        Dispatch {
            desc,
            decl,
            body: Body::Group(Box::new(f)),
        }
    }

    /// A dispatch whose body runs once per work-group row (see
    /// [`CommandQueue::run_rows`]).
    pub fn rows(
        desc: KernelDesc,
        decl: AccessSummary,
        f: impl Fn(&mut RowCtx) + Send + Sync + 'static,
    ) -> Self {
        Dispatch {
            desc,
            decl,
            body: Body::Row(Box::new(f)),
        }
    }
}

/// A committed dispatch whose body has not run yet. Handed back to
/// [`CommandQueue::execute`] inside a [`Part`]; a handle whose body
/// already ran (per-kernel order, or an earlier pass), or that predates a
/// [`CommandQueue::reset`] or a failed command, names nothing and its part
/// is skipped.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    slot: usize,
    generation: u64,
}

impl Pending {
    /// The handle of a dispatch whose body ran at its commit.
    const RAN: Pending = Pending {
        slot: usize::MAX,
        generation: u64::MAX,
    };
}

/// One dispatch of a pass and its window→units map (see
/// [`crate::par::run_pass`] for the dependency rule the map must keep).
pub struct Part<'a> {
    /// The committed dispatch.
    pub kernel: Pending,
    /// Which of the dispatch's units (groups or group rows) run in each
    /// window.
    pub units: &'a (dyn Fn(usize) -> WindowUnits + Sync),
}

impl Part<'_> {
    /// The whole grid in a single window.
    pub fn whole(kernel: Pending) -> Part<'static> {
        Part {
            kernel,
            units: &WindowUnits::whole,
        }
    }
}

/// A committed body waiting for its pass.
struct PendingBody {
    desc: KernelDesc,
    body: Body,
    /// Id of the leaf span the commit recorded (spans on only): the pass
    /// credits the body's host time to it.
    leaf: Option<u64>,
}

/// The unit of parallel host work a dispatch executes its closure for: one
/// work-group, or one group row. The dispatch call picks it
/// ([`CommandQueue::run`] per group, [`CommandQueue::run_rows`] per row);
/// both go through the one execution loop.
#[derive(Clone, Copy)]
enum Unit<'f> {
    Group(&'f (dyn Fn(&mut GroupCtx) + Sync)),
    Row(&'f (dyn Fn(&mut RowCtx) + Sync)),
}

impl Body {
    fn unit(&self) -> Unit<'_> {
        match self {
            Body::Group(f) => Unit::Group(&**f),
            Body::Row(f) => Unit::Row(&**f),
        }
    }
}

/// The first panic of a pass: the part it came from and its message.
#[derive(Default)]
struct Poison {
    raised: AtomicBool,
    first: Mutex<Option<(usize, String)>>,
}

impl Unit<'_> {
    /// Units of `desc` this body is called for: groups or group rows.
    fn count(self, desc: &KernelDesc) -> usize {
        let [gx, gy] = desc.num_groups();
        match self {
            Unit::Group(_) => gx * gy,
            Unit::Row(_) => gy,
        }
    }

    /// Runs units `units` of the dispatch `desc`, one closure call each.
    /// A panicking closure (e.g. an out-of-bounds assertion on an
    /// unsanitized context) is caught into `poison` — recoverable as
    /// `Error::KernelPanic` instead of tearing the process down — and the
    /// pass's remaining units are skipped.
    fn run(
        self,
        desc: &KernelDesc,
        units: std::ops::Range<usize>,
        san: Option<&(Arc<SanitizeShared>, u64)>,
        part: usize,
        poison: &Poison,
    ) {
        let gx = desc.num_groups()[0];
        for u in units {
            if poison.raised.load(Ordering::Relaxed) {
                return;
            }
            let san = || san.map(|(s, e)| (Arc::clone(s), *e));
            let body = || match self {
                Unit::Group(f) => {
                    let san = san().map(|(s, e)| GroupSan::new(s, e, u, desc.group_lanes()));
                    f(&mut GroupCtx::new_with(desc, [u % gx, u / gx], san))
                }
                Unit::Row(f) => f(&mut RowCtx::new(desc, u, 0..gx, san())),
            };
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
                poison.raised.store(true, Ordering::Relaxed);
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "kernel closure panicked".to_string());
                poison
                    .first
                    .lock()
                    .expect("poison lock is never held across a panic")
                    .get_or_insert((part, msg));
            }
        }
    }
}

/// Copies of at least this many bytes are split over the queue's dispatch
/// threads; below it a copy runs on the calling thread (handing a small
/// frame's copy to a worker costs more than it saves).
pub const SPLIT_COPY_BYTES: u64 = 2 << 20;

/// An in-order command queue bound to one simulated device and one modeled
/// host CPU.
pub struct CommandQueue {
    device: DeviceSpec,
    cpu: CpuSpec,
    clock_s: f64,
    records: Vec<CommandRecord>,
    commands_since_finish: usize,
    /// Host threads used per kernel pass and per large copy (0 = all
    /// available).
    dispatch_threads: usize,
    /// The creating context's worker pool, shared with it.
    pool: Arc<DispatchPool>,
    /// Interned command names: one `Arc<str>` per distinct name for the
    /// queue's lifetime, shared by every record (survives [`Self::reset`]).
    interner: HashSet<Arc<str>>,
    /// Reused scratch for composing `"prefix:label"` names without a fresh
    /// `String` per command.
    name_scratch: String,
    /// Sanitizer handle inherited from the creating context; `Some` only
    /// for sanitized contexts.
    sanitize: Option<Arc<SanitizeShared>>,
    /// Whether the creating context validates writes (race marks).
    validate: bool,
    /// When true, declared summaries are retained in [`Self::access_log`].
    keep_access_log: bool,
    /// Verified summaries of past dispatches (populated only when the log
    /// is kept, to bound steady-state memory).
    access_log: Vec<AccessSummary>,
    /// Hierarchical span ring; `None` when span tracing is off. Boxed so
    /// the disabled (default) case costs one pointer in the queue.
    spans: Option<Box<SpanRing>>,
    /// Committed bodies not yet executed, by [`Pending`] slot.
    pending: Vec<Option<PendingBody>>,
    /// Bumped whenever `pending` is dropped, so older handles name nothing.
    generation: u64,
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        device: DeviceSpec,
        cpu: CpuSpec,
        dispatch_threads: usize,
        pool: Arc<DispatchPool>,
        sanitize: Option<Arc<SanitizeShared>>,
        validate: bool,
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
            pool,
            interner: HashSet::new(),
            name_scratch: String::new(),
            sanitize,
            validate,
            keep_access_log,
            access_log: Vec::new(),
            spans: span_capacity.map(|c| Box::new(SpanRing::new(c))),
            pending: Vec::new(),
            generation: 0,
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

    /// Host threads a pass or a large copy uses.
    fn threads(&self) -> usize {
        if self.dispatch_threads == 0 {
            crate::par::default_threads()
        } else {
            self.dispatch_threads
        }
    }

    /// Threads a pass runs on whose largest part covers `elems` frame
    /// elements ([`crate::par::pass_threads`]).
    fn pass_threads(&self, elems: usize) -> usize {
        crate::par::pass_threads(elems, self.threads())
    }

    /// How many threads share a copy of `bytes`: all dispatch threads from
    /// [`SPLIT_COPY_BYTES`] up, the calling thread alone below.
    fn copy_parts(&self, bytes: usize) -> usize {
        if (bytes as u64) < SPLIT_COPY_BYTES {
            1
        } else {
            self.threads()
        }
    }

    /// Chunk length (elements) of a bulk copy of `data`, in whole multiples
    /// of 64 elements so no cache line is written by two threads.
    fn bulk_chunk<T>(&self, data: &[T]) -> usize {
        let parts = self.copy_parts(std::mem::size_of_val(data));
        data.len().div_ceil(parts).div_ceil(64) * 64
    }

    /// Rows per band of a rect copy of `rows` rows of `row_bytes` each.
    fn rect_band(&self, rows: usize, row_bytes: usize) -> usize {
        rows.div_ceil(self.copy_parts(rows * row_bytes))
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

    /// Runs an owned [`Dispatch`] now: [`CommandQueue::run`] or
    /// [`CommandQueue::run_rows`], as its body says.
    pub fn dispatch(&mut self, d: Dispatch, outputs: &[&dyn WriteTracked]) -> Result<KernelTime> {
        self.run_unit(&d.desc, d.decl, outputs, d.body.unit())
    }

    /// Commits a dispatch at its place in the command order and defers its
    /// body: verifies the declaration, records the command (simulated
    /// time, counters, access log) exactly as [`CommandQueue::dispatch`]
    /// would, and keeps the body until a [`CommandQueue::execute`] pass
    /// runs it — at the first point where the host needs its outputs.
    ///
    /// Sanitized and validated contexts run the body right here, before
    /// the record, because the sanitizer and the race marks attribute what
    /// they observe per dispatch; `outputs` serve those checks. The
    /// returned handle then names nothing and its part of a pass is
    /// skipped — the same records, bits and pixels, in per-kernel order.
    pub fn commit(&mut self, d: Dispatch, outputs: &[&dyn WriteTracked]) -> Result<Pending> {
        if self.sanitize.is_some() || self.validate {
            self.dispatch(d, outputs)?;
            return Ok(Pending::RAN);
        }
        let Dispatch { desc, decl, body } = d;
        self.check_and_record(&desc, decl)?;
        let leaf = self.spans.as_ref().and_then(|r| r.last_id());
        self.pending.push(Some(PendingBody { desc, body, leaf }));
        Ok(Pending {
            slot: self.pending.len() - 1,
            generation: self.generation,
        })
    }

    /// Commits a dispatch without a body, for a host that produces its
    /// writes elsewhere (a later body rebuilds the rows it reads from the
    /// dispatch's inputs): verifies the declaration and records the command
    /// — simulated time, counters, access log — exactly as
    /// [`CommandQueue::commit`] does, and keeps nothing to run.
    ///
    /// # Errors
    /// On a declaration that fails verification, and on sanitized or
    /// validated contexts, which observe a dispatch's writes while its body
    /// runs: there the body must run.
    pub fn commit_recorded(&mut self, desc: &KernelDesc, decl: AccessSummary) -> Result<()> {
        if self.sanitize.is_some() || self.validate {
            return Err(Error::InvalidKernelArgs {
                kernel: desc.name.clone(),
                detail: "a sanitized or validated context runs every committed body".into(),
            });
        }
        self.check_and_record(desc, decl)
    }

    /// The commit of both [`CommandQueue::commit`] and
    /// [`CommandQueue::commit_recorded`]: verifies `decl` and records the
    /// dispatch; a failed check drops every pending body.
    fn check_and_record(&mut self, desc: &KernelDesc, decl: AccessSummary) -> Result<()> {
        if let Err(e) = Self::check(desc, &decl) {
            self.drop_pending();
            return Err(e);
        }
        self.record(desc, decl);
        Ok(())
    }

    /// Committed bodies that have not run yet.
    pub fn pending_bodies(&self) -> usize {
        self.pending.iter().flatten().count()
    }

    /// Runs the bodies of committed dispatches as one pass over `windows`
    /// row windows: every part's units of a window before the next window,
    /// runs of windows in parallel (see [`crate::par::run_pass`], whose
    /// dependency rule each part's map must keep). Parts whose body
    /// already ran are skipped. Records and simulated time do not change —
    /// the commits made them.
    ///
    /// With spans on, each part's host time is measured per window slice
    /// and the pass's wall time is credited to the parts' kernel spans in
    /// proportion ([`SpanRing::attribute_pass`]).
    ///
    /// # Errors
    /// A panicking body fails the pass with [`Error::KernelPanic`] naming
    /// its kernel; every pending body is dropped.
    pub fn execute(&mut self, windows: usize, parts: &[Part<'_>]) -> Result<()> {
        let mut bodies = Vec::with_capacity(parts.len());
        for part in parts {
            let p = part.kernel;
            if p.generation != self.generation {
                continue;
            }
            if let Some(b) = self.pending.get_mut(p.slot).and_then(Option::take) {
                bodies.push((b, part.units));
            }
        }
        if self.pending.iter().all(Option::is_none) {
            self.drop_pending();
        }
        if bodies.is_empty() {
            return Ok(());
        }
        let poison = Poison::default();
        let timed = self.spans.is_some();
        let busy: Vec<AtomicU64> = if timed {
            bodies.iter().map(|_| AtomicU64::new(0)).collect()
        } else {
            Vec::new()
        };
        let start_ns = self.spans.as_ref().map_or(0, |r| r.now());
        let elems = bodies.iter().map(|(b, _)| b.desc.total_elems()).max();
        crate::par::run_pass(
            &self.pool,
            windows,
            bodies.len(),
            self.pass_threads(elems.unwrap_or(0)),
            |p, w| {
                let (b, map) = &bodies[p];
                let n = b.body.unit().count(&b.desc);
                let WindowUnits { units, lag } = map(w);
                WindowUnits {
                    units: units.start.min(n)..units.end.min(n),
                    lag,
                }
            },
            |p, units| {
                if units.is_empty() {
                    return;
                }
                let t = timed.then(std::time::Instant::now);
                let b = &bodies[p].0;
                b.body.unit().run(&b.desc, units, None, p, &poison);
                if let Some(t) = t {
                    busy[p].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            },
        );
        if let Some((p, message)) = poison.first.into_inner().expect("poison lock") {
            self.drop_pending();
            return Err(Error::KernelPanic {
                kernel: bodies[p].0.desc.name.clone(),
                message,
            });
        }
        if let Some(ring) = &mut self.spans {
            let end_ns = ring.now();
            let leaves: Vec<(u64, u64)> = bodies
                .iter()
                .zip(&busy)
                .filter_map(|((b, _), t)| b.leaf.map(|id| (id, t.load(Ordering::Relaxed))))
                .collect();
            ring.attribute_pass(start_ns, end_ns, &leaves);
        }
        Ok(())
    }

    /// Drops every committed body that has not run; outstanding handles
    /// name nothing after. Records and simulated time are kept.
    pub fn drop_pending(&mut self) {
        self.pending.clear();
        self.generation += 1;
    }

    /// Checks `decl` against `desc` and verifies it statically (bounds,
    /// write disjointness, accounting) — before any body runs.
    fn check(desc: &KernelDesc, decl: &AccessSummary) -> Result<()> {
        if !decl.covers_full_grid() {
            return Err(Error::Access(AccessError::GridMismatch {
                kernel: desc.name.clone(),
                detail: format!(
                    "whole-grid dispatch declared groups {}..{} of {}",
                    decl.groups.start, decl.groups.end, decl.total_groups
                ),
            }));
        }
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
        Ok(())
    }

    /// Records a verified dispatch charged with `decl`'s counters and
    /// retains `decl` in the access log when the context keeps one.
    fn record(&mut self, desc: &KernelDesc, decl: AccessSummary) -> KernelTime {
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
        t
    }

    /// The run-now dispatch shared by every entry point: checks `decl`
    /// before any work runs, executes the grid as a one-part pass — one
    /// closure call per group, or per group row, as `unit` says —
    /// cross-validates the declared windows against the sanitizer's
    /// observation, checks `outputs` for write races, and records the
    /// dispatch charged with `decl`'s counters.
    fn run_unit(
        &mut self,
        desc: &KernelDesc,
        decl: AccessSummary,
        outputs: &[&dyn WriteTracked],
        unit: Unit<'_>,
    ) -> Result<KernelTime> {
        let r = self.run_unit_inner(desc, decl, outputs, unit);
        if r.is_err() {
            self.drop_pending();
        }
        r
    }

    fn run_unit_inner(
        &mut self,
        desc: &KernelDesc,
        decl: AccessSummary,
        outputs: &[&dyn WriteTracked],
        unit: Unit<'_>,
    ) -> Result<KernelTime> {
        Self::check(desc, &decl)?;
        for out in outputs {
            out.begin_epoch();
        }
        let san = self
            .sanitize
            .as_ref()
            .map(|s| (Arc::clone(s), s.begin_dispatch(&desc.name)));
        let poison = Poison::default();
        let n = unit.count(desc);
        crate::par::run_pass(
            &self.pool,
            1,
            1,
            self.pass_threads(desc.total_elems()),
            |_, _| WindowUnits {
                units: 0..n,
                lag: 0,
            },
            |_, units| unit.run(desc, units, san.as_ref(), 0, &poison),
        );
        let panicked = poison.first.into_inner().expect("poison lock");
        let mut observed = (0, 0);
        if let Some(sh) = &self.sanitize {
            if panicked.is_none() {
                observed = sh.dispatch_traffic();
                Self::cross_validate(sh, &decl, observed.0, observed.1);
            }
            sh.end_dispatch();
        }
        if let Some((_, message)) = panicked {
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
        if let Some(sh) = &self.sanitize {
            let (r, w) = observed;
            sh.audit_totals(&desc.name, &decl.charged, r, w, decl.read_ratio);
        }
        Ok(self.record(desc, decl))
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
        // Functional copy, split over the dispatch threads when large.
        crate::par::split_chunks(&self.pool, src, self.bulk_chunk(src), |off, c| {
            buf.inner.copy_in(off, c)
        });
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
        let chunk = self.bulk_chunk(dst);
        crate::par::split_chunks_mut(&self.pool, dst, chunk, |off, c| buf.inner.copy_out(off, c));
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
        let region = [buf_width, buf_x, buf_y, src_width, rows];
        self.write_rect(buf, region, src, |b, off, row| b.copy_in(off, row))
    }

    /// [`CommandQueue::enqueue_write_rect`] from host elements of another
    /// type, converted by `T::from` row by row as they are copied — the
    /// upload widens 8-bit pixels straight into an `f32` buffer, so the
    /// host never builds an `f32` plane. The buffer contents, init shadow,
    /// write-race marks, record and simulated time are those of the plain
    /// rect write of the converted matrix: the charge is the declared
    /// `T` bytes, never the host format's.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_write_rect_from<T: Scalar + From<S>, S: Copy + Sync>(
        &mut self,
        buf: &Buffer<T>,
        buf_width: usize,
        buf_x: usize,
        buf_y: usize,
        src: &[S],
        src_width: usize,
        rows: usize,
    ) -> Result<f64> {
        let region = [buf_width, buf_x, buf_y, src_width, rows];
        self.write_rect(buf, region, src, |b, off, row| b.copy_in_from(off, row))
    }

    /// The rect write behind both entry points: checks the region
    /// `[buf_width, buf_x, buf_y, src_width, rows]`, copies bands of whole
    /// rows with `copy_row` — over the dispatch threads when the `T` bytes
    /// reach [`SPLIT_COPY_BYTES`] — and charges the `T` bytes.
    fn write_rect<T: Scalar, S: Sync>(
        &mut self,
        buf: &Buffer<T>,
        [buf_width, buf_x, buf_y, src_width, rows]: [usize; 5],
        src: &[S],
        copy_row: impl Fn(&crate::buffer::BufferInner<T>, usize, &[S]) + Sync,
    ) -> Result<f64> {
        if src.len() != src_width * rows || rows == 0 || src_width == 0 {
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
        // Whole rows per chunk: each thread copies a band of rows.
        let row_bytes = src_width * std::mem::size_of::<T>();
        let band = self.rect_band(rows, row_bytes);
        crate::par::split_chunks(&self.pool, src, band * src_width, |off, c| {
            for (r, src_row) in c.chunks(src_width).enumerate() {
                let y = buf_y + off / src_width + r;
                copy_row(&buf.inner, y * buf_width + buf_x, src_row);
            }
        });
        let dur = rect_transfer_time(
            &self.device.transfer,
            rows as u64,
            (rows * row_bytes) as u64,
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
        let band = self.rect_band(rows, std::mem::size_of_val(&dst[..src_width]));
        crate::par::split_chunks_mut(&self.pool, dst, band * src_width, |off, c| {
            for (r, dst_row) in c.chunks_mut(src_width).enumerate() {
                let y = buf_y + off / src_width + r;
                buf.inner.copy_out(y * buf_width + buf_x, dst_row);
            }
        });
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

    /// Charges a rectangular transfer of `rows` rows and `bytes` without
    /// moving data; counterpart of [`CommandQueue::charge_bulk`] for the
    /// rect commands (`kind` is the record's, as for `charge_bulk`).
    pub fn charge_rect(&mut self, name: &str, kind: CommandKind, rows: u64, bytes: u64) {
        let dur = rect_transfer_time(&self.device.transfer, rows, bytes);
        self.push(name, kind, dur, None);
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

    /// Opens a scope span (frame / phase): subsequent commands and
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

    /// Clears the clock and records (new measurement run) and drops any
    /// pending bodies. The name interner is kept: subsequent frames reuse
    /// the same `Arc<str>` names.
    pub fn reset(&mut self) {
        self.clock_s = 0.0;
        self.records.clear();
        self.commands_since_finish = 0;
        self.access_log.clear();
        self.drop_pending();
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

    /// Runs the fill kernel over its whole grid.
    fn fill_kernel(q: &mut CommandQueue, buf: &Buffer<f32>) -> Result<KernelTime> {
        let w = buf.write_view();
        q.run(&fill_desc(), fill_decl(buf, 0..16), &[buf], |g| {
            for l in crate::kernel::items(g.group_size) {
                g.begin_item(l);
                let idx = g.global_index(l, 64);
                w.set_raw(idx, w.get_raw(idx) + idx as f32);
            }
        })
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
    /// threads. Returns every row unit's `(group_y, run, visits)` in
    /// completion order, where `visits` lists the unit's `(group_x, local
    /// row)` calls in execution order.
    #[allow(clippy::type_complexity)]
    fn record_rows(
        desc: &KernelDesc,
        threads: usize,
    ) -> Vec<(usize, std::ops::Range<usize>, Vec<(usize, usize)>)> {
        let ctx = ctx().with_dispatch_threads(threads);
        let mut q = ctx.queue();
        let log = Mutex::new(Vec::new());
        let decl = AccessSummary::new(desc, 0..desc.total_groups());
        q.run_rows(desc, decl, &[], |r| {
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
        })
        .unwrap();
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
            for threads in [1, 2] {
                let what = format!("{} threads {threads}", desc.name);
                let units = record_rows(desc, threads);
                // One unit per group row, each spanning the whole row.
                assert_eq!(units.len(), gy, "{what}");
                let mut seen = vec![0u32; gx * gy * desc.group[1]];
                for (group_y, run, visits) in &units {
                    assert_eq!(run, &(0..gx), "{what}");
                    // Local rows outermost, the row's groups inside.
                    let expected: Vec<(usize, usize)> = (0..desc.group[1])
                        .flat_map(|ly| (0..gx).map(move |x| (x, ly)))
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

    /// Work-items per row of the wide test grids: 16 rows of it pass the
    /// grain, so their passes run on the pool.
    const WIDE: usize = (crate::par::PASS_GRAIN_ELEMS / 16 + 1).next_multiple_of(16);

    #[test]
    fn row_dispatch_panic_is_a_typed_error_and_the_queue_recovers() {
        for threads in [1, 2, 3] {
            let ctx = ctx().with_dispatch_threads(threads);
            let mut q = ctx.queue();
            let desc = KernelDesc::new("boom", [WIDE, 64], [16, 16]);
            let decl = AccessSummary::new(&desc, 0..desc.total_groups());
            let err = q
                .run_rows(&desc, decl, &[], |r| {
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
            // The next dispatches on the same queue run and record: a small
            // one inline, and one over the pool that every row unit reaches.
            let buf = ctx.buffer::<f32>("out", 64 * 64);
            fill_kernel(&mut q, &buf).unwrap();
            assert_eq!(q.records().len(), 1);
            assert_eq!(buf.snapshot()[64 * 64 - 1], (64 * 64 - 1) as f32);
            let rows = AtomicU64::new(0);
            let decl = AccessSummary::new(&desc, 0..desc.total_groups());
            q.run_rows(&desc, decl, &[], |_| {
                rows.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(rows.into_inner(), 4, "threads {threads}");
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

    // ---- split copies ---------------------------------------------------

    /// f32 counts just below and just above the copy split.
    const AROUND_SPLIT: [usize; 2] = [
        (SPLIT_COPY_BYTES / 4) as usize - 1,
        (SPLIT_COPY_BYTES / 4) as usize + 17,
    ];

    #[test]
    fn bulk_copies_around_the_split_move_every_element() {
        for n in AROUND_SPLIT {
            let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
            for threads in [1, 2, 3] {
                let ctx = ctx().with_dispatch_threads(threads);
                let mut q = ctx.queue();
                let buf = ctx.buffer::<f32>("b", n);
                q.enqueue_write(&buf, &src).unwrap();
                assert!(buf.snapshot() == src, "write {n} threads {threads}");
                let mut dst = vec![-1.0f32; n];
                q.enqueue_read(&buf, &mut dst).unwrap();
                assert!(dst == src, "read {n} threads {threads}");
                assert_eq!(q.records().len(), 2);
            }
        }
    }

    /// Rows of a 1001-wide rect copy just below and above the split.
    const RECT_W: usize = 1001;
    const RECT_ROWS: [usize; 2] = [
        SPLIT_COPY_BYTES as usize / (4 * RECT_W),
        SPLIT_COPY_BYTES as usize / (4 * RECT_W) + 1,
    ];

    #[test]
    fn rect_copies_around_the_split_keep_the_padding() {
        for rows in RECT_ROWS {
            let pw = RECT_W + 2;
            let src: Vec<f32> = (0..RECT_W * rows).map(|i| 1.0 + i as f32).collect();
            for threads in [1, 2, 3] {
                let ctx = ctx().with_dispatch_threads(threads);
                let mut q = ctx.queue();
                let buf = ctx.buffer::<f32>("padded", pw * (rows + 2));
                q.enqueue_write_rect(&buf, pw, 1, 1, &src, RECT_W, rows)
                    .unwrap();
                let s = buf.snapshot();
                for y in 0..rows + 2 {
                    for x in 0..pw {
                        let want = if (1..=rows).contains(&y) && (1..=RECT_W).contains(&x) {
                            src[(y - 1) * RECT_W + x - 1]
                        } else {
                            0.0
                        };
                        assert!(
                            s[y * pw + x] == want,
                            "({x},{y}) {rows} rows, {threads} threads"
                        );
                    }
                }
                let mut dst = vec![0.0f32; RECT_W * rows];
                q.enqueue_read_rect(&buf, pw, 1, 1, &mut dst, RECT_W, rows)
                    .unwrap();
                assert!(dst == src, "{rows} rows, {threads} threads");
            }
        }
    }

    #[test]
    fn split_writes_mark_every_element_of_a_validated_buffer() {
        let n = AROUND_SPLIT[1];
        let src = vec![1.0f32; n];
        for threads in [2, 3] {
            // A second store to any element — both ends and both sides of
            // every chunk seam — is reported as a race.
            let seams = (1..threads).flat_map(|k| {
                let seam = n.div_ceil(threads).div_ceil(64) * 64 * k;
                [seam - 1, seam]
            });
            for probe in [0, n - 1].into_iter().chain(seams) {
                let ctx = Context::with_validation(DeviceSpec::firepro_w8000())
                    .with_dispatch_threads(threads);
                let mut q = ctx.queue();
                let buf = ctx.buffer::<f32>("b", n);
                buf.begin_write_epoch();
                q.enqueue_write(&buf, &src).unwrap();
                assert_eq!(buf.race(), None);
                q.enqueue_write_rect(&buf, n, probe, 0, &[2.0], 1, 1)
                    .unwrap();
                assert_eq!(buf.race(), Some(probe), "threads {threads}");
            }
        }
    }

    /// Reads every element of `buf` in one dispatch (declared exactly), so
    /// the sanitizer reports each element its init shadow misses.
    fn read_all(q: &mut CommandQueue, buf: &Buffer<f32>) {
        let n = buf.len();
        let desc = KernelDesc::new_1d("read_all", n.div_ceil(256) * 256, 256);
        let mut decl = AccessSummary::new(&desc, 0..desc.total_groups());
        decl.push(AccessWindow::read(buf.info(), 0, n));
        decl.charge_global_n(4, 0, 0, 0, n as u64);
        let v = buf.view();
        q.run(&desc, decl, &[], |g| {
            for l in crate::kernel::items(g.group_size) {
                g.begin_item(l);
                let i = g.global_index(l, 0);
                if i < n {
                    std::hint::black_box(v.get_raw(i));
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn split_copies_leave_the_sanitizer_init_shadow_as_a_plain_copy_does() {
        let rows = RECT_ROWS[1];
        let pw = RECT_W + 2;
        let border = 2 * pw + 2 * rows;
        for threads in [1, 2, 3] {
            let san = || {
                Context::new(DeviceSpec::firepro_w8000())
                    .with_sanitize(crate::sanitize::SanitizeConfig {
                        check_uninit_reads: true,
                        ..Default::default()
                    })
                    .with_dispatch_threads(threads)
            };
            // A split bulk write initialises everything.
            let ctx = san();
            let mut q = ctx.queue();
            let n = AROUND_SPLIT[1];
            let buf = ctx.buffer::<f32>("b", n);
            q.enqueue_write(&buf, &vec![1.0; n]).unwrap();
            read_all(&mut q, &buf);
            assert!(
                ctx.sanitize_report().unwrap().is_clean(),
                "threads {threads}"
            );
            // A split rect write initialises exactly the interior: only
            // the border reads as uninitialised.
            let ctx = san();
            let mut q = ctx.queue();
            let buf = ctx.buffer::<f32>("padded", pw * (rows + 2));
            q.enqueue_write_rect(&buf, pw, 1, 1, &vec![1.0; RECT_W * rows], RECT_W, rows)
                .unwrap();
            read_all(&mut q, &buf);
            let report = ctx.sanitize_report().unwrap();
            let uninit = report
                .violations
                .iter()
                .filter(|v| matches!(v, Violation::UninitRead { .. }))
                .count();
            assert_eq!(
                uninit as u64 + report.dropped,
                border as u64,
                "threads {threads}"
            );
        }
    }

    /// Sorted indices of `buf` that a full read finds uninitialised, on a
    /// sanitized context that keeps every violation.
    fn uninit_indices(ctx: &Context, q: &mut CommandQueue, buf: &Buffer<f32>) -> Vec<usize> {
        read_all(q, buf);
        let report = ctx.sanitize_report().unwrap();
        assert_eq!(report.dropped, 0);
        let mut idx: Vec<usize> = report
            .violations
            .iter()
            .filter_map(|v| match v {
                Violation::UninitRead { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        idx.sort_unstable();
        idx
    }

    #[test]
    fn widening_rect_writes_match_an_f32_rect_write_of_the_widened_matrix() {
        for rows in RECT_ROWS {
            let pw = RECT_W + 2;
            let src: Vec<u8> = (0..RECT_W * rows).map(|i| (i * 7 % 251) as u8).collect();
            let wide: Vec<f32> = src.iter().map(|&v| f32::from(v)).collect();
            for threads in [1, 2, 3] {
                let san = || {
                    Context::new(DeviceSpec::firepro_w8000())
                        .with_sanitize(crate::sanitize::SanitizeConfig {
                            check_uninit_reads: true,
                            max_violations: 1 << 20,
                        })
                        .with_dispatch_threads(threads)
                };
                let run = |from_u8: bool| {
                    let ctx = san();
                    let mut q = ctx.queue();
                    let buf = ctx.buffer::<f32>("padded", pw * (rows + 2));
                    if from_u8 {
                        q.enqueue_write_rect_from(&buf, pw, 1, 1, &src, RECT_W, rows)
                    } else {
                        q.enqueue_write_rect(&buf, pw, 1, 1, &wide, RECT_W, rows)
                    }
                    .unwrap();
                    let r = &q.records()[0];
                    let record = (r.name.clone(), r.kind, r.duration_s.to_bits());
                    let uninit = uninit_indices(&ctx, &mut q, &buf);
                    (buf.snapshot(), record, uninit)
                };
                let (widened, plain) = (run(true), run(false));
                assert!(widened.0 == plain.0, "{rows} rows, {threads} threads");
                assert_eq!(widened.1, plain.1, "{rows} rows, {threads} threads");
                assert_eq!(widened.2.len(), 2 * pw + 2 * rows);
                assert_eq!(widened.2, plain.2, "{rows} rows, {threads} threads");
            }
        }
    }

    #[test]
    fn widening_rect_writes_mark_a_validated_buffer_per_element() {
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000()).with_dispatch_threads(2);
        let mut q = ctx.queue();
        let rows = RECT_ROWS[1];
        let buf = ctx.buffer::<f32>("b", RECT_W * rows);
        buf.begin_write_epoch();
        let src = vec![3u8; RECT_W * rows];
        q.enqueue_write_rect_from(&buf, RECT_W, 0, 0, &src, RECT_W, rows)
            .unwrap();
        assert_eq!(buf.race(), None);
        q.enqueue_write_rect_from(&buf, RECT_W, 5, 1, &[9u8], 1, 1)
            .unwrap();
        assert_eq!(buf.race(), Some(RECT_W + 5));
    }

    // ---- fused passes ---------------------------------------------------

    /// `(kernel, group row, start stamp, end stamp)` of every unit run.
    type StampLog = Arc<Mutex<Vec<(String, usize, u64, u64)>>>;

    /// A row dispatch over `units` group rows whose body stamps each unit
    /// with the global sequence number at its start and end. Its rows are
    /// [`WIDE`], so a pass of it runs on the pool.
    fn stamping(name: &str, units: usize, clock: &Arc<AtomicU64>, log: &StampLog) -> Dispatch {
        let desc = KernelDesc::new(name, [WIDE, 16 * units], [16, 16]);
        let decl = AccessSummary::new(&desc, 0..desc.total_groups());
        let (clock, log, tag) = (Arc::clone(clock), Arc::clone(log), name.to_string());
        Dispatch::rows(desc, decl, move |r| {
            let start = clock.fetch_add(1, Ordering::SeqCst);
            let end = clock.fetch_add(1, Ordering::SeqCst);
            log.lock()
                .unwrap()
                .push((tag.clone(), r.group_y, start, end));
        })
    }

    /// Four units per window (the pass clamps the last one to the grid);
    /// the producer reads nothing another part writes.
    fn flat(w: usize) -> WindowUnits {
        WindowUnits {
            units: 4 * w..4 * w + 4,
            lag: 0,
        }
    }

    /// [`flat`] for the consumer, whose first unit of every window after
    /// the first reads the previous window.
    fn band(w: usize) -> WindowUnits {
        WindowUnits {
            lag: usize::from(w > 0),
            ..flat(w)
        }
    }

    #[test]
    fn fused_pass_runs_every_unit_once_after_its_producers() {
        // 17 windows cut runs of two or three windows, whose held-back
        // units run one boundary per worker after the join.
        for windows in [1usize, 2, 5, 17] {
            let units = (4 * windows).saturating_sub(2).max(3);
            for threads in [1, 2, 3] {
                let what = format!("{windows} windows, {threads} threads");
                let ctx = ctx().with_dispatch_threads(threads);
                let mut q = ctx.queue();
                let clock = Arc::new(AtomicU64::new(0));
                let log = Arc::new(Mutex::new(Vec::new()));
                let producer = q
                    .commit(stamping("produce", units, &clock, &log), &[])
                    .unwrap();
                let consumer = q
                    .commit(stamping("consume", units, &clock, &log), &[])
                    .unwrap();
                // Committed, not run: the records exist, the bodies wait.
                assert_eq!(q.records().len(), 2, "{what}");
                assert!(log.lock().unwrap().is_empty(), "{what}");
                let parts = [
                    Part {
                        kernel: producer,
                        units: &flat,
                    },
                    Part {
                        kernel: consumer,
                        units: &band,
                    },
                ];
                q.execute(windows, &parts).unwrap();
                let log = log.lock().unwrap();
                let stamp = |tag: &str, u: usize| -> (u64, u64) {
                    let hits: Vec<_> = log.iter().filter(|e| e.0 == tag && e.1 == u).collect();
                    assert_eq!(hits.len(), 1, "{what}: {tag} unit {u}");
                    (hits[0].2, hits[0].3)
                };
                assert_eq!(log.len(), 2 * units, "{what}");
                for u in 0..units {
                    let w = u / 4;
                    let (start, _) = stamp("consume", u);
                    // Producers of the unit's own window, and of the
                    // previous one for the lag unit.
                    let first = if u == 4 * w && w > 0 {
                        4 * (w - 1)
                    } else {
                        4 * w
                    };
                    for p in first..(4 * w + 4).min(units) {
                        assert!(
                            stamp("produce", p).1 < start,
                            "{what}: consume {u} before produce {p}"
                        );
                    }
                }
                // Executing the same handles again runs nothing.
                drop(log);
                q.execute(windows, &parts).unwrap();
            }
        }
    }

    #[test]
    fn fused_pass_panic_names_the_kernel_and_drops_pending_bodies() {
        for threads in [1, 2, 3] {
            let ctx = ctx().with_dispatch_threads(threads);
            let mut q = ctx.queue();
            let clock = Arc::new(AtomicU64::new(0));
            let log = Arc::new(Mutex::new(Vec::new()));
            let ok = q.commit(stamping("ok", 18, &clock, &log), &[]).unwrap();
            let desc = KernelDesc::new("boom", [WIDE, 16 * 18], [16, 16]);
            let decl = AccessSummary::new(&desc, 0..desc.total_groups());
            let boom = Dispatch::rows(desc, decl, |r| {
                if r.group_y == 9 {
                    panic!("row unit {} failed", r.group_y);
                }
            });
            let boom = q.commit(boom, &[]).unwrap();
            let later = q.commit(stamping("later", 18, &clock, &log), &[]).unwrap();
            let parts = [
                Part {
                    kernel: ok,
                    units: &flat,
                },
                Part {
                    kernel: boom,
                    units: &band,
                },
            ];
            match q.execute(5, &parts).unwrap_err() {
                Error::KernelPanic { kernel, message } => {
                    assert_eq!(kernel, "boom");
                    assert!(message.contains("row unit 9 failed"), "{message}");
                }
                other => panic!("expected KernelPanic, got {other:?}"),
            }
            // The body still pending when the pass failed was dropped.
            q.execute(1, &[Part::whole(later)]).unwrap();
            assert!(log.lock().unwrap().iter().all(|e| e.0 != "later"));
            // The next frame on the same queue runs and records as usual.
            q.reset();
            log.lock().unwrap().clear();
            let again = q.commit(stamping("ok", 18, &clock, &log), &[]).unwrap();
            q.execute(
                5,
                &[Part {
                    kernel: again,
                    units: &flat,
                }],
            )
            .unwrap();
            assert_eq!(q.records().len(), 1);
            assert_eq!(log.lock().unwrap().len(), 18);
            // A full pass on a new queue of the same context runs on the
            // pool that served the failed one.
            let mut fresh = ctx.queue();
            log.lock().unwrap().clear();
            let whole = fresh
                .commit(stamping("whole", 18, &clock, &log), &[])
                .unwrap();
            fresh.execute(1, &[Part::whole(whole)]).unwrap();
            assert_eq!(log.lock().unwrap().len(), 18, "threads {threads}");
        }
    }

    #[test]
    fn recorded_commits_record_like_run_now_dispatches_and_keep_no_body() {
        let ctx = ctx();
        let buf = ctx.buffer::<f32>("b", 64 * 64);
        let mut ran = ctx.queue();
        fill_kernel(&mut ran, &buf).unwrap();
        let mut recorded = ctx.queue();
        recorded
            .commit_recorded(&fill_desc(), fill_decl(&buf, 0..16))
            .unwrap();
        let record = |q: &CommandQueue| {
            let r = &q.records()[0];
            (r.name.clone(), r.kind, r.duration_s.to_bits(), r.counters)
        };
        assert_eq!(record(&recorded), record(&ran));
        assert_eq!(recorded.pending_bodies(), 0);
        // Observing contexts run every body, so they refuse.
        let vctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let vbuf = vctx.buffer::<f32>("b", 64 * 64);
        let mut q = vctx.queue();
        assert!(q
            .commit_recorded(&fill_desc(), fill_decl(&vbuf, 0..16))
            .is_err());
        assert!(q.records().is_empty());
    }

    #[test]
    fn validated_and_sanitized_commits_run_at_once() {
        for ctx in [
            Context::with_validation(DeviceSpec::firepro_w8000()),
            Context::sanitized(DeviceSpec::firepro_w8000()),
        ] {
            let mut q = ctx.queue();
            let clock = Arc::new(AtomicU64::new(0));
            let log = Arc::new(Mutex::new(Vec::new()));
            let p = q.commit(stamping("now", 3, &clock, &log), &[]).unwrap();
            assert_eq!(log.lock().unwrap().len(), 3);
            q.execute(1, &[Part::whole(p)]).unwrap();
            assert_eq!(log.lock().unwrap().len(), 3);
        }
    }
}
