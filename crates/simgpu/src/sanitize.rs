//! Shadow-execution sanitizer: race, bounds, barrier, and accounting checks.
//!
//! When a [`Context`](crate::context::Context) is created with
//! [`Context::sanitized`](crate::context::Context::sanitized) (or
//! [`with_sanitize`](crate::context::Context::with_sanitize)), every buffer
//! carries a *shadow* — per-element last-writer / last-reader words — and
//! every kernel dispatch runs an analysis pass alongside its functional
//! execution. The pass observes each global access (through the buffer
//! view accessors kernels read and write with), each local (LDS)
//! access, and each `barrier()`, attributing them to work-items via the
//! [`GroupCtx::begin_item`](crate::kernel::GroupCtx::begin_item) cursor,
//! and reports:
//!
//! * **data races** — write/write and read/write conflicts on the same
//!   global element by different work-items (global memory has no
//!   inter-work-item ordering in OpenCL, so any same-dispatch conflict is a
//!   hazard), and on the same local element by different work-items of a
//!   group not separated by a `barrier()` — with a *wavefront exemption*:
//!   lanes of one wavefront execute in lockstep, which is exactly what the
//!   paper's unrolled last-wavefront reduction relies on;
//! * **out-of-bounds accesses** — global (per buffer) and local (past the
//!   `alloc_local` size). Under the sanitizer these are recorded and
//!   *recovered* (reads return zero, writes are dropped) so one bad access
//!   does not abort the whole analysis run;
//! * **barrier divergence** — a `barrier()` reached under item-dependent
//!   control flow, detected when the item sweep resumes *past* the lane
//!   that hit the barrier (some lanes skipped it);
//! * **accounting drift** — the bytes a dispatch actually touched versus
//!   what its [`AccessSummary`](crate::access::AccessSummary) declared and
//!   the queue charged. Writes must match exactly; reads must match exactly
//!   unless the declaration carries a deliberate overcharge ratio
//!   (`read_ratio`), modelling kernels that charge redundant window loads;
//! * **uninitialised reads** (opt-in via
//!   [`SanitizeConfig::check_uninit_reads`]) — an element read before any
//!   host transfer or kernel store wrote it; this is the pool-recycling
//!   stale-data detector.
//!
//! The sanitizer is *observation only*: it charges nothing to the cost
//! model and never alters what a correct kernel computes, so sanitized runs
//! produce byte-identical pixels and identical simulated seconds. Its cost
//! is wall-clock only.
//!
//! **Concurrency contract:** one sanitized dispatch at a time per context.
//! Dispatches from clones of one sanitized context must not overlap in
//! wall-clock time (the per-dispatch epoch and byte accumulators are
//! shared).

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::cost::CostCounters;

// ---- violation records ----------------------------------------------------

/// Whether a detected race involved two writes or a read and a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// Two different work-items wrote the same element.
    WriteWrite,
    /// One work-item read an element another wrote.
    ReadWrite,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceKind::WriteWrite => write!(f, "write/write"),
            RaceKind::ReadWrite => write!(f, "read/write"),
        }
    }
}

/// Which side of the cost accounting drifted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftClass {
    /// Global read bytes: observed vs charged.
    Read,
    /// Global write bytes: observed vs charged.
    Write,
}

impl fmt::Display for DriftClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriftClass::Read => write!(f, "read"),
            DriftClass::Write => write!(f, "write"),
        }
    }
}

/// One defect found by the sanitizer.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Conflicting accesses to one global element by different work-items
    /// of the same dispatch. On real hardware the result is undefined:
    /// OpenCL provides no ordering between work-items of different groups,
    /// and none within a group without an atomics/barrier protocol.
    GlobalRace {
        /// Kernel in which the conflict occurred.
        kernel: String,
        /// Label of the buffer involved.
        buffer: String,
        /// Element index both work-items touched.
        index: usize,
        /// Write/write or read/write.
        kind: RaceKind,
    },
    /// Conflicting same-phase accesses to one local (LDS) element by lanes
    /// of *different wavefronts* of a group, not separated by a barrier.
    LocalRace {
        /// Kernel in which the conflict occurred.
        kernel: String,
        /// LDS element index.
        index: usize,
        /// Write/write or read/write.
        kind: RaceKind,
    },
    /// A global access outside the buffer. Recovered under the sanitizer
    /// (reads return zero, writes are dropped).
    OobGlobal {
        /// Kernel performing the access.
        kernel: String,
        /// Label of the buffer involved.
        buffer: String,
        /// First out-of-bounds element index.
        index: usize,
        /// Buffer length in elements.
        len: usize,
        /// True for a store, false for a load.
        write: bool,
    },
    /// A local (LDS) access past the `alloc_local` size.
    OobLocal {
        /// Kernel performing the access.
        kernel: String,
        /// LDS element index accessed.
        index: usize,
        /// Allocated LDS length in elements.
        len: usize,
        /// True for a store, false for a load.
        write: bool,
    },
    /// A `barrier()` was not reached by every work-item of a group: after
    /// the barrier, the item sweep resumed past the lane that issued it.
    /// On real hardware this deadlocks or is undefined behaviour.
    BarrierDivergence {
        /// Kernel in which the divergence occurred.
        kernel: String,
        /// Flat index of the group that diverged.
        group: usize,
    },
    /// Observed global traffic differs from what the kernel charged the
    /// cost model. Every simulated-seconds figure derives from those
    /// charges, so drift silently corrupts the paper reproduction.
    AccountingDrift {
        /// Kernel whose charges drifted.
        kernel: String,
        /// Read-side or write-side drift.
        class: DriftClass,
        /// Bytes the dispatch actually touched.
        observed: u64,
        /// Bytes the kernel charged.
        charged: u64,
    },
    /// The dynamic access set observed by the shadow differs from what the
    /// dispatch's declared [`crate::access::AccessSummary`] promised. The
    /// declarations are cross-validated against the shadow on every
    /// sanitized run precisely so they cannot rot.
    SummaryDrift {
        /// Kernel whose declaration drifted.
        kernel: String,
        /// Read-side or write-side drift.
        class: DriftClass,
        /// Bytes the dispatch actually touched.
        observed: u64,
        /// Bytes the access summary declared.
        declared: u64,
    },
    /// An element was read before any host transfer or kernel store
    /// initialised it (only with [`SanitizeConfig::check_uninit_reads`]).
    UninitRead {
        /// Kernel performing the read.
        kernel: String,
        /// Label of the buffer involved.
        buffer: String,
        /// Element index read.
        index: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::GlobalRace {
                kernel,
                buffer,
                index,
                kind,
            } => write!(
                f,
                "global {kind} race on `{buffer}`[{index}] in kernel `{kernel}`"
            ),
            Violation::LocalRace {
                kernel,
                index,
                kind,
            } => write!(
                f,
                "local {kind} race on lds[{index}] in kernel `{kernel}` (lanes of different wavefronts, no barrier between)"
            ),
            Violation::OobGlobal {
                kernel,
                buffer,
                index,
                len,
                write,
            } => write!(
                f,
                "out-of-bounds {} on `{buffer}`[{index}] (len {len}) in kernel `{kernel}`",
                if *write { "store" } else { "load" }
            ),
            Violation::OobLocal {
                kernel,
                index,
                len,
                write,
            } => write!(
                f,
                "out-of-bounds local {} at lds[{index}] (alloc {len}) in kernel `{kernel}`",
                if *write { "store" } else { "load" }
            ),
            Violation::BarrierDivergence { kernel, group } => write!(
                f,
                "barrier divergence in kernel `{kernel}` (group {group}): barrier not reached by all work-items"
            ),
            Violation::AccountingDrift {
                kernel,
                class,
                observed,
                charged,
            } => write!(
                f,
                "accounting drift in kernel `{kernel}`: observed {observed} global {class} bytes, charged {charged}"
            ),
            Violation::SummaryDrift {
                kernel,
                class,
                observed,
                declared,
            } => write!(
                f,
                "access-summary drift in kernel `{kernel}`: observed {observed} global {class} bytes, summary declares {declared}"
            ),
            Violation::UninitRead {
                kernel,
                buffer,
                index,
            } => write!(
                f,
                "read of uninitialised `{buffer}`[{index}] in kernel `{kernel}`"
            ),
        }
    }
}

// ---- configuration & report -----------------------------------------------

/// Tuning knobs for the sanitizer.
#[derive(Debug, Clone)]
pub struct SanitizeConfig {
    /// Also flag reads of elements no host transfer or kernel store has
    /// written. Off by default: the pipeline deliberately reads the
    /// alloc-zeroed border of the padded buffer, which is correct but would
    /// trip a strict read-before-write detector.
    pub check_uninit_reads: bool,
    /// Keep at most this many violation records; the rest are counted in
    /// [`SanitizeReport::dropped`]. A race on a whole row would otherwise
    /// produce thousands of identical records.
    pub max_violations: usize,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig {
            check_uninit_reads: false,
            max_violations: 64,
        }
    }
}

/// Everything the sanitizer found, queryable from
/// [`Context::sanitize_report`](crate::context::Context::sanitize_report).
#[derive(Debug, Clone)]
pub struct SanitizeReport {
    /// Kernel dispatches analysed.
    pub dispatches: u64,
    /// Violations recorded (capped at `SanitizeConfig::max_violations`).
    pub violations: Vec<Violation>,
    /// Violations beyond the cap, counted but not stored.
    pub dropped: u64,
}

impl SanitizeReport {
    /// True when no violation of any class was observed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if self.is_clean() {
            let _ = write!(
                s,
                "sanitize: clean — {} dispatches, no races, out-of-bounds accesses, barrier divergence, or accounting drift",
                self.dispatches
            );
            return s;
        }
        let _ = writeln!(
            s,
            "sanitize: {} violation(s) across {} dispatches{}:",
            self.violations.len() as u64 + self.dropped,
            self.dispatches,
            if self.dropped > 0 {
                format!(" ({} not shown)", self.dropped)
            } else {
                String::new()
            }
        );
        for v in &self.violations {
            let _ = writeln!(s, "  - {v}");
        }
        s.pop();
        s
    }
}

impl fmt::Display for SanitizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

// ---- shared per-context state ---------------------------------------------

// Shadow words pack (epoch, tag) so a new dispatch implicitly invalidates
// every stale word without an O(len) clear. The epoch keeps the low 24 bits
// of the dispatch counter (collisions need an exact 16M-dispatch wrap onto
// the same element — ignorable); the tag is the 1-based flat work-item
// serial, with bit 39 marking "multiple readers".
const TAG_BITS: u32 = 40;
const MULTI: u64 = 1 << 39;
const TAG_MASK: u64 = MULTI - 1;
const EPOCH_MASK: u64 = (1 << 24) - 1;

#[inline]
fn pack(epoch: u64, tagfield: u64) -> u64 {
    ((epoch & EPOCH_MASK) << TAG_BITS) | tagfield
}

#[inline]
fn word_epoch(w: u64) -> u64 {
    w >> TAG_BITS
}

#[inline]
fn word_tag(w: u64) -> u64 {
    w & TAG_MASK
}

#[inline]
fn word_multi(w: u64) -> bool {
    w & MULTI != 0
}

thread_local! {
    /// (epoch, tag) of the work-item this thread is currently executing.
    /// Tag 0 = no item. Kernel worker threads set it via `begin_item`; the
    /// epoch check plus the dispatch `active` flag make stale values inert.
    static CURSOR: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Per-context sanitizer state, shared by the context, its queues, and
/// every buffer shadow. `pub(crate)`: reached only through `Context`.
pub(crate) struct SanitizeShared {
    /// Dispatch counter; doubles as the shadow-word epoch.
    epoch: AtomicU64,
    /// True only while a dispatch is running — host-side accesses between
    /// dispatches must not be attributed to the last kernel's work-items.
    active: AtomicBool,
    /// Name of the kernel currently (or last) dispatched.
    kernel: Mutex<String>,
    /// Global bytes observed this dispatch.
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    violations: Mutex<Vec<Violation>>,
    dropped: AtomicU64,
    dispatches: AtomicU64,
    pub(crate) config: SanitizeConfig,
    /// Wavefront width of the device (lanes executing in lockstep).
    pub(crate) wavefront: u64,
}

impl SanitizeShared {
    pub(crate) fn new(config: SanitizeConfig, wavefront: u64) -> Self {
        SanitizeShared {
            epoch: AtomicU64::new(0),
            active: AtomicBool::new(false),
            kernel: Mutex::new(String::new()),
            read_bytes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            violations: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            dispatches: AtomicU64::new(0),
            config,
            wavefront: wavefront.max(1),
        }
    }

    /// Starts a dispatch: bumps the epoch (invalidating all shadow words),
    /// resets the per-dispatch accumulators, and returns the new epoch.
    pub(crate) fn begin_dispatch(&self, kernel: &str) -> u64 {
        let was_active = self.active.swap(true, Ordering::SeqCst);
        debug_assert!(
            !was_active,
            "simgpu sanitize: overlapping dispatches on one sanitized context \
             are unsupported"
        );
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        kernel.clone_into(&mut self.kernel.lock().unwrap());
        self.read_bytes.store(0, Ordering::Relaxed);
        self.write_bytes.store(0, Ordering::Relaxed);
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        epoch
    }

    /// Ends the dispatch: host-side accesses stop being attributed.
    pub(crate) fn end_dispatch(&self) {
        self.active.store(false, Ordering::SeqCst);
    }

    /// Audits observed vs charged global traffic for the finished dispatch,
    /// allowing reads up to `ratio`× the observed bytes.
    #[cfg(test)]
    pub(crate) fn audit(&self, kernel: &str, counters: &CostCounters, ratio: f64) {
        let (observed_reads, observed_writes) = self.dispatch_traffic();
        self.audit_totals(kernel, counters, observed_reads, observed_writes, ratio);
    }

    /// The traffic observed since `begin_dispatch`: `(read_bytes,
    /// write_bytes)`.
    pub(crate) fn dispatch_traffic(&self) -> (u64, u64) {
        (
            self.read_bytes.load(Ordering::Relaxed),
            self.write_bytes.load(Ordering::Relaxed),
        )
    }

    /// Audits observed totals against the charged (declared) counters,
    /// allowing reads up to the declaration's `ratio`× the observed bytes.
    pub(crate) fn audit_totals(
        &self,
        kernel: &str,
        counters: &CostCounters,
        observed_reads: u64,
        observed_writes: u64,
        ratio: f64,
    ) {
        let charged_reads = counters.global_read_bytes();
        let charged_writes = counters.global_write_bytes();
        if observed_writes != charged_writes {
            self.record(Violation::AccountingDrift {
                kernel: kernel.to_string(),
                class: DriftClass::Write,
                observed: observed_writes,
                charged: charged_writes,
            });
        }
        // Reads may be deliberately overcharged up to the declared ratio
        // (modelling redundant window loads), never undercharged.
        let overcharged =
            charged_reads != observed_reads && charged_reads as f64 > observed_reads as f64 * ratio;
        if observed_reads > charged_reads || overcharged {
            self.record(Violation::AccountingDrift {
                kernel: kernel.to_string(),
                class: DriftClass::Read,
                observed: observed_reads,
                charged: charged_reads,
            });
        }
    }

    pub(crate) fn record(&self, v: Violation) {
        let mut g = self.violations.lock().unwrap();
        if g.len() < self.config.max_violations {
            g.push(v);
        } else {
            drop(g);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn kernel_name(&self) -> String {
        self.kernel.lock().unwrap().clone()
    }

    /// Sets this thread's work-item cursor.
    pub(crate) fn set_cursor(&self, epoch: u64, tag: u64) {
        CURSOR.with(|c| c.set((epoch, tag)));
    }

    /// The (epoch, tag) of the work-item executing on this thread, if a
    /// dispatch is active and the cursor belongs to it. `None` for
    /// host-side accesses.
    pub(crate) fn cursor(&self) -> Option<(u64, u64)> {
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        let (e, t) = CURSOR.with(|c| c.get());
        if t != 0 && e == self.epoch.load(Ordering::Relaxed) {
            Some((e, t))
        } else {
            None
        }
    }

    /// Snapshot of everything recorded so far.
    pub(crate) fn report(&self) -> SanitizeReport {
        SanitizeReport {
            dispatches: self.dispatches.load(Ordering::Relaxed),
            violations: self.violations.lock().unwrap().clone(),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

// ---- per-buffer shadow ----------------------------------------------------

/// Shadow state for one buffer: last-writer and last-reader words per
/// element, plus an initialised flag for the stale-read detector.
pub(crate) struct BufferShadow {
    pub(crate) shared: Arc<SanitizeShared>,
    label: String,
    elem_size: u64,
    len: usize,
    writer: Box<[AtomicU64]>,
    reader: Box<[AtomicU64]>,
    init: Box<[AtomicU8]>,
}

fn atomic_words(len: usize) -> Box<[AtomicU64]> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

impl BufferShadow {
    pub(crate) fn new(
        shared: Arc<SanitizeShared>,
        label: &str,
        len: usize,
        elem_size: usize,
    ) -> Self {
        BufferShadow {
            shared,
            label: label.to_string(),
            elem_size: elem_size as u64,
            len,
            writer: atomic_words(len),
            reader: atomic_words(len),
            init: (0..len).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Marks elements initialised by a host-side write (transfer, map,
    /// `fill_from`, or a raw store outside any dispatch).
    pub(crate) fn mark_init_range(&self, offset: usize, len: usize) {
        let end = (offset + len).min(self.len);
        for i in offset.min(self.len)..end {
            self.init[i].store(1, Ordering::Relaxed);
        }
    }

    /// Records an in-bounds element read by work-item `tag`.
    pub(crate) fn on_read(&self, epoch: u64, tag: u64, idx: usize) {
        self.shared
            .read_bytes
            .fetch_add(self.elem_size, Ordering::Relaxed);
        if self.shared.config.check_uninit_reads && self.init[idx].swap(1, Ordering::Relaxed) == 0 {
            self.shared.record(Violation::UninitRead {
                kernel: self.shared.kernel_name(),
                buffer: self.label.clone(),
                index: idx,
            });
        }
        let w = self.writer[idx].load(Ordering::Relaxed);
        if word_epoch(w) == (epoch & EPOCH_MASK) && word_tag(w) != tag {
            self.shared.record(Violation::GlobalRace {
                kernel: self.shared.kernel_name(),
                buffer: self.label.clone(),
                index: idx,
                kind: RaceKind::ReadWrite,
            });
        }
        let r = self.reader[idx].load(Ordering::Relaxed);
        let new = if word_epoch(r) == (epoch & EPOCH_MASK) {
            if word_tag(r) == tag {
                r
            } else {
                // Second distinct reader: keep the last one, flag "multi".
                pack(epoch, MULTI | tag)
            }
        } else {
            pack(epoch, tag)
        };
        if new != r {
            self.reader[idx].store(new, Ordering::Relaxed);
        }
    }

    /// Records an in-bounds element write by work-item `tag`.
    pub(crate) fn on_write(&self, epoch: u64, tag: u64, idx: usize) {
        self.shared
            .write_bytes
            .fetch_add(self.elem_size, Ordering::Relaxed);
        self.init[idx].store(1, Ordering::Relaxed);
        let prev = self.writer[idx].swap(pack(epoch, tag), Ordering::Relaxed);
        if word_epoch(prev) == (epoch & EPOCH_MASK) && word_tag(prev) != tag {
            self.shared.record(Violation::GlobalRace {
                kernel: self.shared.kernel_name(),
                buffer: self.label.clone(),
                index: idx,
                kind: RaceKind::WriteWrite,
            });
        }
        let r = self.reader[idx].load(Ordering::Relaxed);
        if word_epoch(r) == (epoch & EPOCH_MASK) && (word_multi(r) || word_tag(r) != tag) {
            self.shared.record(Violation::GlobalRace {
                kernel: self.shared.kernel_name(),
                buffer: self.label.clone(),
                index: idx,
                kind: RaceKind::ReadWrite,
            });
        }
    }

    /// Records an out-of-bounds access (the accessor recovers afterwards).
    pub(crate) fn on_oob(&self, idx: usize, write: bool) {
        self.shared.record(Violation::OobGlobal {
            kernel: self.shared.kernel_name(),
            buffer: self.label.clone(),
            index: idx,
            len: self.len,
            write,
        });
    }

    /// Span read starting at `idx` of `n` elements: records the in-bounds
    /// prefix and an OOB violation for any overflow. Returns the number of
    /// in-bounds elements.
    pub(crate) fn span_read(&self, epoch: u64, tag: u64, idx: usize, n: usize) -> usize {
        let valid = if idx >= self.len {
            0
        } else {
            n.min(self.len - idx)
        };
        for k in 0..valid {
            self.on_read(epoch, tag, idx + k);
        }
        if valid < n {
            self.on_oob(idx + valid, false);
        }
        valid
    }

    /// Span write counterpart of [`BufferShadow::span_read`].
    pub(crate) fn span_write(&self, epoch: u64, tag: u64, idx: usize, n: usize) -> usize {
        let valid = if idx >= self.len {
            0
        } else {
            n.min(self.len - idx)
        };
        for k in 0..valid {
            self.on_write(epoch, tag, idx + k);
        }
        if valid < n {
            self.on_oob(idx + valid, true);
        }
        valid
    }
}

// ---- per-group shadow (local memory, barriers, item cursor) ---------------

// Local shadow words pack ((phase + 1) << 32) | field, where field is the
// 1-based lane with bit 31 flagging "readers from multiple wavefronts".
// Phase = number of barriers issued so far; accesses in different phases
// are ordered by the barrier between them, so only same-phase conflicts
// count.
const LMULTI: u64 = 1 << 31;
const LLANE_MASK: u64 = LMULTI - 1;

/// The shadow tag of `lane` in flat work-group `group` of a dispatch with
/// `lanes` items per group: the 1-based flat work-item serial. Per-group
/// and per-row execution derive it alike, so both attribute an access to
/// the same item.
#[inline]
pub(crate) fn item_tag(group: usize, lanes: usize, lane: u64) -> u64 {
    (group * lanes) as u64 + lane + 1
}

/// Per-work-group sanitizer state, owned by the dispatching `GroupCtx`.
pub(crate) struct GroupSan {
    shared: Arc<SanitizeShared>,
    epoch: u64,
    group_serial: usize,
    lanes: usize,
    cur_lane: u64,
    have_item: bool,
    /// Lane that issued the last `barrier()`, pending the divergence check
    /// at the next `begin_item`.
    pending_barrier: Option<u64>,
    phase: u64,
    lwriter: Vec<u64>,
    lreader: Vec<u64>,
}

impl GroupSan {
    pub(crate) fn new(
        shared: Arc<SanitizeShared>,
        epoch: u64,
        group_serial: usize,
        lanes: usize,
    ) -> Self {
        GroupSan {
            shared,
            epoch,
            group_serial,
            lanes,
            cur_lane: 0,
            have_item: false,
            pending_barrier: None,
            phase: 0,
            lwriter: Vec::new(),
            lreader: Vec::new(),
        }
    }

    pub(crate) fn begin_item(&mut self, lane: u64) {
        if let Some(prev) = self.pending_barrier.take() {
            if lane > prev {
                // The sweep resumed *past* the lane that hit the barrier:
                // lanes in between never reached it.
                self.shared.record(Violation::BarrierDivergence {
                    kernel: self.shared.kernel_name(),
                    group: self.group_serial,
                });
            }
        }
        self.cur_lane = lane;
        self.have_item = true;
        self.shared
            .set_cursor(self.epoch, item_tag(self.group_serial, self.lanes, lane));
    }

    pub(crate) fn on_barrier(&mut self) {
        self.phase += 1;
        // Only arm the divergence check once an item sweep has started; a
        // barrier before any item is trivially uniform.
        if self.have_item {
            self.pending_barrier = Some(self.cur_lane);
        }
    }

    pub(crate) fn on_alloc_local(&mut self, n: usize) {
        self.lwriter.clear();
        self.lwriter.resize(n, 0);
        self.lreader.clear();
        self.lreader.resize(n, 0);
    }

    #[inline]
    fn same_wavefront(&self, a: u64, b: u64) -> bool {
        a / self.shared.wavefront == b / self.shared.wavefront
    }

    /// Records a local read. Returns false when `idx` is out of bounds
    /// (the caller recovers by returning zero).
    pub(crate) fn local_read(&mut self, idx: usize, len: usize) -> bool {
        if idx >= len {
            self.shared.record(Violation::OobLocal {
                kernel: self.shared.kernel_name(),
                index: idx,
                len,
                write: false,
            });
            return false;
        }
        self.sync_local_len(len);
        let cur_phase = self.phase + 1;
        let w = self.lwriter[idx];
        if w >> 32 == cur_phase {
            let wlane = (w & LLANE_MASK) - 1;
            if wlane != self.cur_lane && !self.same_wavefront(wlane, self.cur_lane) {
                self.shared.record(Violation::LocalRace {
                    kernel: self.shared.kernel_name(),
                    index: idx,
                    kind: RaceKind::ReadWrite,
                });
            }
        }
        let r = self.lreader[idx];
        if r >> 32 == cur_phase {
            let multi = r & LMULTI != 0;
            let rlane = (r & LLANE_MASK) - 1;
            if !multi && !self.same_wavefront(rlane, self.cur_lane) {
                self.lreader[idx] = (cur_phase << 32) | LMULTI | (self.cur_lane + 1);
            }
        } else {
            self.lreader[idx] = (cur_phase << 32) | (self.cur_lane + 1);
        }
        true
    }

    /// Records a local write. Returns false when `idx` is out of bounds
    /// (the caller recovers by dropping the store).
    pub(crate) fn local_write(&mut self, idx: usize, len: usize) -> bool {
        if idx >= len {
            self.shared.record(Violation::OobLocal {
                kernel: self.shared.kernel_name(),
                index: idx,
                len,
                write: true,
            });
            return false;
        }
        self.sync_local_len(len);
        let cur_phase = self.phase + 1;
        let w = self.lwriter[idx];
        if w >> 32 == cur_phase {
            let wlane = (w & LLANE_MASK) - 1;
            if wlane != self.cur_lane && !self.same_wavefront(wlane, self.cur_lane) {
                self.shared.record(Violation::LocalRace {
                    kernel: self.shared.kernel_name(),
                    index: idx,
                    kind: RaceKind::WriteWrite,
                });
            }
        }
        self.lwriter[idx] = (cur_phase << 32) | (self.cur_lane + 1);
        let r = self.lreader[idx];
        if r >> 32 == cur_phase {
            let multi = r & LMULTI != 0;
            let rlane = (r & LLANE_MASK) - 1;
            if multi || (rlane != self.cur_lane && !self.same_wavefront(rlane, self.cur_lane)) {
                self.shared.record(Violation::LocalRace {
                    kernel: self.shared.kernel_name(),
                    index: idx,
                    kind: RaceKind::ReadWrite,
                });
            }
        }
        true
    }

    /// Keeps the shadow sized to the live allocation even if the kernel
    /// grew LDS without `alloc_local` being observed (defensive).
    #[inline]
    fn sync_local_len(&mut self, len: usize) {
        if self.lwriter.len() < len {
            self.lwriter.resize(len, 0);
            self.lreader.resize(len, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Arc<SanitizeShared> {
        Arc::new(SanitizeShared::new(SanitizeConfig::default(), 64))
    }

    #[test]
    fn word_packing_roundtrips() {
        let w = pack(7, 123);
        assert_eq!(word_epoch(w), 7);
        assert_eq!(word_tag(w), 123);
        assert!(!word_multi(w));
        assert!(word_multi(pack(1, MULTI | 5)));
        assert_eq!(word_tag(pack(1, MULTI | 5)), 5);
    }

    #[test]
    fn cursor_requires_active_epoch() {
        let s = shared();
        assert!(s.cursor().is_none());
        let e = s.begin_dispatch("k");
        s.set_cursor(e, 3);
        assert_eq!(s.cursor(), Some((e, 3)));
        s.end_dispatch();
        assert!(s.cursor().is_none(), "inactive dispatch hides the cursor");
        let e2 = s.begin_dispatch("k2");
        assert!(s.cursor().is_none(), "stale epoch hides the cursor");
        s.set_cursor(e2, 1);
        assert_eq!(s.cursor(), Some((e2, 1)));
        s.end_dispatch();
    }

    #[test]
    fn shadow_detects_write_write_and_read_write() {
        let s = shared();
        let sh = BufferShadow::new(Arc::clone(&s), "b", 8, 4);
        let e = s.begin_dispatch("k");
        sh.on_write(e, 1, 3);
        sh.on_write(e, 2, 3); // different item, same element
        sh.on_read(e, 3, 5);
        sh.on_write(e, 4, 5); // write under another item's read
        sh.on_write(e, 4, 6);
        sh.on_read(e, 4, 6); // same item: no race
        s.end_dispatch();
        let r = s.report();
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
        assert!(matches!(
            r.violations[0],
            Violation::GlobalRace {
                kind: RaceKind::WriteWrite,
                index: 3,
                ..
            }
        ));
        assert!(matches!(
            r.violations[1],
            Violation::GlobalRace {
                kind: RaceKind::ReadWrite,
                index: 5,
                ..
            }
        ));
    }

    #[test]
    fn new_epoch_clears_conflicts_implicitly() {
        let s = shared();
        let sh = BufferShadow::new(Arc::clone(&s), "b", 4, 4);
        let e1 = s.begin_dispatch("k1");
        sh.on_write(e1, 1, 0);
        s.end_dispatch();
        let e2 = s.begin_dispatch("k2");
        sh.on_write(e2, 2, 0); // same element, different dispatch: ordered
        s.end_dispatch();
        assert!(s.report().is_clean());
    }

    #[test]
    fn multi_reader_then_write_races() {
        let s = shared();
        let sh = BufferShadow::new(Arc::clone(&s), "b", 4, 4);
        let e = s.begin_dispatch("k");
        sh.on_read(e, 1, 2);
        sh.on_read(e, 2, 2);
        sh.on_write(e, 2, 2); // item 2 writes, but item 1 also read
        s.end_dispatch();
        let r = s.report();
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(
            r.violations[0],
            Violation::GlobalRace {
                kind: RaceKind::ReadWrite,
                ..
            }
        ));
    }

    #[test]
    fn uninit_read_detector_is_opt_in() {
        let relaxed = shared();
        let sh = BufferShadow::new(Arc::clone(&relaxed), "b", 4, 4);
        let e = relaxed.begin_dispatch("k");
        sh.on_read(e, 1, 0);
        relaxed.end_dispatch();
        assert!(relaxed.report().is_clean());

        let strict = Arc::new(SanitizeShared::new(
            SanitizeConfig {
                check_uninit_reads: true,
                ..SanitizeConfig::default()
            },
            64,
        ));
        let sh = BufferShadow::new(Arc::clone(&strict), "b", 4, 4);
        sh.mark_init_range(0, 1);
        let e = strict.begin_dispatch("k");
        sh.on_read(e, 1, 0); // initialised by the host: fine
        sh.on_read(e, 1, 2); // never written: flagged (once)
        sh.on_read(e, 1, 2);
        strict.end_dispatch();
        let r = strict.report();
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(
            r.violations[0],
            Violation::UninitRead { index: 2, .. }
        ));
    }

    #[test]
    fn local_race_rules_respect_wavefront_lockstep() {
        let s = shared(); // wavefront 64
        let mut g = GroupSan::new(Arc::clone(&s), s.begin_dispatch("k"), 0, 128);
        g.on_alloc_local(128);
        // Lanes 0 and 32 share a wavefront: same-phase conflict is exempt.
        g.begin_item(0);
        assert!(g.local_write(5, 128));
        g.begin_item(32);
        assert!(g.local_write(5, 128));
        assert!(s.report().is_clean());
        // Lane 64 is another wavefront: write/write race.
        g.begin_item(64);
        assert!(g.local_write(5, 128));
        let r = s.report();
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(
            r.violations[0],
            Violation::LocalRace {
                kind: RaceKind::WriteWrite,
                index: 5,
                ..
            }
        ));
        s.end_dispatch();
    }

    #[test]
    fn barrier_orders_local_phases() {
        let s = shared();
        let mut g = GroupSan::new(Arc::clone(&s), s.begin_dispatch("k"), 0, 128);
        g.on_alloc_local(16);
        g.begin_item(127);
        assert!(g.local_write(3, 16));
        g.on_barrier();
        g.begin_item(0); // sweep restarts: no divergence
        assert!(g.local_read(3, 16)); // cross-phase: ordered by the barrier
        s.end_dispatch();
        assert!(s.report().is_clean(), "{}", s.report().summary());
    }

    #[test]
    fn divergent_barrier_is_flagged() {
        let s = shared();
        let mut g = GroupSan::new(Arc::clone(&s), s.begin_dispatch("k"), 2, 128);
        g.begin_item(0);
        g.on_barrier(); // only lane 0 hit the barrier...
        g.begin_item(1); // ...and the sweep continues past it
        s.end_dispatch();
        let r = s.report();
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(
            r.violations[0],
            Violation::BarrierDivergence { group: 2, .. }
        ));
    }

    #[test]
    fn drift_audit_allows_exact_and_declared_ratio() {
        let s = shared();
        let sh = BufferShadow::new(Arc::clone(&s), "b", 64, 4);
        let e = s.begin_dispatch("k");
        for i in 0..8 {
            sh.on_read(e, 1, i);
        }
        sh.on_write(e, 1, 0);
        let mut c = CostCounters::new();
        c.global_read_scalar = 32; // exact
        c.global_write_scalar = 4; // exact
        s.audit("k", &c, 1.0);
        s.end_dispatch();
        assert!(s.report().is_clean(), "{}", s.report().summary());

        // Overcharge reads without declaring: flagged.
        let e = s.begin_dispatch("k2");
        sh.on_read(e, 1, 0);
        let mut c = CostCounters::new();
        c.global_read_scalar = 40;
        s.audit("k2", &c, 1.0);
        s.end_dispatch();
        assert_eq!(s.report().violations.len(), 1);

        // Same overcharge with a declared ratio: clean.
        let s2 = shared();
        let sh2 = BufferShadow::new(Arc::clone(&s2), "b", 64, 4);
        let e = s2.begin_dispatch("k3");
        sh2.on_read(e, 1, 0);
        let mut c = CostCounters::new();
        c.global_read_scalar = 40;
        s2.audit("k3", &c, 10.0);
        s2.end_dispatch();
        assert!(s2.report().is_clean(), "{}", s2.report().summary());

        // Undercharged reads are never acceptable.
        let e = s2.begin_dispatch("k4");
        for i in 0..8 {
            sh2.on_read(e, 1, i);
        }
        let mut c = CostCounters::new();
        c.global_read_scalar = 4;
        s2.audit("k4", &c, 1.0);
        s2.end_dispatch();
        assert_eq!(s2.report().violations.len(), 1);
    }

    #[test]
    fn violation_cap_counts_dropped() {
        let s = Arc::new(SanitizeShared::new(
            SanitizeConfig {
                max_violations: 2,
                ..SanitizeConfig::default()
            },
            64,
        ));
        let sh = BufferShadow::new(Arc::clone(&s), "b", 8, 4);
        let e = s.begin_dispatch("k");
        for i in 0..5 {
            sh.on_write(e, 1, i);
            sh.on_write(e, 2, i);
        }
        s.end_dispatch();
        let r = s.report();
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.dropped, 3);
        assert!(!r.is_clean());
        assert!(r.summary().contains("not shown"));
    }

    #[test]
    fn report_summary_reads_well() {
        let s = shared();
        assert!(s.report().summary().contains("clean"));
        s.record(Violation::OobGlobal {
            kernel: "k".into(),
            buffer: "out".into(),
            index: 40,
            len: 32,
            write: true,
        });
        let sum = s.report().summary();
        assert!(sum.contains("out-of-bounds store"));
        assert!(sum.contains("`out`[40]"));
    }
}
