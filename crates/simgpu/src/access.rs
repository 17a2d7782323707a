//! Declarative per-dispatch access summaries and their static checker.
//!
//! Every kernel dispatch declares, *before it runs*, a compact affine
//! description of everything it will touch: per buffer, a set of
//! [`AccessWindow`]s (base index + contiguous row extent + two repeat
//! axes), plus the dispatch's full [`CostCounters`] — global traffic split
//! by scalar/vector class, arithmetic ops, barriers, divergence, LDS and
//! the group/lane/item counts. The queue charges exactly those counters;
//! nothing is counted while the kernel runs. [`verify_summary`] then
//! proves in closed form, without executing the kernel:
//!
//! * **(a) bounds** — every window stays inside its buffer, ragged
//!   vec4-aligned tails included;
//! * **(b) write disjointness** — no element of any buffer is stored twice
//!   by the dispatch, so the data-parallel execution is race-free by
//!   construction;
//! * **(c) accounting** — the charged write bytes equal the declared write
//!   set exactly, and the charged read bytes dominate the declared read
//!   set while staying within the declared overcharge ratio (the ratio
//!   itself is derived in closed form via
//!   [`AccessSummary::exact_read_ratio`], replacing any hand-waved floor).
//!
//! Declared once, charged once; the sanitizer audits declared against
//! observed. Sanitized runs compare the declared window bytes against the
//! per-element traffic the shadow sanitizer observes
//! ([`crate::sanitize::Violation::SummaryDrift`]) and the charged bytes
//! against the same observation
//! ([`crate::sanitize::Violation::AccountingDrift`]), so a declaration
//! cannot rot silently.
//!
//! A window's "vector width" is not separate metadata: vectorized access
//! shows up as charged bytes in the vector class of the counters, while
//! the window geometry describes the element footprint that both bounds
//! and the sanitizer's shadow traffic are defined over.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::ops::Range;

use crate::cost::CostCounters;
use crate::kernel::KernelDesc;

/// Whether an [`AccessWindow`] is loaded or stored by the dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Elements are read.
    Read,
    /// Elements are written.
    Write,
}

/// The buffer a window refers to, as the checker sees it: the debug label
/// (shared with the shadow sanitizer and the pool) plus its extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufRef {
    /// Debug label of the buffer.
    pub label: String,
    /// Buffer length in elements.
    pub len: usize,
    /// Size of one element in bytes.
    pub elem_bytes: u64,
}

impl BufRef {
    /// Convenience constructor for an `f32` buffer of `len` elements.
    pub fn f32(label: impl Into<String>, len: usize) -> Self {
        BufRef {
            label: label.into(),
            len,
            elem_bytes: 4,
        }
    }
}

/// One affine access window: the element set
/// `{ base + i·x_stride + j·y_stride + k  |  i < x_count, j < y_count,
/// k < elems }`.
///
/// `elems` is a contiguous run (a row span); the `x` axis repeats it with a
/// fixed stride (e.g. the three stencil rows of a 3×3 window, stride =
/// pitch), and the `y` axis repeats that again (e.g. once per covered image
/// row). Every element of the set counts as one access *event* — summaries
/// declare events exactly, which is what makes the sanitizer
/// cross-validation an equality check rather than a bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessWindow {
    /// Buffer the window belongs to.
    pub buffer: BufRef,
    /// Read or write.
    pub role: Role,
    /// First element index of the first row span.
    pub base: usize,
    /// Contiguous elements per span.
    pub elems: usize,
    /// Repeats along the inner axis.
    pub x_count: usize,
    /// Element stride between inner-axis repeats.
    pub x_stride: usize,
    /// Repeats along the outer axis.
    pub y_count: usize,
    /// Element stride between outer-axis repeats.
    pub y_stride: usize,
}

impl AccessWindow {
    /// A single contiguous read span.
    pub fn read(buffer: BufRef, base: usize, elems: usize) -> Self {
        AccessWindow {
            buffer,
            role: Role::Read,
            base,
            elems,
            x_count: 1,
            x_stride: 0,
            y_count: 1,
            y_stride: 0,
        }
    }

    /// A single contiguous write span.
    pub fn write(buffer: BufRef, base: usize, elems: usize) -> Self {
        AccessWindow {
            role: Role::Write,
            ..AccessWindow::read(buffer, base, elems)
        }
    }

    /// Repeats the span `count` times along the inner axis with `stride`.
    pub fn by_x(mut self, count: usize, stride: usize) -> Self {
        self.x_count = count;
        self.x_stride = stride;
        self
    }

    /// Repeats the window `count` times along the outer axis with `stride`.
    pub fn by_y(mut self, count: usize, stride: usize) -> Self {
        self.y_count = count;
        self.y_stride = stride;
        self
    }

    /// Number of access events the window declares.
    pub fn events(&self) -> u64 {
        (self.elems as u128 * self.x_count as u128 * self.y_count as u128)
            .try_into()
            .unwrap_or(u64::MAX)
    }

    /// Declared bytes: events × element size.
    pub fn bytes(&self) -> u64 {
        self.events().saturating_mul(self.buffer.elem_bytes)
    }

    /// True when the window declares no events.
    pub fn is_empty(&self) -> bool {
        self.elems == 0 || self.x_count == 0 || self.y_count == 0
    }

    /// Largest element index the window touches, or `None` when empty or
    /// arithmetically overflowing (treated as out of bounds by the
    /// checker).
    pub fn max_index(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let max = self.base as u128
            + (self.x_count as u128 - 1) * self.x_stride as u128
            + (self.y_count as u128 - 1) * self.y_stride as u128
            + self.elems as u128
            - 1;
        usize::try_from(max).ok()
    }
}

/// The declarative access summary of one kernel dispatch (or of a group
/// range of it): grid geometry, affine windows, and the cost counters the
/// dispatch is charged.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSummary {
    /// Kernel name (must match the dispatched [`crate::kernel::KernelDesc`]).
    pub kernel: String,
    /// Flat work-group range the summary covers.
    pub groups: Range<usize>,
    /// Total work-groups of the full grid.
    pub total_groups: usize,
    /// Declared access windows (empty windows are dropped on push).
    pub windows: Vec<AccessWindow>,
    /// The cost counters of the covered group range — the only thing the
    /// queue charges for the dispatch.
    pub charged: CostCounters,
    /// Declared read-overcharge ratio: the audit bound is
    /// `charged_reads ≤ declared_reads × read_ratio`.
    pub read_ratio: f64,
}

impl AccessSummary {
    /// An empty summary of `desc` covering the flat group range `groups`:
    /// no windows and no work yet, but the group, lane and item counts of
    /// the range already declared.
    pub fn new(desc: &KernelDesc, groups: Range<usize>) -> Self {
        let lanes = desc.group_lanes() as u64;
        let charged = CostCounters {
            groups: groups.len() as u64,
            group_lanes: lanes,
            items: groups.len() as u64 * lanes,
            ..CostCounters::default()
        };
        AccessSummary {
            kernel: desc.name.clone(),
            groups,
            total_groups: desc.total_groups(),
            windows: Vec::new(),
            charged,
            read_ratio: 1.0,
        }
    }

    /// Declares a window; empty windows are dropped.
    pub fn push(&mut self, window: AccessWindow) {
        if !window.is_empty() {
            self.windows.push(window);
        }
    }

    /// Declares global traffic: per-item bytes by class, times `n` items.
    pub fn charge_global_n(
        &mut self,
        scalar_read: u64,
        vector_read: u64,
        scalar_write: u64,
        vector_write: u64,
        n: u64,
    ) {
        self.charged.global_read_scalar += scalar_read * n;
        self.charged.global_read_vector += vector_read * n;
        self.charged.global_write_scalar += scalar_write * n;
        self.charged.global_write_vector += vector_write * n;
    }

    /// Sum of declared read bytes over all windows.
    pub fn declared_read_bytes(&self) -> u64 {
        self.windows
            .iter()
            .filter(|w| w.role == Role::Read)
            .map(AccessWindow::bytes)
            .sum()
    }

    /// Sum of declared write bytes over all windows.
    pub fn declared_write_bytes(&self) -> u64 {
        self.windows
            .iter()
            .filter(|w| w.role == Role::Write)
            .map(AccessWindow::bytes)
            .sum()
    }

    /// True when the summary covers the whole grid.
    pub fn covers_full_grid(&self) -> bool {
        self.groups.start == 0 && self.groups.end == self.total_groups
    }

    /// The exact read-overcharge ratio of this summary: 1 when the charge
    /// is exact (or dominated by the declaration), else the closed-form
    /// quotient `charged / declared` with 1% headroom against float
    /// rounding in the audit comparison. Replaces the legacy blanket
    /// `.max(4.0)` floor, which masked undercharge on ragged shapes.
    pub fn exact_read_ratio(&self) -> f64 {
        let declared = self.declared_read_bytes();
        let charged = self.charged.global_read_bytes();
        if charged <= declared || declared == 0 {
            1.0
        } else {
            charged as f64 / declared as f64 * 1.01
        }
    }
}

/// A typed verdict from the static checker. Field types are integral so
/// the error (and [`crate::error::Error`] wrapping it) stays `Eq`; ratios
/// are carried as `f64::to_bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// A window reaches past the end of its buffer (property a).
    OutOfBounds {
        /// Kernel that declared the window.
        kernel: String,
        /// Label of the offending buffer.
        buffer: String,
        /// Largest declared index (`usize::MAX` on arithmetic overflow).
        index: usize,
        /// Buffer length in elements.
        len: usize,
    },
    /// Two write events land on the same element (property b).
    WriteOverlap {
        /// Kernel that declared the windows.
        kernel: String,
        /// Label of the offending buffer.
        buffer: String,
        /// Human-readable description of the clash.
        detail: String,
    },
    /// Charged write bytes differ from the declared write set (property c:
    /// writes must be charged exactly).
    WriteChargeMismatch {
        /// Kernel that declared the summary.
        kernel: String,
        /// Declared write bytes.
        declared: u64,
        /// Charged write bytes.
        charged: u64,
    },
    /// Charged read bytes fall short of the declared read set (property c:
    /// the cost model would undercount real traffic).
    ReadUndercharge {
        /// Kernel that declared the summary.
        kernel: String,
        /// Declared read bytes.
        declared: u64,
        /// Charged read bytes.
        charged: u64,
    },
    /// Charged read bytes exceed the declared overcharge bound
    /// (property c: `charged ≤ declared × ratio` must hold).
    RatioExceeded {
        /// Kernel that declared the summary.
        kernel: String,
        /// Declared read bytes.
        declared: u64,
        /// Charged read bytes.
        charged: u64,
        /// Declared ratio, as `f64::to_bits` (keeps the error `Eq`).
        ratio_bits: u64,
    },
    /// The summary's grid geometry does not match the dispatch it was
    /// declared for.
    GridMismatch {
        /// Kernel being dispatched.
        kernel: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::OutOfBounds {
                kernel,
                buffer,
                index,
                len,
            } => write!(
                f,
                "access summary for kernel `{kernel}`: window on `{buffer}` reaches index \
                 {index} but the buffer has {len} elements"
            ),
            AccessError::WriteOverlap {
                kernel,
                buffer,
                detail,
            } => write!(
                f,
                "access summary for kernel `{kernel}`: overlapping write windows on \
                 `{buffer}` ({detail})"
            ),
            AccessError::WriteChargeMismatch {
                kernel,
                declared,
                charged,
            } => write!(
                f,
                "access summary for kernel `{kernel}`: declares {declared} write bytes but \
                 charges {charged} (writes must be charged exactly)"
            ),
            AccessError::ReadUndercharge {
                kernel,
                declared,
                charged,
            } => write!(
                f,
                "access summary for kernel `{kernel}`: declares {declared} read bytes but \
                 charges only {charged} (cost model would undercount traffic)"
            ),
            AccessError::RatioExceeded {
                kernel,
                declared,
                charged,
                ratio_bits,
            } => write!(
                f,
                "access summary for kernel `{kernel}`: charges {charged} read bytes, beyond \
                 the declared bound of {declared} x ratio {:.4}",
                f64::from_bits(*ratio_bits)
            ),
            AccessError::GridMismatch { kernel, detail } => write!(
                f,
                "access summary for kernel `{kernel}` does not match its dispatch: {detail}"
            ),
        }
    }
}

/// True when the window cannot store any element twice: repeats along each
/// axis must step at least as far as the extent of the level below. This
/// is conservative (it assumes `x` is the inner axis), which all kernel
/// constructors follow.
fn internally_disjoint(w: &AccessWindow) -> bool {
    if w.events() <= 1 {
        return true;
    }
    let x_ok = w.x_count <= 1 || w.x_stride >= w.elems;
    let x_span = (w.x_count.max(1) - 1).saturating_mul(w.x_stride) + w.elems;
    let y_ok = w.y_count <= 1 || w.y_stride >= x_span;
    x_ok && y_ok
}

/// True when two windows on the same buffer provably share no element:
/// either their index intervals are disjoint, or both are column bands of
/// a common row period `p` (every active stride a multiple of the smallest
/// one) with disjoint column ranges modulo `p`.
fn pairwise_disjoint(a: &AccessWindow, b: &AccessWindow) -> bool {
    let (Some(a_max), Some(b_max)) = (a.max_index(), b.max_index()) else {
        return true; // empty windows share nothing
    };
    if a_max < b.base || b_max < a.base {
        return true;
    }
    // Collect the strides that actually advance; a window with none is a
    // single run and only the interval test above can clear it.
    let mut strides = [0usize; 4];
    let mut n = 0;
    for w in [a, b] {
        for (count, stride) in [(w.x_count, w.x_stride), (w.y_count, w.y_stride)] {
            if count > 1 {
                strides[n] = stride;
                n += 1;
            }
        }
    }
    if n == 0 {
        return false;
    }
    let p = *strides[..n].iter().min().expect("n > 0");
    if p == 0 || strides[..n].iter().any(|s| s % p != 0) {
        return false;
    }
    let (ca, cb) = (a.base % p, b.base % p);
    ca + a.elems <= p && cb + b.elems <= p && (ca + a.elems <= cb || cb + b.elems <= ca)
}

/// A pair of write windows on one buffer that [`pairwise_disjoint`] cannot
/// clear, if any — the verdict of comparing every pair, in
/// `O(n log n)` for the declarations kernels make. Sorts `writes` by
/// buffer, then `base`.
///
/// A buffer with at most [`SWEEP_MIN`] windows compares every pair. A
/// larger one is swept in `base` order: the windows still *live* when
/// `b` arrives are those whose `[base, max_index]` interval contains
/// `b.base`; only they can meet `b`, and they all meet each other. A live
/// column band of `b`'s own period (see [`Band`]) meets `b` exactly when
/// their column ranges overlap, and the live bands of one period have
/// disjoint column ranges (else the sweep stopped earlier), so an ordered
/// map of them answers with its two neighbours of `b`. Live windows of
/// other periods, and windows that are no band, are compared with `b` one
/// by one.
fn first_write_overlap<'a>(
    writes: &mut [&'a AccessWindow],
) -> Option<(&'a AccessWindow, &'a AccessWindow)> {
    writes.sort_unstable_by(|a, b| {
        (a.buffer.label.as_str(), a.base).cmp(&(b.buffer.label.as_str(), b.base))
    });
    // Live windows: expiry heap of (max_index, slot), bands by (period,
    // first column), the rest by slot.
    let mut expiry = BinaryHeap::new();
    let mut bands: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut rest: Vec<usize> = Vec::new();
    for buffer in writes.chunk_by(|a, b| a.buffer.label == b.buffer.label) {
        if buffer.len() <= SWEEP_MIN {
            for (i, &a) in buffer.iter().enumerate() {
                if let Some(&b) = buffer[i + 1..].iter().find(|b| !pairwise_disjoint(a, b)) {
                    return Some((a, b));
                }
            }
            continue;
        }
        expiry.clear();
        bands.clear();
        rest.clear();
        for (slot, &b) in buffer.iter().enumerate() {
            let Some(max) = b.max_index() else {
                continue; // empty windows share nothing
            };
            while let Some(&Reverse((end, old))) = expiry.peek() {
                if end >= b.base {
                    break;
                }
                expiry.pop();
                match Band::of(buffer[old]) {
                    Some(band) => {
                        bands.remove(&(band.period, band.col));
                    }
                    None => rest.retain(|&s| s != old),
                }
            }
            let band = Band::of(b);
            if let Some(Band { period, col }) = band {
                let below = bands.range((period, 0)..(period, col)).next_back();
                let within = bands.range((period, col)..(period, col + b.elems)).next();
                let hit = below
                    .filter(|&(&(_, c), &s)| c + buffer[s].elems > col)
                    .or(within);
                if let Some((_, &s)) = hit {
                    return Some((buffer[s], b));
                }
            }
            let others = bands
                .iter()
                .filter(|((p, _), _)| band.is_none_or(|own| own.period != *p))
                .map(|(_, &s)| s)
                .chain(rest.iter().copied());
            for s in others {
                if !pairwise_disjoint(buffer[s], b) {
                    return Some((buffer[s], b));
                }
            }
            match band {
                Some(band) => {
                    bands.insert((band.period, band.col), slot);
                }
                None => rest.push(slot),
            }
            expiry.push(Reverse((max, slot)));
        }
    }
    None
}

/// Write windows per buffer up to which [`first_write_overlap`] compares
/// every pair: fewer pairs than the sweep's bookkeeping costs.
const SWEEP_MIN: usize = 8;

/// A write window that is a column band of period `period`: it repeats
/// along at least one axis, every repeating stride is a multiple of the
/// smallest, and its span `col..col + elems` stays inside one period. Two
/// bands of one period whose intervals overlap are disjoint exactly when
/// their column ranges are — the verdict [`pairwise_disjoint`] gives them.
#[derive(Clone, Copy)]
struct Band {
    period: usize,
    col: usize,
}

impl Band {
    fn of(w: &AccessWindow) -> Option<Band> {
        let strides = [(w.x_count, w.x_stride), (w.y_count, w.y_stride)]
            .into_iter()
            .filter(|&(count, _)| count > 1)
            .map(|(_, stride)| stride);
        let period = strides.clone().min()?;
        if period == 0 || strides.into_iter().any(|s| s % period != 0) {
            return None;
        }
        let col = w.base % period;
        (col + w.elems <= period).then_some(Band { period, col })
    }
}

/// Statically checks one summary: bounds (a), write disjointness (b), and
/// accounting (c). The overcharge-ratio bound of (c) applies to full-grid
/// summaries only: a partial group range (as the range-split checks of the
/// kernel constructors build) may cover only border rows that read nothing
/// while still charging its share of the whole-dispatch bound.
pub fn verify_summary(s: &AccessSummary) -> Result<(), AccessError> {
    if s.groups.start > s.groups.end || s.groups.end > s.total_groups {
        return Err(AccessError::GridMismatch {
            kernel: s.kernel.clone(),
            detail: format!(
                "group range {}..{} outside grid of {} groups",
                s.groups.start, s.groups.end, s.total_groups
            ),
        });
    }
    // (a) bounds, including arithmetic overflow of the affine form.
    for w in &s.windows {
        let max = w.max_index().unwrap_or(usize::MAX);
        if !w.is_empty() && max >= w.buffer.len {
            return Err(AccessError::OutOfBounds {
                kernel: s.kernel.clone(),
                buffer: w.buffer.label.clone(),
                index: max,
                len: w.buffer.len,
            });
        }
    }
    // (b) write disjointness: each write window self-disjoint, and write
    // windows on the same buffer pairwise disjoint.
    let mut writes: Vec<&AccessWindow> =
        s.windows.iter().filter(|w| w.role == Role::Write).collect();
    for w in &writes {
        if !internally_disjoint(w) {
            return Err(AccessError::WriteOverlap {
                kernel: s.kernel.clone(),
                buffer: w.buffer.label.clone(),
                detail: format!(
                    "window base {} elems {} strides ({}x{}, {}x{}) revisits elements",
                    w.base, w.elems, w.x_count, w.x_stride, w.y_count, w.y_stride
                ),
            });
        }
    }
    if let Some((a, b)) = first_write_overlap(&mut writes) {
        return Err(AccessError::WriteOverlap {
            kernel: s.kernel.clone(),
            buffer: a.buffer.label.clone(),
            detail: format!(
                "windows at bases {} and {} cannot be proved disjoint",
                a.base, b.base
            ),
        });
    }
    // (c) accounting: writes exact, reads dominated and ratio-bounded.
    let declared_w = s.declared_write_bytes();
    if s.charged.global_write_bytes() != declared_w {
        return Err(AccessError::WriteChargeMismatch {
            kernel: s.kernel.clone(),
            declared: declared_w,
            charged: s.charged.global_write_bytes(),
        });
    }
    let declared_r = s.declared_read_bytes();
    let charged_r = s.charged.global_read_bytes();
    if charged_r < declared_r {
        return Err(AccessError::ReadUndercharge {
            kernel: s.kernel.clone(),
            declared: declared_r,
            charged: charged_r,
        });
    }
    if !s.read_ratio.is_finite() || s.read_ratio < 1.0 {
        return Err(AccessError::RatioExceeded {
            kernel: s.kernel.clone(),
            declared: declared_r,
            charged: charged_r,
            ratio_bits: s.read_ratio.to_bits(),
        });
    }
    if s.covers_full_grid()
        && charged_r != declared_r
        && charged_r as f64 > declared_r as f64 * s.read_ratio
    {
        return Err(AccessError::RatioExceeded {
            kernel: s.kernel.clone(),
            declared: declared_r,
            charged: charged_r,
            ratio_bits: s.read_ratio.to_bits(),
        });
    }
    Ok(())
}

/// Aggregate statistics over verified summaries, surfaced through
/// `--profile` and the metrics gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VerifyStats {
    /// Summaries verified (one per dispatch).
    pub dispatches: u64,
    /// Declared windows across all summaries.
    pub windows: u64,
    /// Declared read bytes across all summaries.
    pub declared_read_bytes: u64,
    /// Declared write bytes across all summaries.
    pub declared_write_bytes: u64,
    /// Charged read bytes across all summaries.
    pub charged_read_bytes: u64,
    /// Charged write bytes across all summaries.
    pub charged_write_bytes: u64,
    /// Worst declared-ratio slack: `ratio − charged/declared`, maximised
    /// over summaries. Near zero when ratios are exact.
    pub max_ratio_slack: f64,
}

impl VerifyStats {
    /// Folds one summary into the statistics.
    pub fn absorb(&mut self, s: &AccessSummary) {
        self.dispatches += 1;
        self.windows += s.windows.len() as u64;
        let dr = s.declared_read_bytes();
        self.declared_read_bytes += dr;
        self.declared_write_bytes += s.declared_write_bytes();
        self.charged_read_bytes += s.charged.global_read_bytes();
        self.charged_write_bytes += s.charged.global_write_bytes();
        if dr > 0 {
            let slack = s.read_ratio - s.charged.global_read_bytes() as f64 / dr as f64;
            if slack > self.max_ratio_slack {
                self.max_ratio_slack = slack;
            }
        }
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &VerifyStats) {
        self.dispatches += other.dispatches;
        self.windows += other.windows;
        self.declared_read_bytes += other.declared_read_bytes;
        self.declared_write_bytes += other.declared_write_bytes;
        self.charged_read_bytes += other.charged_read_bytes;
        self.charged_write_bytes += other.charged_write_bytes;
        if other.max_ratio_slack > self.max_ratio_slack {
            self.max_ratio_slack = other.max_ratio_slack;
        }
    }
}

/// Verifies a list of summaries and returns the aggregate statistics.
pub fn verify_all(summaries: &[AccessSummary]) -> Result<VerifyStats, AccessError> {
    let mut stats = VerifyStats::default();
    for s in summaries {
        verify_summary(s)?;
        stats.absorb(s);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(len: usize) -> BufRef {
        BufRef::f32("b", len)
    }

    /// A 1-D dispatch of `groups` single-lane groups.
    fn desc(groups: usize) -> KernelDesc {
        KernelDesc::new_1d("k", groups, 1)
    }

    fn clean_summary() -> AccessSummary {
        // A perror-like dispatch: 2 read rows + 1 write row per image row.
        let mut s = AccessSummary::new(&desc(4), 0..4);
        s.push(AccessWindow::read(buf(1024), 0, 16).by_y(8, 32));
        s.push(AccessWindow::read(BufRef::f32("up", 1024), 0, 16).by_y(8, 32));
        s.push(AccessWindow::write(BufRef::f32("out", 1024), 0, 16).by_y(8, 32));
        s.charge_global_n(8, 0, 4, 0, 16 * 8);
        s
    }

    #[test]
    fn window_algebra() {
        let w = AccessWindow::read(buf(100), 5, 10).by_x(3, 20).by_y(2, 50);
        assert_eq!(w.events(), 10 * 3 * 2);
        assert_eq!(w.bytes(), 60 * 4);
        assert_eq!(w.max_index(), Some(5 + 2 * 20 + 50 + 9));
        assert!(AccessWindow::read(buf(10), 0, 0).is_empty());
        assert_eq!(AccessWindow::read(buf(10), 0, 0).max_index(), None);
    }

    #[test]
    fn clean_summary_verifies_with_exact_ratio() {
        let s = clean_summary();
        assert_eq!(s.exact_read_ratio(), 1.0);
        assert_eq!(verify_summary(&s), Ok(()));
        let stats = verify_all(std::slice::from_ref(&s)).unwrap();
        assert_eq!(stats.dispatches, 1);
        assert_eq!(stats.windows, 3);
        assert_eq!(stats.declared_read_bytes, 2 * 16 * 8 * 4);
        assert_eq!(stats.charged_write_bytes, 16 * 8 * 4);
        assert_eq!(stats.max_ratio_slack, 0.0);
    }

    #[test]
    fn oob_summary_is_rejected() {
        let mut s = clean_summary();
        // Last row span reaches one element past the buffer end.
        s.windows[2] = AccessWindow::write(BufRef::f32("out", 1024), 1, 16).by_y(8, 144);
        assert!(matches!(
            verify_summary(&s),
            Err(AccessError::OutOfBounds {
                index: 1024,
                len: 1024,
                ..
            })
        ));
    }

    #[test]
    fn overlapping_write_windows_are_rejected() {
        // Internal overlap: row stride smaller than the span.
        let mut s = AccessSummary::new(&desc(1), 0..1);
        s.push(AccessWindow::write(buf(1024), 0, 16).by_y(4, 8));
        s.charge_global_n(0, 0, 4, 0, 64);
        assert!(matches!(
            verify_summary(&s),
            Err(AccessError::WriteOverlap { .. })
        ));
        // Pairwise overlap: two windows sharing an interval.
        let mut s = AccessSummary::new(&desc(1), 0..1);
        s.push(AccessWindow::write(buf(1024), 0, 32));
        s.push(AccessWindow::write(buf(1024), 16, 32));
        s.charge_global_n(0, 0, 4, 0, 64);
        assert!(matches!(
            verify_summary(&s),
            Err(AccessError::WriteOverlap { .. })
        ));
    }

    /// The all-pairs loop [`first_write_overlap`] replaced: the reference
    /// verdict.
    fn all_pairs_overlap(writes: &[&AccessWindow]) -> bool {
        writes.iter().enumerate().any(|(i, a)| {
            writes[i + 1..]
                .iter()
                .any(|b| a.buffer.label == b.buffer.label && !pairwise_disjoint(a, b))
        })
    }

    #[test]
    fn write_overlap_sweep_agrees_with_all_pairs() {
        // SplitMix64 over random window sets. Half the cases are lattices
        // like the upscale center's clamped block row: up to three times
        // `SWEEP_MIN` column bands of one period on one buffer, in
        // distinct 4-column slots, whose intervals all overlap while
        // their columns do not, one of them sometimes shifted onto a
        // neighbour. The other half mix, on two buffers, column bands of
        // a few periods, strided windows whose strides share no period,
        // plain runs and empty windows.
        let mut state = 0x5eed_2015_u64;
        let mut next = |n: usize| -> usize {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        // (overlapping, disjoint) verdicts, all cases and swept ones.
        let (mut all, mut swept) = ([0; 2], [0; 2]);
        for case in 0..20_000 {
            let n = 1 + next(3 * SWEEP_MIN);
            let windows: Vec<AccessWindow> = if case % 2 == 0 {
                let mut slots: Vec<usize> = (0..3 * SWEEP_MIN).collect();
                let shifted = next(4) == 0;
                (0..n)
                    .map(|i| {
                        let j = i + next(slots.len() - i);
                        slots.swap(i, j);
                        let col = 4 * slots[i] + usize::from(shifted && i == 0) * 2;
                        let w = AccessWindow::write(BufRef::f32("a", 1 << 14), 0, 0);
                        AccessWindow {
                            base: 128 * next(4) + col,
                            elems: 1 + next(4),
                            ..w
                        }
                        .by_x(1 + next(4), 128)
                        .by_y(1 + next(3), 512)
                    })
                    .collect()
            } else {
                (0..n)
                    .map(|_| {
                        let label = ["a", "b"][next(2)];
                        let w = AccessWindow::write(BufRef::f32(label, 4096), 0, 0);
                        match next(4) {
                            0 | 1 => {
                                let p = [8, 16, 32][next(3)];
                                let col = next(p);
                                AccessWindow {
                                    base: p * next(24) + col,
                                    elems: next(p - col + 1),
                                    ..w
                                }
                                .by_x(1 + next(4), p * (1 + next(2)))
                                .by_y(1 + next(3), p * (1 + next(8)))
                            }
                            2 => AccessWindow {
                                base: next(512),
                                elems: 1 + next(12),
                                ..w
                            }
                            .by_x(1 + next(3), next(40))
                            .by_y(1 + next(2), next(90)),
                            _ => AccessWindow {
                                base: next(768),
                                elems: 1 + next(24),
                                ..w
                            },
                        }
                    })
                    .collect()
            };
            let mut refs: Vec<&AccessWindow> = windows.iter().collect();
            let expected = all_pairs_overlap(&refs);
            let found = first_write_overlap(&mut refs);
            assert_eq!(found.is_some(), expected, "case {case}: {windows:?}");
            if let Some((a, b)) = found {
                assert!(a.buffer.label == b.buffer.label && !pairwise_disjoint(a, b));
            }
            let verdict = usize::from(!expected);
            all[verdict] += 1;
            if ["a", "b"]
                .iter()
                .any(|l| windows.iter().filter(|w| w.buffer.label == *l).count() > SWEEP_MIN)
            {
                swept[verdict] += 1;
            }
        }
        assert!(all.iter().all(|&n| n > 2000), "{all:?}");
        assert!(swept.iter().all(|&n| n > 1000), "{swept:?}");
    }

    #[test]
    fn column_bands_of_same_period_are_disjoint() {
        let mut s = AccessSummary::new(&desc(1), 0..1);
        // Columns [0,4) and [8,16) of a 32-wide row, 8 rows: interleaved
        // intervals, provably disjoint by the modulo rule.
        s.push(AccessWindow::write(buf(256), 0, 4).by_y(8, 32));
        s.push(AccessWindow::write(buf(256), 8, 8).by_y(8, 32));
        s.charge_global_n(0, 0, 4, 0, 96);
        assert_eq!(verify_summary(&s), Ok(()));
    }

    #[test]
    fn undercharging_summary_is_rejected() {
        let mut s = clean_summary();
        s.charged.global_read_scalar = 100; // far below the declared 1024 B
        assert!(matches!(
            verify_summary(&s),
            Err(AccessError::ReadUndercharge { .. })
        ));
        // Writes must match exactly, in either direction.
        let mut s = clean_summary();
        s.charged.global_write_scalar += 4;
        assert!(matches!(
            verify_summary(&s),
            Err(AccessError::WriteChargeMismatch { .. })
        ));
    }

    #[test]
    fn ratio_bound_is_enforced_on_full_grid() {
        let mut s = clean_summary();
        s.charge_global_n(8, 0, 0, 0, 16 * 8); // double-charge the reads
        assert!(matches!(
            verify_summary(&s),
            Err(AccessError::RatioExceeded { .. })
        ));
        s.read_ratio = s.exact_read_ratio();
        assert!(s.read_ratio > 1.9 && s.read_ratio < 2.1);
        assert_eq!(verify_summary(&s), Ok(()));
        // A partial group range is not held to the whole-dispatch bound.
        let mut part = s.clone();
        part.groups = 0..2;
        part.read_ratio = 1.0;
        assert_eq!(verify_summary(&part), Ok(()));
    }

    #[test]
    fn new_declares_the_range_geometry() {
        let d = KernelDesc::new("k", [64, 32], [16, 8]);
        let s = AccessSummary::new(&d, 4..10);
        assert_eq!(s.total_groups, 16);
        assert_eq!(s.charged.groups, 6);
        assert_eq!(s.charged.group_lanes, 128);
        assert_eq!(s.charged.items, 6 * 128);
        assert_eq!(s.charged.global_bytes(), 0);
    }
}
