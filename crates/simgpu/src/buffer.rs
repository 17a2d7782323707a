//! Device buffers and the views kernels use to access them.
//!
//! A [`Buffer`] owns a slab of device memory. Kernels do not touch buffers
//! directly; they capture cheap, clonable [`GlobalView`] (read) and
//! [`GlobalWriteView`] (write) handles and access memory through them.
//! The views count nothing — a dispatch's cost is its declared
//! [`crate::access::AccessSummary`] — but they feed the sanitizer's
//! shadow state, which audits that declaration against what ran.
//!
//! # Safety model
//!
//! Work-groups of one dispatch run in parallel (scoped host threads, see
//! [`crate::par`]), one closure call per work-group or per work-group row
//! ([`crate::kernel`]); a row unit runs its groups in turn on one thread.
//! The simulator relies on the same invariant a real GPU kernel does:
//! *distinct work-items write distinct elements*. Reads and writes go through raw
//! pointers internally; the invariant is checked — not assumed — when the
//! owning [`crate::context::Context`] enables validation, in which case
//! every store sets a per-element mark and a second store to the same
//! element within one write epoch is reported as a [`Error::WriteRace`].
//!
//! [`Error::WriteRace`]: crate::error::Error::WriteRace

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use crate::pool::{BufferPool, PoolShared};
use crate::sanitize::{BufferShadow, SanitizeShared};

/// Element types storable in device buffers.
pub trait Scalar: Copy + Send + Sync + Default + 'static {}
impl Scalar for f32 {}
impl Scalar for f64 {}
impl Scalar for u8 {}
impl Scalar for i32 {}
impl Scalar for u32 {}
impl Scalar for u64 {}

/// `UnsafeCell` that can be shared across threads. All aliasing discipline
/// is enforced by the dispatch structure (disjoint writes) and optionally
/// checked by the validation marks.
struct SyncCell<T>(UnsafeCell<Box<[T]>>);
// SAFETY: access discipline is the GPU invariant documented in the module
// docs; violations are caught by the validation layer in tests.
unsafe impl<T: Scalar> Sync for SyncCell<T> {}
unsafe impl<T: Scalar> Send for SyncCell<T> {}

pub(crate) struct BufferInner<T: Scalar> {
    data: SyncCell<T>,
    len: usize,
    /// One mark per element; `Some` only when the context validates writes.
    marks: Option<Box<[AtomicU8]>>,
    /// `index + 1` of the first detected double-write, 0 if none.
    race: AtomicUsize,
    /// True while a map guard is outstanding (aliasing check).
    pub(crate) mapped: AtomicBool,
    /// Debug label (usually the logical matrix name, e.g. `"pEdge"`).
    label: String,
    /// Pool to return the backing slab to on drop, for pool-managed
    /// buffers. `Weak`: a buffer outliving its context must not keep the
    /// pool (and every parked slab) alive.
    pool: Option<Weak<PoolShared>>,
    /// Sanitizer shadow memory; `Some` only for buffers created from a
    /// sanitized context. Observation only — never alters data.
    shadow: Option<Arc<BufferShadow>>,
}

impl<T: Scalar> Drop for BufferInner<T> {
    fn drop(&mut self) {
        if let Some(weak) = self.pool.take() {
            if let Some(pool) = weak.upgrade() {
                pool.retire_live();
                let slab = std::mem::take(self.data.0.get_mut());
                pool.give(&self.label, slab);
            }
        }
    }
}

/// A slab of simulated device memory holding `len` elements of `T`.
///
/// Created through [`crate::context::Context::buffer`] /
/// [`Context::buffer_from`](crate::context::Context::buffer_from).
/// Clones share the same storage, like `cl_mem` handles.
pub struct Buffer<T: Scalar> {
    pub(crate) inner: Arc<BufferInner<T>>,
}

impl<T: Scalar> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        Buffer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Scalar> Buffer<T> {
    #[cfg(test)]
    pub(crate) fn new(label: &str, len: usize, validate: bool) -> Self {
        Self::build_in(label, len, validate, None, None)
    }

    /// Full-control constructor used by [`crate::context::Context`]:
    /// optional pooling (reuse + re-zero of a recycled slab with the same
    /// `(label, len, T)` identity) and an optional sanitizer shadow. The
    /// shadow is always fresh, so a pooled buffer starts every life
    /// uninitialised as far as the sanitizer can tell.
    pub(crate) fn build_in(
        label: &str,
        len: usize,
        validate: bool,
        sanitize: Option<&Arc<SanitizeShared>>,
        pool: Option<&BufferPool>,
    ) -> Self {
        let (data, pool_weak) = match pool {
            Some(pool) => {
                let data = match pool.shared.take::<T>(label, len) {
                    Some(mut slab) => {
                        slab.fill(T::default());
                        slab
                    }
                    None => vec![T::default(); len].into_boxed_slice(),
                };
                (data, Some(Arc::downgrade(&pool.shared)))
            }
            None => (vec![T::default(); len].into_boxed_slice(), None),
        };
        let shadow = sanitize.map(|s| {
            Arc::new(BufferShadow::new(
                Arc::clone(s),
                label,
                len,
                std::mem::size_of::<T>(),
            ))
        });
        Self::build(label, len, validate, data, pool_weak, shadow)
    }

    fn build(
        label: &str,
        len: usize,
        validate: bool,
        data: Box<[T]>,
        pool: Option<Weak<PoolShared>>,
        shadow: Option<Arc<BufferShadow>>,
    ) -> Self {
        debug_assert_eq!(data.len(), len);
        let marks = if validate {
            Some(
                (0..len)
                    .map(|_| AtomicU8::new(0))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            )
        } else {
            None
        };
        Buffer {
            inner: Arc::new(BufferInner {
                data: SyncCell(UnsafeCell::new(data)),
                len,
                marks,
                race: AtomicUsize::new(0),
                mapped: AtomicBool::new(false),
                label: label.to_string(),
                pool,
                shadow,
            }),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True if the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// The debug label the buffer was created with.
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Size of the buffer in bytes.
    pub fn byte_len(&self) -> u64 {
        (self.inner.len * std::mem::size_of::<T>()) as u64
    }

    /// Buffer identity for the static access checker: label, extent, and
    /// element size.
    pub fn info(&self) -> crate::access::BufRef {
        crate::access::BufRef {
            label: self.inner.label.clone(),
            len: self.inner.len,
            elem_bytes: std::mem::size_of::<T>() as u64,
        }
    }

    /// Read-only view for capture by kernels.
    pub fn view(&self) -> GlobalView<T> {
        let ptr = self.inner.data_ptr();
        GlobalView {
            inner: Arc::clone(&self.inner),
            ptr,
        }
    }

    /// Writable view for capture by kernels.
    pub fn write_view(&self) -> GlobalWriteView<T> {
        let ptr = self.inner.data_ptr();
        let validate = self.inner.marks.is_some();
        GlobalWriteView {
            inner: Arc::clone(&self.inner),
            ptr,
            validate,
        }
    }

    /// Starts a new write epoch: clears validation marks and any recorded
    /// race. Called by the queue before each dispatch that declares this
    /// buffer as an output.
    pub fn begin_write_epoch(&self) {
        if let Some(marks) = &self.inner.marks {
            for m in marks.iter() {
                m.store(0, Ordering::Relaxed);
            }
        }
        self.inner.race.store(0, Ordering::Relaxed);
    }

    /// Index of the first double-written element in the current epoch, if
    /// the validation layer detected one.
    pub fn race(&self) -> Option<usize> {
        match self.inner.race.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n - 1),
        }
    }

    /// Copies the buffer contents out for inspection.
    ///
    /// This is a *simulation debugging* facility: it does not charge any
    /// transfer time. Model-honest readbacks go through
    /// [`crate::queue::CommandQueue::enqueue_read`].
    pub fn snapshot(&self) -> Vec<T> {
        // SAFETY: no kernel is running while the host inspects (dispatches
        // are synchronous in the simulator).
        unsafe { (*self.inner.data.0.get()).to_vec() }
    }

    /// Overwrites buffer contents directly, without charging transfer time.
    /// Counterpart of [`Buffer::snapshot`] for test setup.
    pub fn fill_from(&self, src: &[T]) {
        assert_eq!(src.len(), self.inner.len, "fill_from length mismatch");
        if let Some(sh) = &self.inner.shadow {
            sh.mark_init_range(0, src.len());
        }
        // SAFETY: host-side, no concurrent kernel.
        unsafe {
            (*self.inner.data.0.get()).copy_from_slice(src);
        }
    }

    /// Marks the whole buffer initialised for the sanitizer's stale-read
    /// detector. Called when a map-write guard exposes the full slab to
    /// the host.
    pub(crate) fn mark_all_init(&self) {
        if let Some(sh) = &self.inner.shadow {
            sh.mark_init_range(0, self.inner.len);
        }
    }
}

impl<T: Scalar> BufferInner<T> {
    #[inline]
    pub(crate) fn store(&self, idx: usize, v: T) {
        assert!(idx < self.len, "store out of bounds on {:?}", self.label);
        if let Some(marks) = &self.marks {
            if marks[idx].swap(1, Ordering::Relaxed) == 1 {
                // Record the first race only.
                let _ =
                    self.race
                        .compare_exchange(0, idx + 1, Ordering::Relaxed, Ordering::Relaxed);
            }
        }
        // SAFETY: as above.
        unsafe {
            *(*self.data.0.get()).as_mut_ptr().add(idx) = v;
        }
    }

    /// Bulk host→device copy of `src` into `offset..offset+src.len()`.
    /// Equivalent to a `store` per element (including write-race marking
    /// under validation) but memcpy-speed when no marks are kept.
    pub(crate) fn copy_in(&self, offset: usize, src: &[T]) {
        assert!(
            offset + src.len() <= self.len,
            "copy_in out of bounds on {:?}",
            self.label
        );
        if let Some(sh) = &self.shadow {
            sh.mark_init_range(offset, src.len());
        }
        if self.marks.is_some() {
            for (i, v) in src.iter().enumerate() {
                self.store(offset + i, *v);
            }
            return;
        }
        // SAFETY: bounds asserted above; host-side transfer, no concurrent
        // kernel is running on this buffer per the queue discipline.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                (*self.data.0.get()).as_mut_ptr().add(offset),
                src.len(),
            );
        }
    }

    /// Bulk device→host copy of `offset..offset+dst.len()` into `dst`.
    pub(crate) fn copy_out(&self, offset: usize, dst: &mut [T]) {
        assert!(
            offset + dst.len() <= self.len,
            "copy_out out of bounds on {:?}",
            self.label
        );
        // SAFETY: bounds asserted above; reads never race per the dispatch
        // invariant.
        unsafe {
            std::ptr::copy_nonoverlapping(
                (*self.data.0.get()).as_ptr().add(offset),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Tries to mark the buffer mapped; `false` if already mapped.
    pub(crate) fn try_map(&self) -> bool {
        !self.mapped.swap(true, Ordering::AcqRel)
    }

    /// Clears the mapped flag.
    pub(crate) fn unmap(&self) {
        self.mapped.store(false, Ordering::Release);
    }

    /// Raw slice pointer for map guards. Callers must respect the mapping
    /// discipline enforced by `try_map`.
    pub(crate) fn data_ptr(&self) -> *mut T {
        // SAFETY: pointer derivation only; dereferencing is gated by the
        // map guard.
        unsafe { (*self.data.0.get()).as_mut_ptr() }
    }
}

/// Read-only handle to a buffer, cheap to clone into kernel closures.
///
/// Caches the raw data pointer at creation so the kernel hot path is a
/// single bounds check + load, instead of re-chasing
/// `Arc → UnsafeCell → Box<[T]>` on every element access (the `Box`
/// allocation address is stable for the life of the view's `Arc`).
pub struct GlobalView<T: Scalar> {
    pub(crate) inner: Arc<BufferInner<T>>,
    ptr: *const T,
}

// SAFETY: the pointer targets storage owned by `inner` (kept alive by the
// Arc); cross-thread access follows the same disjoint-writes dispatch
// invariant as `SyncCell`.
unsafe impl<T: Scalar> Send for GlobalView<T> {}
unsafe impl<T: Scalar> Sync for GlobalView<T> {}

impl<T: Scalar> Clone for GlobalView<T> {
    fn clone(&self) -> Self {
        GlobalView {
            inner: Arc::clone(&self.inner),
            ptr: self.ptr,
        }
    }
}

impl<T: Scalar> GlobalView<T> {
    /// Number of elements visible through the view.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Buffer identity for the static access checker.
    pub fn info(&self) -> crate::access::BufRef {
        crate::access::BufRef {
            label: self.inner.label.clone(),
            len: self.inner.len(),
            elem_bytes: std::mem::size_of::<T>() as u64,
        }
    }

    /// True if the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Element read. Like every view accessor it counts nothing: a
    /// dispatch's cost is its declared
    /// [`AccessSummary`](crate::access::AccessSummary).
    #[inline]
    pub fn get_raw(&self, idx: usize) -> T {
        if let Some(sh) = &self.inner.shadow {
            if let Some((e, tag)) = sh.shared.cursor() {
                if idx >= self.inner.len {
                    // Record and recover: the sanitizer keeps collecting
                    // instead of aborting on the first bad access.
                    sh.on_oob(idx, false);
                    return T::default();
                }
                sh.on_read(e, tag, idx);
            }
        }
        assert!(
            idx < self.inner.len,
            "load out of bounds on {:?}",
            self.inner.label
        );
        // SAFETY: bounds asserted; disjoint-writes invariant as per module
        // docs; `ptr` is valid while `inner` is alive.
        unsafe { *self.ptr.add(idx) }
    }

    /// Bulk read of `out.len()` consecutive elements starting at `idx` —
    /// one bounds check for the whole run, so hot kernel loops stay
    /// vectorizable.
    #[inline]
    pub fn read_into(&self, idx: usize, out: &mut [T]) {
        if let Some(sh) = &self.inner.shadow {
            if let Some((e, tag)) = sh.shared.cursor() {
                let valid = sh.span_read(e, tag, idx, out.len());
                if valid < out.len() {
                    // Recover: copy the in-bounds prefix, zero the rest.
                    if valid > 0 {
                        // SAFETY: `idx + valid <= len` by construction.
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                self.ptr.add(idx),
                                out.as_mut_ptr(),
                                valid,
                            );
                        }
                    }
                    out[valid..].fill(T::default());
                    return;
                }
            }
        }
        assert!(
            idx + out.len() <= self.inner.len,
            "bulk load out of bounds on {:?}",
            self.inner.label
        );
        // SAFETY: bounds asserted; reads never race per the dispatch
        // invariant.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(idx), out.as_mut_ptr(), out.len());
        }
    }

    /// Read of four consecutive elements.
    #[inline]
    pub fn get4_raw(&self, idx: usize) -> [T; 4] {
        let mut q = [T::default(); 4];
        self.read_into(idx, &mut q);
        q
    }

    /// Borrow of `len` consecutive elements starting at
    /// `idx`, for span-at-a-time kernel loops (the returned slice borrows
    /// the view, so the storage stays alive). Callers rely on the dispatch
    /// invariant: no work-item writes this buffer while the slice is held.
    #[inline]
    pub fn slice_raw(&self, idx: usize, len: usize) -> &[T] {
        if let Some(sh) = &self.inner.shadow {
            if let Some((e, tag)) = sh.shared.cursor() {
                if sh.span_read(e, tag, idx, len) < len {
                    // Recover with a zeroed stand-in slice. Leaked — only
                    // on the violation path, which the report flags.
                    return Box::leak(vec![T::default(); len].into_boxed_slice());
                }
            }
        }
        assert!(
            idx + len <= self.inner.len,
            "slice out of bounds on {:?}",
            self.inner.label
        );
        // SAFETY: bounds asserted; reads never race per the dispatch
        // invariant.
        unsafe { std::slice::from_raw_parts(self.ptr.add(idx), len) }
    }
}

/// Writable handle to a buffer, cheap to clone into kernel closures.
///
/// Like [`GlobalView`], caches the raw data pointer; stores fall back to
/// the slow path only when the buffer keeps validation marks.
pub struct GlobalWriteView<T: Scalar> {
    pub(crate) inner: Arc<BufferInner<T>>,
    ptr: *mut T,
    validate: bool,
}

// SAFETY: as for `GlobalView`.
unsafe impl<T: Scalar> Send for GlobalWriteView<T> {}
unsafe impl<T: Scalar> Sync for GlobalWriteView<T> {}

impl<T: Scalar> Clone for GlobalWriteView<T> {
    fn clone(&self) -> Self {
        GlobalWriteView {
            inner: Arc::clone(&self.inner),
            ptr: self.ptr,
            validate: self.validate,
        }
    }
}

impl<T: Scalar> GlobalWriteView<T> {
    /// Number of elements visible through the view.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Buffer identity for the static access checker.
    pub fn info(&self) -> crate::access::BufRef {
        crate::access::BufRef {
            label: self.inner.label.clone(),
            len: self.inner.len(),
            elem_bytes: std::mem::size_of::<T>() as u64,
        }
    }

    /// True if the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Element write.
    #[inline]
    pub fn set_raw(&self, idx: usize, v: T) {
        if let Some(sh) = &self.inner.shadow {
            match sh.shared.cursor() {
                Some((e, tag)) => {
                    if idx >= self.inner.len {
                        // Record and recover by dropping the store.
                        sh.on_oob(idx, true);
                        return;
                    }
                    sh.on_write(e, tag, idx);
                }
                // Host-side store outside any dispatch (e.g. the CPU
                // border stage): only feeds the stale-read detector.
                None => {
                    if idx < self.inner.len {
                        sh.mark_init_range(idx, 1);
                    }
                }
            }
        }
        if self.validate {
            self.inner.store(idx, v);
            return;
        }
        assert!(
            idx < self.inner.len,
            "store out of bounds on {:?}",
            self.inner.label
        );
        // SAFETY: bounds asserted; work-items write disjoint elements per
        // the dispatch invariant; `ptr` is valid while `inner` is alive.
        unsafe {
            *self.ptr.add(idx) = v;
        }
    }

    /// Element read from a writable view (used by
    /// read-modify-write stages).
    #[inline]
    pub fn get_raw(&self, idx: usize) -> T {
        if let Some(sh) = &self.inner.shadow {
            if let Some((e, tag)) = sh.shared.cursor() {
                if idx >= self.inner.len {
                    sh.on_oob(idx, false);
                    return T::default();
                }
                // A read through a write view participates in the same
                // conflict tracking: another item's write to this element
                // is a read/write race.
                sh.on_read(e, tag, idx);
            }
        }
        assert!(
            idx < self.inner.len,
            "load out of bounds on {:?}",
            self.inner.label
        );
        // SAFETY: as for `set_raw`.
        unsafe { *self.ptr.add(idx) }
    }

    /// Shadow bookkeeping for a span store. Returns `Some(valid)` when the
    /// sanitizer recorded an out-of-bounds overflow and the caller must
    /// truncate the store to the in-bounds prefix.
    #[inline]
    fn shadow_span_write(&self, idx: usize, n: usize) -> Option<usize> {
        if let Some(sh) = &self.inner.shadow {
            match sh.shared.cursor() {
                Some((e, tag)) => {
                    let valid = sh.span_write(e, tag, idx, n);
                    if valid < n {
                        return Some(valid);
                    }
                }
                None => {
                    if idx + n <= self.inner.len {
                        sh.mark_init_range(idx, n);
                    }
                }
            }
        }
        None
    }

    /// Recovery path for a sanitized out-of-bounds span store: writes only
    /// the in-bounds prefix.
    #[cold]
    fn store_truncated(&self, idx: usize, src: &[T], valid: usize) {
        for (k, v) in src[..valid].iter().enumerate() {
            if self.validate {
                self.inner.store(idx + k, *v);
            } else {
                // SAFETY: `idx + valid <= len` per the shadow bounds check.
                unsafe {
                    *self.ptr.add(idx + k) = *v;
                }
            }
        }
    }

    /// Write of four consecutive elements — one bounds
    /// check. Falls back to per-element stores when validation marks are
    /// kept, so write-race detection still sees every element.
    #[inline]
    pub fn set4_raw(&self, idx: usize, v: [T; 4]) {
        if let Some(valid) = self.shadow_span_write(idx, 4) {
            self.store_truncated(idx, &v, valid);
            return;
        }
        if self.validate {
            for (k, x) in v.into_iter().enumerate() {
                self.inner.store(idx + k, x);
            }
            return;
        }
        assert!(
            idx + 4 <= self.inner.len,
            "bulk store out of bounds on {:?}",
            self.inner.label
        );
        // SAFETY: as for `set_raw`; the four elements belong to this
        // work-item per the dispatch invariant.
        unsafe {
            std::ptr::copy_nonoverlapping(v.as_ptr(), self.ptr.add(idx), 4);
        }
    }

    /// Write of a span of consecutive elements. Like
    /// [`GlobalWriteView::set4_raw`], per-element stores under validation
    /// (so write-race marks stay element-accurate), memcpy otherwise.
    #[inline]
    pub fn set_span_raw(&self, idx: usize, src: &[T]) {
        if let Some(valid) = self.shadow_span_write(idx, src.len()) {
            self.store_truncated(idx, src, valid);
            return;
        }
        if self.validate {
            for (k, v) in src.iter().enumerate() {
                self.inner.store(idx + k, *v);
            }
            return;
        }
        assert!(
            idx + src.len() <= self.inner.len,
            "bulk store out of bounds on {:?}",
            self.inner.label
        );
        // SAFETY: as for `set_raw`; the span belongs to the writing
        // work-items per the dispatch invariant.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(idx), src.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let b: Buffer<f32> = Buffer::new("t", 16, false);
        b.fill_from(&(0..16).map(|i| i as f32).collect::<Vec<_>>());
        let s = b.snapshot();
        assert_eq!(s[3], 3.0);
        assert_eq!(b.len(), 16);
        assert_eq!(b.byte_len(), 64);
        assert_eq!(b.label(), "t");
    }

    #[test]
    fn views_share_storage() {
        let b: Buffer<f32> = Buffer::new("t", 4, false);
        let w = b.write_view();
        let r = b.view();
        w.set_raw(2, 7.5);
        assert_eq!(r.get_raw(2), 7.5);
        assert_eq!(b.snapshot()[2], 7.5);
    }

    #[test]
    fn race_detection_catches_double_write() {
        let b: Buffer<f32> = Buffer::new("t", 8, true);
        b.begin_write_epoch();
        let w = b.write_view();
        w.set_raw(5, 1.0);
        assert_eq!(b.race(), None);
        w.set_raw(5, 2.0);
        assert_eq!(b.race(), Some(5));
        // New epoch clears it.
        b.begin_write_epoch();
        assert_eq!(b.race(), None);
        w.set_raw(5, 3.0);
        assert_eq!(b.race(), None);
    }

    #[test]
    fn no_marks_means_no_race_reports() {
        let b: Buffer<f32> = Buffer::new("t", 8, false);
        let w = b.write_view();
        w.set_raw(1, 1.0);
        w.set_raw(1, 2.0);
        assert_eq!(b.race(), None);
    }

    #[test]
    fn parallel_disjoint_writes_are_clean() {
        let b: Buffer<u32> = Buffer::new("t", 10_000, true);
        b.begin_write_epoch();
        let w = b.write_view();
        crate::par::for_each_index(10_000, 8, |i| {
            w.set_raw(i, i as u32 * 2);
        });
        assert_eq!(b.race(), None);
        let s = b.snapshot();
        assert_eq!(s[1234], 2468);
    }

    #[test]
    fn parallel_racy_writes_are_caught() {
        let b: Buffer<u32> = Buffer::new("t", 4, true);
        b.begin_write_epoch();
        let w = b.write_view();
        crate::par::for_each_index(1000, 8, |i| {
            w.set_raw(i % 4, i as u32);
        });
        assert!(b.race().is_some());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fill_from_length_checked() {
        let b: Buffer<f32> = Buffer::new("t", 4, false);
        b.fill_from(&[1.0; 5]);
    }

    #[test]
    fn clone_is_shallow() {
        let b: Buffer<f32> = Buffer::new("t", 4, false);
        let c = b.clone();
        c.write_view().set_raw(0, 9.0);
        assert_eq!(b.snapshot()[0], 9.0);
    }
}
