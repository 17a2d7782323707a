//! Host-side parallelism for simulated dispatch and transfer copies.
//!
//! The simulator executes work-groups functionally on the host. Each
//! [`crate::context::Context`] owns one [`DispatchPool`] of parked worker
//! threads, shared by its clones and its queues; the thread that calls a
//! pass works too, so a pass on `threads` threads wakes at most
//! `threads − 1` workers. The workers start the first time a pass or a
//! copy asks for them — a context that never runs in parallel starts no
//! thread — and the last handle to drop joins them. A worker that finishes
//! a job spins briefly for the next one, then parks.
//!
//! Every job here is a loop over an atomic cursor, so it completes with any
//! number of participants: a worker that is busy (another caller thread
//! holds the pool) or asleep simply leaves its share to the caller, and a
//! pass the pool cannot take runs inline. Nothing waits for a worker that
//! has not joined, so no pass can deadlock on the pool.
//!
//! * [`run_pass`] is the one execution loop of kernel bodies
//!   ([`crate::queue::CommandQueue`]): one or several dispatches ("parts")
//!   over windows of rows. A single window runs each part's units across
//!   the threads, part after part — the run-now dispatch of
//!   [`crate::queue::CommandQueue::run`]. Several windows run as fused
//!   runs: each thread takes a run of consecutive windows and executes
//!   every part's units of one window before the next window, so an
//!   intermediate one part writes is read back by the next part while it
//!   is still in cache.
//! * [`for_each_index`] hands indices out in chunks through an atomic
//!   cursor so uneven units (reduction tails, border kernels, a ragged
//!   last group row) still balance.
//! * [`split_chunks`] / [`split_chunks_mut`] split a transfer copy into
//!   contiguous chunks, one per thread.
//!
//! Parallelism is a per-context knob: by default the queue uses every
//! host core for kernel bodies and for large copies; tests pin it to
//! compare thread counts. Up to [`PASS_GRAIN_ELEMS`] a pass runs on the
//! calling thread alone.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Number of threads used when a context does not pin one: the host's
/// available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Frame elements up to which a pass runs on the calling thread alone:
/// the largest [`crate::kernel::KernelDesc::total_elems`] among the pass's
/// parts is compared with it, so a scalar kernel reaches it at the same
/// frame size as its vec4 twin. Up to it, handing a worker a share costs
/// more than the share: the sweep in EXPERIMENTS.md ("Dispatch pool")
/// found a 64² frame 1.39× slower on two threads than on one without a
/// grain, while 128² frames (16 Ki elements) ran 1.26× faster; 96² and
/// 128×96 frames (at most 12 Ki elements a pass) stay inline.
pub const PASS_GRAIN_ELEMS: usize = 12 << 10;

/// Threads a pass runs on whose largest part covers `elems` frame
/// elements, on a context of `threads` dispatch threads: the caller alone
/// up to [`PASS_GRAIN_ELEMS`].
pub fn pass_threads(elems: usize, threads: usize) -> usize {
    if elems <= PASS_GRAIN_ELEMS {
        1
    } else {
        threads
    }
}

/// How long a worker that finished a job spins for the next one before
/// it parks: long enough to span the host bookkeeping between the passes
/// of one frame, short enough that an idle context gives its core back.
const SPIN: Duration = Duration::from_micros(100);

/// A job as the workers see it: a borrowed closure every participant
/// calls once. The caller keeps it alive until every worker that joined
/// has returned from it.
type JobRef<'a> = &'a (dyn Fn() + Sync + 'a);

/// Bits of [`Shared::state`] holding the open job's free worker slots;
/// the job generation sits above them.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// What the caller and the workers share.
struct Shared {
    /// `generation << SLOT_BITS | slots`: the generation counts published
    /// jobs; `slots` is how many more workers may join the current one (0
    /// once the caller closes it). A worker joins by decrementing `slots`
    /// of the generation it saw, so it can never join a later job by
    /// mistake.
    state: AtomicU64,
    /// The current job, published before `state` (Release) and read by a
    /// worker after its join (Acquire) — the `state` pair orders it.
    job: AtomicPtr<JobRef<'static>>,
    /// Workers that have returned from the current job.
    finished: AtomicUsize,
    /// The first panic a worker caught in the current job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Held by the caller that owns the pool for one job; a second caller
    /// that finds it set runs its job inline.
    busy: AtomicBool,
    /// Parked workers, and the lock and condvar they park on.
    sleepers: AtomicUsize,
    park: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// The persistent worker threads behind a context's passes and copies (see
/// the module docs). Dropping it joins the workers.
pub(crate) struct DispatchPool {
    shared: Arc<Shared>,
    /// The started workers; grown on demand, never shrunk.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// `workers.len()`, readable without the lock.
    started: AtomicUsize,
}

impl DispatchPool {
    /// A pool with no worker started yet.
    pub(crate) fn new() -> Self {
        DispatchPool {
            shared: Arc::new(Shared {
                state: AtomicU64::new(0),
                job: AtomicPtr::new(std::ptr::null_mut()),
                finished: AtomicUsize::new(0),
                panic: Mutex::new(None),
                busy: AtomicBool::new(false),
                sleepers: AtomicUsize::new(0),
                park: Mutex::new(()),
                wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            workers: Mutex::new(Vec::new()),
            started: AtomicUsize::new(0),
        }
    }

    /// Workers started so far.
    #[cfg(test)]
    fn workers(&self) -> usize {
        self.started.load(Ordering::Relaxed)
    }

    /// Calls `job` on the calling thread and on up to `threads − 1` pool
    /// workers at once, and returns once every call has returned. `job`
    /// must finish the work with any number of participants from one up:
    /// a worker that is busy or asleep leaves its share to the caller, and
    /// a pool another caller holds runs the job on this thread alone. A
    /// panic in any participant is resumed here after all have returned.
    pub(crate) fn broadcast(&self, threads: usize, job: &(dyn Fn() + Sync)) {
        let helpers = threads.saturating_sub(1).min(SLOT_MASK as usize);
        if helpers == 0 || self.shared.busy.swap(true, Ordering::Acquire) {
            job();
            return;
        }
        self.start_workers(helpers);
        let job_ref: JobRef<'_> = job;
        let open = Open::publish(&self.shared, &job_ref, helpers);
        job();
        if let Some(payload) = open.close() {
            panic::resume_unwind(payload);
        }
    }

    /// Starts workers until `n` exist. A thread the host refuses is left
    /// out: the caller covers its share.
    fn start_workers(&self, n: usize) {
        if self.started.load(Ordering::Relaxed) >= n {
            return;
        }
        let mut workers = self
            .workers
            .lock()
            .expect("no code panics holding the worker list");
        while workers.len() < n {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("simgpu-dispatch".into())
                .spawn(move || worker(&shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(_) => break,
            }
        }
        self.started.store(workers.len(), Ordering::Relaxed);
    }
}

impl Drop for DispatchPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _parked = self.shared.park.lock();
            self.shared.wake.notify_all();
        }
        let workers = match self.workers.get_mut() {
            Ok(w) => std::mem::take(w),
            Err(poisoned) => std::mem::take(poisoned.into_inner()),
        };
        for handle in workers {
            // A worker catches every job panic, so a join error would be a
            // bug in the loop itself; there is nothing to hand it to here.
            let _ = handle.join();
        }
    }
}

/// A published job. Closing it — explicitly, or by the drop while the
/// caller's own share unwinds — stops further joins, waits for the
/// workers that joined, and hands the pool back.
struct Open<'p> {
    shared: &'p Shared,
    slots: u64,
    closed: bool,
}

impl<'p> Open<'p> {
    /// Publishes `job` to up to `slots` workers. The caller keeps `job`
    /// alive until the returned handle is closed or dropped.
    fn publish(shared: &'p Shared, job: &JobRef<'_>, slots: usize) -> Open<'p> {
        let ptr = job as *const JobRef<'_> as *mut JobRef<'static>;
        shared.job.store(ptr, Ordering::Relaxed);
        shared.finished.store(0, Ordering::Relaxed);
        let generation = (shared.state.load(Ordering::Relaxed) >> SLOT_BITS) + 1;
        // SeqCst pairs with the parking worker's `sleepers` increment and
        // state re-check: either it sees this job or we see it asleep.
        // It also releases `job` and `finished` to the worker that joins.
        shared
            .state
            .store(generation << SLOT_BITS | slots as u64, Ordering::SeqCst);
        if shared.sleepers.load(Ordering::SeqCst) > 0 {
            let _parked = shared.park.lock();
            shared.wake.notify_all();
        }
        Open {
            shared,
            slots: slots as u64,
            closed: false,
        }
    }

    /// Closes the job and returns the first panic a worker caught.
    fn close(mut self) -> Option<Box<dyn Any + Send>> {
        self.finish()
    }

    fn finish(&mut self) -> Option<Box<dyn Any + Send>> {
        self.closed = true;
        let shared = self.shared;
        let before = shared.state.fetch_and(!SLOT_MASK, Ordering::AcqRel);
        let joined = (self.slots - (before & SLOT_MASK)) as usize;
        let mut spins = 0u32;
        // Acquire pairs with each worker's Release increment: what the
        // workers wrote in the job is visible once they are all counted.
        while shared.finished.load(Ordering::Acquire) < joined {
            if spins < 1 << 10 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        shared.job.store(std::ptr::null_mut(), Ordering::Relaxed);
        let payload = match shared.panic.lock() {
            Ok(mut p) => p.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        shared.busy.store(false, Ordering::Release);
        payload
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if !self.closed {
            // The caller's share is unwinding; its panic wins.
            drop(self.finish());
        }
    }
}

/// A worker's loop: wait for a job newer than the last one seen, join it
/// if a slot is free, run it, count itself finished.
fn worker(shared: &Shared) {
    let mut seen = 0u64;
    while let Some(state) = next_job(shared, seen) {
        seen = state >> SLOT_BITS;
        let mut current = state;
        let joined = loop {
            if current >> SLOT_BITS != seen || current & SLOT_MASK == 0 {
                break false;
            }
            match shared.state.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break true,
                Err(now) => current = now,
            }
        };
        if !joined {
            continue;
        }
        let ptr = shared.job.load(Ordering::Relaxed);
        // SAFETY: the join succeeded on the generation the pointer was
        // published for (the Acquire above orders the load after the
        // caller's store), and the caller does not return from
        // `broadcast` — so the closure stays alive — until this worker
        // has incremented `finished` below.
        let job: JobRef<'_> = unsafe { *ptr };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
            if let Ok(mut first) = shared.panic.lock() {
                first.get_or_insert(payload);
            }
        }
        shared.finished.fetch_add(1, Ordering::Release);
    }
}

/// Waits for a generation other than `seen`, spinning for [`SPIN`] and
/// then parking. Returns the state that carries it, or `None` on
/// shutdown.
fn next_job(shared: &Shared, seen: u64) -> Option<u64> {
    let fresh = |s: u64| s >> SLOT_BITS != seen;
    let start = Instant::now();
    let mut spins = 0u32;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let s = shared.state.load(Ordering::Acquire);
        if fresh(s) {
            return Some(s);
        }
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(64) && start.elapsed() >= SPIN {
            break;
        }
        std::hint::spin_loop();
    }
    let mut parked = shared
        .park
        .lock()
        .expect("no code panics holding the park lock");
    shared.sleepers.fetch_add(1, Ordering::SeqCst);
    let state = loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break None;
        }
        let s = shared.state.load(Ordering::SeqCst);
        if fresh(s) {
            break Some(s);
        }
        parked = shared
            .wake
            .wait(parked)
            .expect("no code panics holding the park lock");
    };
    shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    state
}

/// Runs `f(i)` for every `i` in `0..total` on up to `threads` threads of
/// `pool`, the caller included. Runs inline when one thread suffices.
pub(crate) fn for_each_index<F>(pool: &DispatchPool, total: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    for_each_range(pool, total, threads, |r| r.for_each(&f));
}

/// [`for_each_index`] handing each thread whole chunks `start..end` of
/// consecutive indices.
fn for_each_range<F>(pool: &DispatchPool, total: usize, threads: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let threads = threads.clamp(1, total.max(1));
    if threads == 1 {
        f(0..total);
        return;
    }
    // Chunked work-stealing: large enough chunks to amortise the atomic,
    // small enough that a slow chunk cannot serialise the dispatch.
    let chunk = (total / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    pool.broadcast(threads, &|| loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= total {
            break;
        }
        f(start..(start + chunk).min(total));
    });
}

/// The units of one part that run in one window of a pass, from the
/// part's window→units map.
///
/// `units` are the part's units (work-groups or group rows) assigned to
/// the window. The first `lag` of them may read what earlier parts wrote
/// in the previous window, or what an earlier part's lag units wrote in
/// this one. Every other unit of window `w` reads only what the non-lag
/// units of earlier parts wrote in window `w`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowUnits {
    /// The part's units assigned to the window.
    pub units: Range<usize>,
    /// How many leading units of `units` depend on the previous window.
    pub lag: usize,
}

impl WindowUnits {
    /// Every unit of a dispatch in a single window (the ranges are clamped
    /// to the dispatch's unit count when the pass runs).
    pub(crate) fn whole(_window: usize) -> WindowUnits {
        WindowUnits {
            units: 0..usize::MAX,
            lag: 0,
        }
    }
}

/// Runs a pass of `parts` dispatches over `windows` row windows on up to
/// `threads` threads of `pool`, the caller included. `map(part, window)`
/// is the part's window→units map; `run(part, units)` executes a
/// contiguous slice of one part's units.
///
/// * One window (or one part of one window): each part's units are
///   spread over the threads, part after part.
/// * Several windows: the windows are cut into runs of
///   `⌈windows / (RUNS_PER_THREAD·threads)⌉` consecutive windows, so
///   every thread gets work even on short frames, and threads take runs
///   from a shared cursor, so a thread the host slows down hands its
///   share to the others. A thread runs its windows in order and, within
///   a window, the parts in order. In the first window of every run but
///   the first, each part's `lag` units are held back — their producers
///   in the previous window belong to another run — and run after every
///   run has finished, part by part: one run boundary per task when runs
///   span at least two windows (boundaries then share no window), window
///   by window otherwise.
///
/// Every unit of every part runs exactly once.
pub(crate) fn run_pass<M, R>(
    pool: &DispatchPool,
    windows: usize,
    parts: usize,
    threads: usize,
    map: M,
    run: R,
) where
    M: Fn(usize, usize) -> WindowUnits + Sync,
    R: Fn(usize, Range<usize>) + Sync,
{
    let threads = threads.max(1);
    if windows <= 1 {
        for p in 0..parts {
            let units = map(p, 0).units;
            for_each_range(pool, units.len(), threads, |r| {
                run(p, units.start + r.start..units.start + r.end)
            });
        }
        return;
    }
    let run_len = if threads == 1 {
        windows
    } else {
        windows.div_ceil(RUNS_PER_THREAD * threads)
    };
    let runs = windows.div_ceil(run_len);
    for_each_index(pool, runs, threads, |k| {
        let first = k * run_len;
        for w in first..(first + run_len).min(windows) {
            for p in 0..parts {
                let WindowUnits { units, lag } = map(p, w);
                let held = if w == first && k > 0 { lag } else { 0 };
                run(p, (units.start + held).min(units.end)..units.end);
            }
        }
    });
    let held = |k: usize| {
        for p in 0..parts {
            let WindowUnits { units, lag } = map(p, k * run_len);
            run(p, units.start..(units.start + lag).min(units.end));
        }
    };
    if run_len >= 2 {
        for_each_index(pool, runs - 1, threads, |k| held(k + 1));
    } else {
        (1..runs).for_each(held);
    }
}

/// Runs per thread a multi-window pass is cut into: enough that a thread
/// the host preempts leaves little of the pass behind it, few enough that
/// the held-back units at run boundaries stay a small share.
const RUNS_PER_THREAD: usize = 4;

/// Splits `src` into contiguous chunks of `chunk` elements (the last one
/// shorter) and runs `f(offset, chunk)` for each on the threads of
/// `pool`, the caller included. A slice that fits one chunk runs inline.
pub(crate) fn split_chunks<T: Sync>(
    pool: &DispatchPool,
    src: &[T],
    chunk: usize,
    f: impl Fn(usize, &[T]) + Sync,
) {
    let chunk = chunk.max(1);
    let n = src.len().div_ceil(chunk);
    for_each_index(pool, n, n, |i| {
        let off = i * chunk;
        f(off, &src[off..(off + chunk).min(src.len())]);
    });
}

/// [`split_chunks`] over a mutable slice: each chunk is handed to exactly
/// one thread.
pub(crate) fn split_chunks_mut<T: Send>(
    pool: &DispatchPool,
    dst: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk = chunk.max(1);
    let len = dst.len();
    let n = len.div_ceil(chunk);
    let base = SendPtr(dst.as_mut_ptr());
    for_each_index(pool, n, n, |i| {
        let off = i * chunk;
        let end = (off + chunk).min(len);
        // SAFETY: `for_each_index` visits every `i < n` exactly once, so
        // the ranges `off..end` handed out are disjoint and lie inside
        // `dst`, which stays mutably borrowed until every call returns.
        let c = unsafe { std::slice::from_raw_parts_mut(base.get().add(off), end - off) };
        f(off, c);
    });
}

/// A raw pointer into a slice whose disjoint chunks go to different
/// threads.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced by `split_chunks_mut`, which
// hands each element to one thread (`T: Send`) while the slice it came
// from stays borrowed.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[test]
    fn for_each_visits_every_index_once() {
        let pool = DispatchPool::new();
        for threads in [1, 2, 8] {
            let n = 4096;
            let marks: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            for_each_index(&pool, n, threads, |i| {
                marks[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
        }
        for_each_index(&pool, 0, 4, |_| panic!("no indices to visit"));
        assert_eq!(pool.workers(), 7, "started for 8 threads, never shrunk");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn a_pool_starts_no_worker_until_a_job_needs_one() {
        let pool = DispatchPool::new();
        assert_eq!(pool.workers(), 0);
        for_each_index(&pool, 100, 1, |_| {});
        assert_eq!(pool.workers(), 0, "one thread runs inline");
        for_each_index(&pool, 100, 3, |_| {});
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn workers_join_the_caller_and_are_reused() {
        // Both participants must reach the barrier, so the job cannot
        // finish unless a worker joined the caller; ten rounds reuse it.
        let pool = DispatchPool::new();
        for _ in 0..10 {
            let barrier = Barrier::new(2);
            let ids = Mutex::new(Vec::new());
            for_each_index(&pool, 2, 2, |_| {
                ids.lock().unwrap().push(std::thread::current().id());
                barrier.wait();
            });
            let ids = ids.into_inner().unwrap();
            assert_eq!(ids.len(), 2);
            assert_ne!(ids[0], ids[1]);
        }
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_keeps_serving() {
        let pool = DispatchPool::new();
        let barrier = Barrier::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            for_each_index(&pool, 2, 2, |i| {
                barrier.wait();
                if std::thread::current().name() == Some("simgpu-dispatch") {
                    panic!("worker {i} failed");
                }
            });
        }))
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().expect("formatted message");
        assert!(msg.starts_with("worker "), "{msg}");
        let sum = AtomicUsize::new(0);
        for_each_index(&pool, 1000, 2, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 999 * 1000 / 2);
    }

    #[test]
    fn a_second_caller_runs_inline_while_the_pool_is_held() {
        // The outer job holds the pool while its caller's share starts a
        // nested job: that one finds the pool busy and runs on the caller.
        let pool = DispatchPool::new();
        let inner = AtomicUsize::new(0);
        for_each_index(&pool, 1, 1, |_| {});
        let outer = |_| {
            for_each_index(&pool, 64, 2, |_| {
                inner.fetch_add(1, Ordering::Relaxed);
            })
        };
        for_each_index(&pool, 4, 2, outer);
        assert_eq!(inner.into_inner(), 4 * 64);
    }

    #[test]
    fn split_chunks_cover_the_slice_once() {
        let pool = DispatchPool::new();
        for (len, chunk) in [
            (0usize, 2usize),
            (1, 3),
            (10, 3),
            (4096, 2048),
            (7, 1),
            (9, 0),
        ] {
            let src: Vec<usize> = (0..len).collect();
            let seen = Mutex::new(Vec::new());
            split_chunks(&pool, &src, chunk, |off, c| {
                assert!(c.iter().enumerate().all(|(i, &v)| v == off + i));
                seen.lock().unwrap().extend_from_slice(c);
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, src, "{len} by {chunk}");

            let mut dst = vec![0usize; len];
            split_chunks_mut(&pool, &mut dst, chunk, |off, c| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = off + i;
                }
            });
            assert_eq!(dst, src, "{len} by {chunk}");
        }
    }
}
