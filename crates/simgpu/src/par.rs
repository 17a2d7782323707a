//! Host-side parallelism for simulated dispatch and transfer copies.
//!
//! The simulator executes work-groups functionally on the host. This
//! module provides the small scoped-thread fan-out the queue uses — a
//! dependency-free replacement for the rayon pool the seed used, which
//! keeps the workspace buildable offline.
//!
//! * [`run_pass`] is the one execution loop of kernel bodies
//!   ([`crate::queue::CommandQueue`]): one or several dispatches ("parts")
//!   over windows of rows. A single window runs each part's units across
//!   the workers, part after part — the run-now dispatch of
//!   [`crate::queue::CommandQueue::run`]. Several windows run as fused
//!   runs: each worker takes a run of consecutive windows and executes
//!   every part's units of one window before the next window, so an
//!   intermediate one part writes is read back by the next part while it
//!   is still in cache.
//! * [`for_each_index`] hands indices out in chunks through an atomic
//!   cursor so uneven units (reduction tails, border kernels, a ragged
//!   last group row) still balance.
//! * [`split_chunks`] / [`split_chunks_mut`] split a transfer copy into
//!   contiguous chunks, one per worker.
//!
//! Parallelism is a per-[`crate::context::Context`] knob: by default the
//! queue uses every host core for kernel bodies and for large copies;
//! tests pin it to compare thread counts.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of workers used when a context does not pin one: the host's
/// available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(i)` for every `i` in `0..total` on up to `threads` workers.
/// Falls back to a plain loop when one worker suffices.
pub fn for_each_index<F>(total: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    for_each_range(total, threads, |r| r.for_each(&f));
}

/// [`for_each_index`] handing each worker whole chunks `start..end` of
/// consecutive indices.
fn for_each_range<F>(total: usize, threads: usize, f: F)
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
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= total {
                    break;
                }
                f(start..(start + chunk).min(total));
            });
        }
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
/// `threads` workers. `map(part, window)` is the part's window→units map;
/// `run(part, units)` executes a contiguous slice of one part's units.
///
/// * One window (or one part of one window): each part's units are
///   spread over the workers, part after part.
/// * Several windows: the windows are cut into runs of
///   `⌈windows / (RUNS_PER_THREAD·threads)⌉` consecutive windows, so
///   every worker gets work even on short frames, and workers take runs
///   from a shared cursor, so a worker the host slows down hands its
///   share to the others. A worker runs its windows in order and, within
///   a window, the parts in order. In the first window of every run but
///   the first, each part's `lag` units are held back — their producers
///   in the previous window belong to another run — and run after all
///   runs join, part by part: one run boundary per worker task when runs
///   span at least two windows (boundaries then share no window), window
///   by window otherwise.
///
/// Every unit of every part runs exactly once.
pub fn run_pass<M, R>(windows: usize, parts: usize, threads: usize, map: M, run: R)
where
    M: Fn(usize, usize) -> WindowUnits + Sync,
    R: Fn(usize, Range<usize>) + Sync,
{
    let threads = threads.max(1);
    if windows <= 1 {
        for p in 0..parts {
            let units = map(p, 0).units;
            for_each_range(units.len(), threads, |r| {
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
    for_each_index(runs, threads, |k| {
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
        for_each_index(runs - 1, threads, |k| held(k + 1));
    } else {
        (1..runs).for_each(held);
    }
}

/// Runs per worker a multi-window pass is cut into: enough that a worker
/// the host preempts leaves little of the pass behind it, few enough that
/// the held-back units at run boundaries stay a small share.
const RUNS_PER_THREAD: usize = 4;

/// Splits `src` into contiguous chunks of `chunk` elements (the last one
/// shorter) and runs `f(offset, chunk)` for each: one scoped thread per
/// chunk beyond the first, which the caller runs itself. A slice that
/// fits one chunk runs inline, starting no thread.
pub(crate) fn split_chunks<T: Sync>(src: &[T], chunk: usize, f: impl Fn(usize, &[T]) + Sync) {
    let chunk = chunk.max(1);
    if src.len() <= chunk {
        f(0, src);
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut chunks = src.chunks(chunk).enumerate();
        let head = chunks.next();
        for (i, c) in chunks {
            scope.spawn(move || f(i * chunk, c));
        }
        if let Some((_, c)) = head {
            f(0, c);
        }
    });
}

/// [`split_chunks`] over a mutable slice: each chunk is handed to exactly
/// one thread.
pub(crate) fn split_chunks_mut<T: Send>(
    dst: &mut [T],
    chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk = chunk.max(1);
    if dst.len() <= chunk {
        f(0, dst);
        return;
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut chunks = dst.chunks_mut(chunk).enumerate();
        let head = chunks.next();
        for (i, c) in chunks {
            scope.spawn(move || f(i * chunk, c));
        }
        if let Some((_, c)) = head {
            f(0, c);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn for_each_visits_every_index_once() {
        for threads in [1, 2, 8] {
            let n = 4096;
            let marks: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            for_each_index(n, threads, |i| {
                marks[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(marks.iter().all(|m| m.load(Ordering::Relaxed) == 1));
        }
        for_each_index(0, 4, |_| panic!("no indices to visit"));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn split_chunks_cover_the_slice_once() {
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
            split_chunks(&src, chunk, |off, c| {
                assert!(c.iter().enumerate().all(|(i, &v)| v == off + i));
                seen.lock().unwrap().extend_from_slice(c);
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, src, "{len} by {chunk}");

            let mut dst = vec![0usize; len];
            split_chunks_mut(&mut dst, chunk, |off, c| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = off + i;
                }
            });
            assert_eq!(dst, src, "{len} by {chunk}");
        }
    }
}
