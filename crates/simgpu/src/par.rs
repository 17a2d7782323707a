//! Host-side parallelism for simulated work-group dispatch.
//!
//! The simulator executes work-groups functionally on the host. This
//! module provides the small scoped-thread fan-out used by kernel dispatch
//! ([`crate::queue::CommandQueue::run`]) — a dependency-free replacement for
//! the rayon pool the seed used, which keeps the workspace buildable
//! offline. The indices are the dispatch's units — work-groups, or
//! work-group rows for row-dispatched kernels. Work is handed out in
//! chunks through an atomic cursor so uneven units (reduction tails,
//! border kernels, a ragged last group row) still balance.
//!
//! Parallelism is a per-[`crate::context::Context`] knob: a latency-bound
//! caller uses every host core for one dispatch, while a throughput engine
//! running many simulated frames concurrently pins each frame's dispatches
//! to one thread and parallelises across frames instead.

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
    let threads = threads.clamp(1, total.max(1));
    if threads == 1 {
        (0..total).for_each(f);
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
                (start..(start + chunk).min(total)).for_each(&f);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
}
