//! Steady-state frames of a prepared plan allocate no per-pass scratch:
//! the dispatch pool's workers are persistent, so each keeps its
//! thread-local `up`-row scratch from one pass to the next.
//!
//! A counting global allocator counts allocations of at least
//! [`LARGE`] bytes. This file holds one test, so nothing else allocates
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sharpness::core::{GpuPipeline, OptConfig, SharpnessParams};
use sharpness::imagekit::generate;
use sharpness::simgpu::context::Context;
use sharpness::simgpu::device::DeviceSpec;

/// Allocations this large or larger are counted.
const LARGE: usize = 64 << 10;

/// Allocations (and growing reallocations) of at least [`LARGE`] bytes.
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn steady_state_frames_allocate_no_large_scratch() {
    for (w, h) in [(1024, 1024), (1001, 701)] {
        let img = generate::natural(w, h, 2015);
        let mut plan = GpuPipeline::new(
            Context::new(DeviceSpec::firepro_w8000()).with_dispatch_threads(2),
            SharpnessParams::default(),
            OptConfig::all(),
        )
        .prepared(w, h)
        .unwrap();
        let mut out = vec![0.0f32; w * h];
        for _ in 0..2 {
            plan.run_into(&img, &mut out).unwrap();
        }
        for frame in 0..4 {
            let before = LARGE_ALLOCS.load(Ordering::Relaxed);
            plan.run_into(&img, &mut out).unwrap();
            let large = LARGE_ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(
                large, 0,
                "{w}x{h} frame {frame}: allocations of 64 KiB or more"
            );
        }
    }
}
