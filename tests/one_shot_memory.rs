//! A one-shot, unpooled `GpuPipeline::run` — the CLI's call — must fault
//! in fewer host bytes than the frame program's device buffer list. The
//! sharpening pass writes the output image itself, so no `final` plane is
//! allocated besides it; with the border on the device each unit rebuilds
//! its `up` rows, so no `up` plane is either; and stage 1 and the tail
//! rebuild their Sobel rows, so there is no `pEdge` plane.
//!
//! A counting global allocator measures every byte the call allocates.
//! This file holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sharpness::core::memory::device_bytes_required;
use sharpness::core::{GpuPipeline, OptConfig, SharpnessParams};
use sharpness::imagekit::generate;
use sharpness::simgpu::context::Context;
use sharpness::simgpu::device::DeviceSpec;

/// Bytes allocated so far (growth of a reallocation included).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn one_shot_run_allocates_less_than_the_buffer_list() {
    let (w, h) = (1024, 1024);
    let img = generate::natural(w, h, 2015).to_u8();
    let opts = OptConfig::all();
    let listed = device_bytes_required(w, h, &opts);
    let pipe = GpuPipeline::new(
        Context::new(DeviceSpec::firepro_w8000()).with_pooling(false),
        SharpnessParams::default(),
        opts,
    );
    let before = ALLOCATED.load(Ordering::Relaxed);
    let report = pipe.run(&img).unwrap();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    assert_eq!(report.output.pixels().len(), w * h);
    // The output image stands in for `final`, and neither `up` nor
    // `pEdge` is allocated: the run stays below the list by more than one
    // plane (a build that kept `pEdge` sits less than one plane below it).
    let plane = (w * h * 4) as u64;
    assert!(
        allocated + plane < listed,
        "allocated {allocated} B, the buffer list {listed} B, a plane {plane} B"
    );
}
