//! A context's dispatch pool starts its workers on the first pass that
//! needs them and joins them when the last handle drops: creating a
//! context, running a 2-thread frame and dropping it, 32 times over, must
//! leave the process with the threads it started with.
//!
//! The count is the `Threads:` line of `/proc/self/status`, so this file
//! holds one test: nothing else starts or ends a thread while it counts.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use sharpness::prelude::*;

/// The process's thread count.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs is mounted on Linux")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Polls until the thread count is `want`: a joined thread has finished,
/// but the kernel may drop it from the count a moment after.
fn settles_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads();
        if now == want || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn dropping_a_context_joins_its_pool_workers() {
    let img = generate::natural(256, 256, 5);
    let before = threads();
    for round in 0..32 {
        let ctx = Context::new(DeviceSpec::firepro_w8000()).with_dispatch_threads(2);
        assert_eq!(
            threads(),
            before,
            "round {round}: a new context starts nothing"
        );
        let pipe = GpuPipeline::new(ctx, SharpnessParams::default(), OptConfig::all());
        pipe.run(&img).unwrap();
        assert_eq!(
            threads(),
            before + 1,
            "round {round}: one worker while alive"
        );
        drop(pipe);
        assert_eq!(settles_at(before), before, "round {round}: worker joined");
    }
}
