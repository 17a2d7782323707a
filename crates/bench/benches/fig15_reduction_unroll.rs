//! Criterion bench for Fig. 15: the three reduction tail strategies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sharpness_bench::w8000;
use sharpness_core::gpu::kernels::reduction::ReductionStrategy;
use sharpness_core::tune::reduction_gpu_model;

fn bench_fig15(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15_reduction_unroll");
    group.sample_size(10);
    let ctx = w8000();
    for (name, strategy) in [
        ("unroll_one", ReductionStrategy::UnrollOne),
        ("unroll_two", ReductionStrategy::UnrollTwo),
        ("no_unroll", ReductionStrategy::NoUnroll),
    ] {
        for n in [256 * 256usize, 1024 * 1024] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                b.iter(|| reduction_gpu_model(ctx.device(), ctx.cpu(), n, strategy, usize::MAX))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig15);
criterion_main!(benches);
