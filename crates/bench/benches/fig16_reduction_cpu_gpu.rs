//! Criterion bench for Fig. 16: reduction on CPU (with the pEdge
//! transfer) vs the two-stage GPU reduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sharpness_bench::w8000;
use sharpness_core::gpu::kernels::reduction::ReductionStrategy;
use sharpness_core::tune::{reduction_cpu_model, reduction_gpu_model};

fn bench_fig16(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_reduction_cpu_gpu");
    group.sample_size(10);
    let ctx = w8000();
    for n in [256 * 256usize, 1024 * 1024] {
        group.bench_with_input(BenchmarkId::new("cpu", n), &n, |b, &n| {
            b.iter(|| reduction_cpu_model(ctx.device(), ctx.cpu(), n))
        });
        group.bench_with_input(BenchmarkId::new("gpu", n), &n, |b, &n| {
            b.iter(|| {
                reduction_gpu_model(
                    ctx.device(),
                    ctx.cpu(),
                    n,
                    ReductionStrategy::UnrollOne,
                    4096,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig16);
criterion_main!(benches);
