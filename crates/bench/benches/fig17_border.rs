//! Criterion bench for Fig. 17: the upscale border on CPU vs GPU around
//! the crossover sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sharpness_bench::{w8000, FIG17_SIZES};
use sharpness_core::tune::{border_cpu_model, border_gpu_model};

fn bench_fig17(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig17_border");
    group.sample_size(10);
    let ctx = w8000();
    for w in FIG17_SIZES {
        group.bench_with_input(BenchmarkId::new("cpu", w), &w, |b, &w| {
            b.iter(|| border_cpu_model(ctx.device(), ctx.cpu(), w, w))
        });
        group.bench_with_input(BenchmarkId::new("gpu", w), &w, |b, &w| {
            b.iter(|| border_gpu_model(ctx.device(), w, w))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig17);
criterion_main!(benches);
