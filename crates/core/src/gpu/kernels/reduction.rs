//! Two-stage GPU reduction (Section V-C, paper Figs. 9–10 and
//! Algorithms 1–2).
//!
//! Stage 1 splits the pEdge matrix across work-groups; each group
//! tree-reduces in local memory after an add-during-load pass (each
//! thread sums [`ELEMS_PER_THREAD`] strided elements — "first adding
//! during load" from Harris \[16\]) and writes one partial sum. The tail of
//! the tree runs in one of three strategies:
//!
//! * [`ReductionStrategy::NoUnroll`] — textbook tree, one barrier per step;
//! * [`ReductionStrategy::UnrollOne`] — Algorithm 1: one barrier, then the
//!   last wavefront finishes lock-step without barriers (the paper's
//!   winner);
//! * [`ReductionStrategy::UnrollTwo`] — Algorithm 2: both wavefronts
//!   reduce a half each, then one extra barrier and a final add (slightly
//!   slower: "unrolling the last two wavefronts increases the overhead of
//!   synchronization").
//!
//! Stage 2 sums the partials — on the host (small counts) or with a
//! second one-group kernel (large counts); the pipeline picks by a tuned
//! threshold, as the paper does ("the usage of GPU is determined by the
//! amount of data, and the critical value is tested in advance").

use simgpu::access::{AccessSummary, AccessWindow, BufRef};
use simgpu::buffer::{Buffer, GlobalView};
use simgpu::cost::OpCounts;
use simgpu::kernel::{GroupCtx, KernelDesc};
use simgpu::par::WindowUnits;

use super::sobel::sobel_row;
use super::{RowWindows, SrcImage};

/// Work-group size of the reduction kernels (two 64-lane wavefronts).
pub const RED_GROUP: usize = 128;
/// Elements each thread accumulates during load.
pub const ELEMS_PER_THREAD: usize = 8;
/// Elements consumed per work-group in stage 1.
pub const ELEMS_PER_GROUP: usize = RED_GROUP * ELEMS_PER_THREAD;

/// Tail strategy for the in-group tree reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionStrategy {
    /// Full tree with a barrier after every step.
    NoUnroll,
    /// Unroll the last wavefront (paper Algorithm 1) — the default.
    #[default]
    UnrollOne,
    /// Unroll the last two wavefronts (paper Algorithm 2).
    UnrollTwo,
}

/// Number of stage-1 work-groups (= partial sums) for `n` input elements.
pub fn stage1_groups(n: usize) -> usize {
    n.div_ceil(ELEMS_PER_GROUP)
}

/// Closed-form access summary of a stage-1 dispatch over a flat group
/// range: full groups read their [`ELEMS_PER_GROUP`]-element span
/// contiguously (8 scalar loads per thread), the ragged last group loads
/// each of its existing elements exactly once, and every group stores its
/// one partial sum. The charge is exact, so the ratio stays 1.
///
/// Every group, full or ragged, costs the same work: the add-during-load
/// pass charges its full per-thread recipe unconditionally (128 threads ×
/// (8 adds + 8 cmps + 1 mul)) plus 127 tree adds, and the tree's
/// barriers, divergence and LDS traffic depend only on the strategy.
pub(crate) fn stage1_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    src: &BufRef,
    partials: &BufRef,
    n: usize,
    strategy: ReductionStrategy,
) -> AccessSummary {
    let mut s = AccessSummary::new(desc, groups.clone());
    if groups.is_empty() {
        return s;
    }
    let ng = groups.len() as u64;
    let (barriers, divergent, local) = match strategy {
        // Load barrier + one per tree step (64..1).
        ReductionStrategy::NoUnroll => (8, 0, 2040),
        // Load barrier only; the last wavefront diverges lock-step.
        ReductionStrategy::UnrollOne => (1, 6, 2040),
        // Load barrier + the halves-combining barrier; both wavefronts
        // diverge through their half-trees.
        ReductionStrategy::UnrollTwo => (2, 12, 2032),
    };
    let c = &mut s.charged;
    c.charge_ops_n(&OpCounts::ZERO.adds(1151).cmps(1024).muls(128), ng);
    c.barriers += barriers * ng;
    c.divergent_branches += divergent * ng;
    c.local_bytes += local * ng;
    c.local_alloc_bytes = 4 * RED_GROUP as u64;
    let full = n / ELEMS_PER_GROUP;
    let nf = groups.end.min(full).saturating_sub(groups.start);
    if nf > 0 {
        s.push(
            AccessWindow::read(src.clone(), groups.start * ELEMS_PER_GROUP, ELEMS_PER_GROUP)
                .by_x(nf, ELEMS_PER_GROUP),
        );
        s.charge_global_n(
            4 * ELEMS_PER_THREAD as u64,
            0,
            0,
            0,
            (nf * RED_GROUP) as u64,
        );
    }
    for g in groups.start.max(full)..groups.end {
        let base = g * ELEMS_PER_GROUP;
        let elems = n.saturating_sub(base);
        s.push(AccessWindow::read(src.clone(), base, elems));
        s.charge_global_n(4, 0, 0, 0, elems as u64);
    }
    s.push(AccessWindow::write(
        partials.clone(),
        groups.start,
        groups.len(),
    ));
    s.charge_global_n(0, 0, 4, 0, groups.len() as u64);
    s
}

/// Window→units map of a whole-matrix stage-1 dispatch in a fused pass
/// over the `ws`-strided pEdge matrix of `ns` elements: a group belongs to
/// the window that holds its last element, so it runs once Sobel has
/// written all of it. Groups are 1024 elements long and windows at least
/// as many (see [`RowWindows::pass_a`]), so a group reaches at most one
/// window back; only a window's first group can, when a window boundary
/// cuts it (ragged strides such as 1004). That group is the lag unit.
pub(crate) fn stage1_window(win: &RowWindows, ws: usize, ns: usize, w: usize) -> WindowUnits {
    let groups = stage1_groups(ns);
    // First group whose last element lies at or after window `w`'s first
    // element: the group holding that element.
    let first = |w: usize| {
        if w >= win.count {
            groups
        } else {
            (w * win.rows * ws / ELEMS_PER_GROUP).min(groups)
        }
    };
    let units = first(w)..first(w + 1);
    let cut = w > 0 && units.start * ELEMS_PER_GROUP < w * win.rows * ws;
    WindowUnits {
        lag: usize::from(cut && !units.is_empty()),
        units,
    }
}

/// The stage-1 dispatch descriptor for `n` input elements.
pub(crate) fn stage1_desc(n: usize, strategy: ReductionStrategy) -> KernelDesc {
    let name = match strategy {
        ReductionStrategy::NoUnroll => "reduction_stage1",
        ReductionStrategy::UnrollOne => "reduction_stage1_unroll1",
        ReductionStrategy::UnrollTwo => "reduction_stage1_unroll2",
    };
    KernelDesc::new_1d(name, stage1_groups(n) * RED_GROUP, RED_GROUP)
}

/// The stage-2 dispatch descriptor (one `RED_GROUP`-wide work-group).
pub(crate) fn stage2_desc() -> KernelDesc {
    KernelDesc::new_1d("reduction_stage2", RED_GROUP, RED_GROUP)
}

/// The stage-1 kernel body: one work-group tree-reduces its
/// `ELEMS_PER_GROUP` elements of `src[0..n]` to one partial sum.
pub(crate) fn stage1_body(
    src: &GlobalView<f32>,
    partials: &Buffer<f32>,
    n: usize,
    strategy: ReductionStrategy,
) -> impl Fn(&mut GroupCtx) + Send + Sync + 'static {
    let src = src.clone();
    let out = partials.write_view();
    move |g| {
        g.alloc_local(RED_GROUP);
        let base = g.group_id[0] * ELEMS_PER_GROUP;
        // Add-during-load: strided, coalesced accesses. For a full group
        // the pass runs k-major — stride `k` touches the contiguous span
        // `base + k*RED_GROUP ..+RED_GROUP` (one element per lid), so the
        // host loop is branch-free and autovectorizes. Each lid still
        // accumulates its 8 elements in identical k-order, so the partial
        // sums are bit-identical to the lid-major form.
        if base + ELEMS_PER_GROUP <= n {
            // The span loads are attributed to lane 0 — global reads never
            // conflict with each other, so one-lane attribution is safe.
            g.begin_item([0, 0]);
            let mut sums = [0.0f32; RED_GROUP];
            for k in 0..ELEMS_PER_THREAD {
                let row = src.slice_raw(base + k * RED_GROUP, RED_GROUP);
                super::simd::add_assign_span(&mut sums, row);
            }
            for (lid, &s) in sums.iter().enumerate() {
                g.begin_item([lid, 0]);
                g.local_write(lid, s);
            }
        } else {
            for lid in 0..RED_GROUP {
                g.begin_item([lid, 0]);
                let mut s = 0.0f32;
                for k in 0..ELEMS_PER_THREAD {
                    let idx = base + k * RED_GROUP + lid;
                    if idx < n {
                        s += src.get_raw(idx);
                    }
                }
                g.local_write(lid, s);
            }
        }
        g.barrier();
        let tree_step = |g: &mut simgpu::kernel::GroupCtx, lo: usize, step: usize| {
            for lid in lo..lo + step {
                g.begin_item([lid, 0]);
                let a = g.local_read(lid);
                let b = g.local_read(lid + step);
                g.local_write(lid, a + b);
            }
        };
        match strategy {
            ReductionStrategy::NoUnroll => {
                let mut step = RED_GROUP / 2;
                while step >= 1 {
                    tree_step(g, 0, step);
                    g.barrier();
                    step /= 2;
                }
                g.begin_item([0, 0]);
                let s = g.local_read(0);
                out.set_raw(g.group_id[0], s);
            }
            ReductionStrategy::UnrollOne => {
                // One synchronised step brings the live set into the last
                // wavefront; the rest runs lock-step, branches diverging.
                tree_step(g, 0, 64);
                let mut step = 32;
                while step >= 1 {
                    tree_step(g, 0, step);
                    step /= 2;
                }
                g.begin_item([0, 0]);
                let s = g.local_read(0);
                out.set_raw(g.group_id[0], s);
            }
            ReductionStrategy::UnrollTwo => {
                // Each wavefront reduces its own half without barriers...
                for half in [0usize, 64] {
                    let mut step = 32;
                    while step >= 1 {
                        tree_step(g, half, step);
                        step /= 2;
                    }
                }
                // ...then one extra barrier before combining the halves —
                // the overhead that makes this variant lose (Fig. 15).
                g.barrier();
                g.begin_item([0, 0]);
                let a = g.local_read(0);
                let b = g.local_read(64);
                out.set_raw(g.group_id[0], a + b);
            }
        }
    }
}

/// The stage-1 body of a frame that keeps no pEdge plane: each group
/// fills a stack buffer with its [`ELEMS_PER_GROUP`] elements of the
/// `ws`-strided pEdge matrix of a `w × h` frame — row segments across the
/// stride, rebuilt by [`sobel_row`] from the padded source `src` — and
/// sums them in [`stage1_body`]'s add-during-load and tree order without
/// emulated local memory, so each partial is bit-identical to the one the
/// plane would give.
pub(crate) fn stage1_rebuilt_body(
    src: &SrcImage,
    partials: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    strategy: ReductionStrategy,
) -> impl Fn(&mut GroupCtx) + Send + Sync + 'static {
    let src = src.clone();
    let out = partials.write_view();
    move |g| {
        let base = g.group_id[0] * ELEMS_PER_GROUP;
        let len = (ws * h - base).min(ELEMS_PER_GROUP);
        let mut elems = [0.0f32; ELEMS_PER_GROUP];
        let mut i = 0;
        while i < len {
            let (y, x) = ((base + i) / ws, (base + i) % ws);
            let seg = (ws - x).min(len - i);
            sobel_row(&src, w, h, y, x, false, &mut elems[i..i + seg]);
            i += seg;
        }
        out.set_raw(g.group_id[0], group_partial(&elems, len, strategy));
    }
}

/// The partial sum of `elems[..len]` in [`stage1_body`]'s order: each of
/// the [`RED_GROUP`] lanes adds its [`ELEMS_PER_THREAD`] strided elements
/// in load order (skipping those past `len` in a ragged group), then the
/// strategy's tree folds the lanes.
fn group_partial(elems: &[f32; ELEMS_PER_GROUP], len: usize, strategy: ReductionStrategy) -> f32 {
    let mut sums = [0.0f32; RED_GROUP];
    if len == ELEMS_PER_GROUP {
        for row in elems.chunks_exact(RED_GROUP) {
            super::simd::add_assign_span(&mut sums, row);
        }
    } else {
        for (lid, s) in sums.iter_mut().enumerate() {
            for k in 0..ELEMS_PER_THREAD {
                let idx = k * RED_GROUP + lid;
                if idx < len {
                    *s += elems[idx];
                }
            }
        }
    }
    // One tree level: lane `lid` of `lo .. lo + step` adds lane
    // `lid + step`.
    let fold = |a: &mut [f32; RED_GROUP], lo: usize, step: usize| {
        for lid in lo..lo + step {
            a[lid] += a[lid + step];
        }
    };
    match strategy {
        // Both fold 64, 32, ..., 1 over the whole group; they differ only
        // in barriers.
        ReductionStrategy::NoUnroll | ReductionStrategy::UnrollOne => {
            let mut step = RED_GROUP / 2;
            while step >= 1 {
                fold(&mut sums, 0, step);
                step /= 2;
            }
            sums[0]
        }
        ReductionStrategy::UnrollTwo => {
            for half in [0, RED_GROUP / 2] {
                let mut step = RED_GROUP / 4;
                while step >= 1 {
                    fold(&mut sums, half, step);
                    step /= 2;
                }
            }
            sums[0] + sums[RED_GROUP / 2]
        }
    }
}

/// The stage-2 kernel body: a single work-group strided-sums the
/// partials and tree-reduces, writing the total into `result[0]`.
pub(crate) fn stage2_body(
    partials: &GlobalView<f32>,
    n_partials: usize,
    result: &Buffer<f32>,
) -> impl Fn(&mut GroupCtx) + Send + Sync + 'static {
    let partials = partials.clone();
    let out = result.write_view();
    move |g| {
        g.alloc_local(RED_GROUP);
        for lid in 0..RED_GROUP {
            g.begin_item([lid, 0]);
            let mut s = 0.0f32;
            let mut i = lid;
            while i < n_partials {
                s += partials.get_raw(i);
                i += RED_GROUP;
            }
            g.local_write(lid, s);
        }
        g.barrier();
        let mut step = RED_GROUP / 2;
        while step >= 1 {
            for lid in 0..step {
                g.begin_item([lid, 0]);
                let a = g.local_read(lid);
                let b = g.local_read(lid + step);
                g.local_write(lid, a + b);
            }
            if step > 32 {
                g.barrier();
            }
            step /= 2;
        }
        g.begin_item([0, 0]);
        let s = g.local_read(0);
        out.set_raw(0, s);
    }
}

/// Closed-form access summary of the stage-2 dispatch: the single group
/// strided-loads every partial exactly once and stores the one total.
/// Each of the 128 threads costs one add and one compare per strided load
/// plus seven tree adds; the tree takes two barriers (after the load and
/// the 64-wide step), then diverges through the last wavefront's six
/// steps.
pub(crate) fn stage2_access(
    desc: &KernelDesc,
    partials: &BufRef,
    n_partials: usize,
    result: &BufRef,
) -> AccessSummary {
    let mut s = AccessSummary::new(desc, 0..desc.total_groups());
    s.push(AccessWindow::read(partials.clone(), 0, n_partials));
    s.push(AccessWindow::write(result.clone(), 0, 1));
    s.charge_global_n(4, 0, 0, 0, n_partials as u64);
    s.charge_global_n(0, 0, 4, 0, 1);
    let loads = n_partials.div_ceil(RED_GROUP) as u64;
    let c = &mut s.charged;
    c.charge_ops_n(
        &OpCounts::ZERO.adds(loads + 7).cmps(loads),
        RED_GROUP as u64,
    );
    c.barriers += 2;
    c.divergent_branches += 6;
    c.local_bytes += 2040;
    c.local_alloc_bytes = 4 * RED_GROUP as u64;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::kernels::run_declared;
    use crate::gpu::program::{Buf, Geometry, KernelId};
    use simgpu::context::Context;
    use simgpu::device::DeviceSpec;
    use simgpu::queue::{CommandQueue, Dispatch};

    #[test]
    fn group_splits_declare_the_whole_grid() {
        use crate::gpu::kernels::split_check::{assert_splits_merge, SHAPES};
        for (w, h) in SHAPES {
            let n = crate::params::device_stride(w) * h;
            let (src, partials) = (
                BufRef::f32("pEdge", n),
                BufRef::f32("partials", stage1_groups(n)),
            );
            for strategy in [
                ReductionStrategy::NoUnroll,
                ReductionStrategy::UnrollOne,
                ReductionStrategy::UnrollTwo,
            ] {
                let desc = stage1_desc(n, strategy);
                assert_splits_merge(&desc, 1, |g| {
                    stage1_access(&desc, g, &src, &partials, n, strategy)
                });
            }
        }
    }

    /// The geometry of a frame whose pEdge matrix is `n` elements long:
    /// the reduction kernels' declarations read only `ns`.
    fn geometry(n: usize) -> Geometry {
        Geometry {
            ns: n,
            ..Geometry::new(n, 1)
        }
    }

    /// Runs the program's stage-1 dispatch over the `n`-element `pedge`
    /// with the plane body.
    fn stage1(
        q: &mut CommandQueue,
        pedge: &Buffer<f32>,
        n: usize,
        partials: &Buffer<f32>,
        strategy: ReductionStrategy,
    ) {
        let bufs = [(Buf::PEdge, pedge), (Buf::Partials, partials)];
        run_declared(
            q,
            KernelId::Stage1(strategy),
            &geometry(n),
            &bufs,
            |d, a| Dispatch::groups(d, a, stage1_body(&pedge.view(), partials, n, strategy)),
        )
        .unwrap();
    }

    /// The device sum of `data`: stage 1, then stage 2, on a validated
    /// context; with the simulated seconds of both.
    fn sum_gpu(data: &[f32], strategy: ReductionStrategy) -> (f32, f64) {
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let n = data.len();
        let src = ctx.buffer_from("pEdge", data);
        let partials = ctx.buffer::<f32>("partials", stage1_groups(n));
        stage1(&mut q, &src, n, &partials, strategy);
        let result = ctx.buffer::<f32>("mean", 1);
        let bufs = [(Buf::Partials, &partials), (Buf::ReductionOut, &result)];
        run_declared(&mut q, KernelId::Stage2, &geometry(n), &bufs, |d, a| {
            Dispatch::groups(
                d,
                a,
                stage2_body(&partials.view(), stage1_groups(n), &result),
            )
        })
        .unwrap();
        (result.snapshot()[0], q.elapsed())
    }

    #[test]
    fn all_strategies_compute_the_sum() {
        let data: Vec<f32> = (0..10_000).map(|i| (i % 97) as f32 * 0.25).collect();
        let expect: f64 = data.iter().map(|&v| f64::from(v)).sum();
        for s in [
            ReductionStrategy::NoUnroll,
            ReductionStrategy::UnrollOne,
            ReductionStrategy::UnrollTwo,
        ] {
            let (got, _) = sum_gpu(&data, s);
            let rel = (f64::from(got) - expect).abs() / expect;
            assert!(rel < 1e-5, "{s:?}: got {got}, want {expect}");
        }
    }

    #[test]
    fn handles_sizes_not_multiple_of_group_elems() {
        for n in [1usize, 5, 127, 128, 129, 1023, 1024, 1025, 4097] {
            let data: Vec<f32> = (0..n).map(|i| 1.0 + (i as f32) * 0.5).collect();
            let expect: f64 = data.iter().map(|&v| f64::from(v)).sum();
            let (got, _) = sum_gpu(&data, ReductionStrategy::UnrollOne);
            let rel = (f64::from(got) - expect).abs() / expect.max(1.0);
            assert!(rel < 1e-5, "n={n}: got {got}, want {expect}");
        }
    }

    #[test]
    fn unroll_one_beats_unroll_two_beats_none() {
        // Fig. 15: unrolling one wavefront is fastest; the basic tree is
        // slowest (barrier per step).
        let data = vec![1.0f32; 1 << 20];
        let (_, t_none) = sum_gpu(&data, ReductionStrategy::NoUnroll);
        let (_, t_one) = sum_gpu(&data, ReductionStrategy::UnrollOne);
        let (_, t_two) = sum_gpu(&data, ReductionStrategy::UnrollTwo);
        assert!(t_one < t_two, "unroll1 {t_one} should beat unroll2 {t_two}");
        assert!(
            t_two < t_none,
            "unroll2 {t_two} should beat no-unroll {t_none}"
        );
    }

    #[test]
    fn rebuilt_partials_match_the_planes() {
        use crate::gpu::kernels::sobel::sobel_vec4_body;
        use imagekit::generate;
        for (w, h) in [(3, 3), (5, 7), (13, 11), (97, 61), (1001, 9), (64, 48)] {
            let g = Geometry::new(w, h);
            let (pw, n) = (g.pw, g.ns);
            let img = generate::natural(w, h, 11);
            let mut padded = vec![0.0f32; pw * (h + 2)];
            for y in 0..h {
                for x in 0..w {
                    padded[(y + 1) * pw + x + 1] = img.get(x, y);
                }
            }
            let ctx = Context::new(DeviceSpec::firepro_w8000());
            let mut q = ctx.queue();
            let pbuf = ctx.buffer_from("padded", &padded);
            let src = SrcImage {
                view: pbuf.view(),
                pitch: pw,
                pad: 1,
            };
            let pedge = ctx.buffer::<f32>("pEdge", n);
            let bufs = [(Buf::Padded, &pbuf), (Buf::PEdge, &pedge)];
            run_declared(&mut q, KernelId::SobelVec4, &g, &bufs, |d, a| {
                Dispatch::rows(d, a, sobel_vec4_body(&src, &pedge, w, h, g.ws))
            })
            .unwrap();
            for strategy in [
                ReductionStrategy::NoUnroll,
                ReductionStrategy::UnrollOne,
                ReductionStrategy::UnrollTwo,
            ] {
                let plane = ctx.buffer::<f32>("partials", stage1_groups(n));
                stage1(&mut q, &pedge, n, &plane, strategy);
                let rebuilt = ctx.buffer::<f32>("partials", stage1_groups(n));
                let bufs = [(Buf::PEdge, &pedge), (Buf::Partials, &rebuilt)];
                run_declared(&mut q, KernelId::Stage1(strategy), &g, &bufs, |d, a| {
                    let body = stage1_rebuilt_body(&src, &rebuilt, w, h, g.ws, strategy);
                    Dispatch::groups(d, a, body)
                })
                .unwrap();
                let bits =
                    |b: &Buffer<f32>| b.snapshot().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&rebuilt), bits(&plane), "{w}x{h} {strategy:?}");
            }
        }
    }

    #[test]
    fn stage1_group_count() {
        assert_eq!(stage1_groups(1), 1);
        assert_eq!(stage1_groups(ELEMS_PER_GROUP), 1);
        assert_eq!(stage1_groups(ELEMS_PER_GROUP + 1), 2);
        assert_eq!(stage1_groups(10 * ELEMS_PER_GROUP), 10);
    }

    #[test]
    fn gpu_tree_reduction_matches_serial_sum() {
        use imagekit::rng::SplitMix64;
        let strategies = [
            ReductionStrategy::NoUnroll,
            ReductionStrategy::UnrollOne,
            ReductionStrategy::UnrollTwo,
        ];
        for seed in 0..24 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let len = 1 + (rng.next_u64() % 4999) as usize;
            let data: Vec<f32> = (0..len).map(|_| rng.gen_range(0.0, 255.0)).collect();
            let strategy = strategies[(rng.next_u64() % 3) as usize];
            let got = f64::from(sum_gpu(&data, strategy).0);
            let want: f64 = data.iter().map(|&v| f64::from(v)).sum();
            let tol = (want.abs() + 1.0) * 1e-5;
            assert!(
                (got - want).abs() <= tol,
                "seed {seed}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn deterministic_sums() {
        let data: Vec<f32> = (0..50_000).map(|i| ((i * 31) % 255) as f32).collect();
        let (a, _) = sum_gpu(&data, ReductionStrategy::UnrollOne);
        let (b, _) = sum_gpu(&data, ReductionStrategy::UnrollOne);
        assert_eq!(a, b);
    }
}
