//! Sobel kernels: scalar (one pixel per thread) and the vectorized variant
//! of Section V-D (four adjacent pixels per thread, 18 loads shared among
//! them — "the accessing for every node in original matrix is repeated for
//! about only 4.5 times" instead of 8).

use simgpu::access::{AccessSummary, AccessWindow, BufRef};
use simgpu::buffer::Buffer;
use simgpu::cost::OpCounts;
use simgpu::error::{Error, Result};
use simgpu::kernel::KernelDesc;
use simgpu::queue::CommandQueue;
use simgpu::timing::KernelTime;

use super::{
    body_columns, covered_rows, grid2d, interior_rows, simd, summarize, vec4_body_columns,
    KernelTuning, Launch, SrcImage, SrcInfo, GROUP_2D,
};
use crate::math;
use crate::params::MIN_DIM;

/// Scalar Sobel: each thread computes one pEdge value from eight
/// neighbour loads; border threads store zero. `ws` is the device row
/// stride of `pedge` (equal to `w` for multiple-of-4 widths).
pub fn sobel_scalar_kernel(
    q: &mut CommandQueue,
    src: &SrcImage,
    pedge: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> Result<KernelTime> {
    sobel_scalar_launch(q, src, pedge, w, h, ws, tune, Launch::Full)
}

/// [`sobel_scalar_kernel`] with an explicit [`Launch`] mode (the banded
/// scheduler slices the grid by work-group rows of 16 image rows).
#[allow(clippy::too_many_arguments)]
pub(crate) fn sobel_scalar_launch(
    q: &mut CommandQueue,
    src: &SrcImage,
    pedge: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
    launch: Launch<'_>,
) -> Result<KernelTime> {
    if w < MIN_DIM || h < MIN_DIM || ws < w {
        return Err(Error::InvalidKernelArgs {
            kernel: "sobel".into(),
            detail: format!(
                "shape {w}x{h} (stride {ws}) below the {MIN_DIM}x{MIN_DIM} stencil minimum"
            ),
        });
    }
    let desc = grid2d("sobel", w, h);
    let out = pedge.write_view();
    let src = src.clone();
    // Row-span form: each group handles its 16-column segment of a row
    // (every image row walked across the row's groups before the next), so
    // the stencil runs over contiguous slices (autovectorized by rustc or
    // dispatched to the explicit backends via [`simd::sobel_span`]). The
    // declared traffic stays exactly the per-pixel pattern of the
    // one-item-per-pixel form: eight window loads + one store per body
    // pixel, one zero store per border pixel. The observed raw reads are
    // the three `(blen+2)`-wide row slices per segment, which stay below
    // the charged windows for every width except `w == 3` (one-pixel body
    // spans), so narrow images keep the exact per-item path.
    let access = summarize(&launch, &desc, |groups| {
        sobel_scalar_access(
            &desc,
            groups,
            &SrcInfo::of(&src),
            pedge.info(),
            w,
            h,
            ws,
            tune,
        )
    });
    launch.dispatch_rows(q, &desc, access, &[pedge], move |rc| {
        if w < 4 {
            // Narrow images: the exact per-item path, each image row
            // item by item across the row's groups.
            let gw = rc.group_size[0];
            for ly in 0..rc.group_size[1] {
                let y = rc.global_y(ly);
                for x in rc.groups.start * gw..rc.groups.end * gw {
                    rc.begin_item(x / gw, [x % gw, ly]);
                    if x >= w || y >= h {
                        continue;
                    }
                    if x == 0 || y == 0 || x == w - 1 || y == h - 1 {
                        out.set_raw(y * ws + x, 0.0);
                        continue;
                    }
                    let (xi, yi) = (x as isize, y as isize);
                    let at = |dx: isize, dy: isize| src.view.get_raw(src.idx(xi + dx, yi + dy));
                    let n = [
                        at(-1, -1),
                        at(0, -1),
                        at(1, -1),
                        at(-1, 0),
                        0.0, // centre value is unused by the operator
                        at(1, 0),
                        at(-1, 1),
                        at(0, 1),
                        at(1, 1),
                    ];
                    out.set_raw(y * ws + x, math::sobel_pixel(&n));
                }
            }
            return;
        }
        let gw = rc.group_size[0];
        let mut scratch = [0.0f32; GROUP_2D[0]];
        for ly in 0..rc.group_size[1] {
            let y = rc.global_y(ly);
            if y >= h {
                break;
            }
            for gx in rc.groups.clone() {
                rc.begin_item(gx, [0, ly]);
                let x_start = gx * gw;
                if x_start >= w {
                    break;
                }
                let x_end = (x_start + gw).min(w);
                let span = x_end - x_start;
                let row_out = &mut scratch[..span];
                // Zero first: the border columns/rows the body span below does
                // not overwrite store zero, as in the per-pixel form.
                row_out.fill(0.0);
                if y > 0 && y < h - 1 {
                    let body_lo = x_start.max(1);
                    let body_hi = x_end.min(w - 1);
                    if body_hi > body_lo {
                        let blen = body_hi - body_lo;
                        let yi = y as isize;
                        let r0 = src
                            .view
                            .slice_raw(src.idx(body_lo as isize - 1, yi - 1), blen + 2);
                        let r1 = src
                            .view
                            .slice_raw(src.idx(body_lo as isize - 1, yi), blen + 2);
                        let r2 = src
                            .view
                            .slice_raw(src.idx(body_lo as isize - 1, yi + 1), blen + 2);
                        simd::sobel_span(
                            r0,
                            r1,
                            r2,
                            &mut row_out[body_lo - x_start..body_hi - x_start],
                        );
                    }
                }
                out.set_span_raw(y * ws + x_start, row_out);
            }
        }
    })
}

/// Closed-form access summary of the scalar Sobel dispatch: per covered
/// row, a full `w`-element pEdge write; source reads are the eight
/// per-pixel neighbour windows for narrow images (`w < 4`, the exact
/// per-item path) or three `(blen+2)`-wide halo slices per body column
/// group otherwise. A body pixel costs eight window loads (32 B), one
/// store and the operator's arithmetic; a border pixel one zero store and,
/// without built-in selects, a divergent branch; every pixel four
/// compares.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sobel_scalar_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    src: &SrcInfo,
    pedge: BufRef,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> AccessSummary {
    let rows = covered_rows(desc, &groups, h);
    let nr = rows.len();
    let mut s = AccessSummary::new(desc, groups);
    if nr == 0 {
        return s;
    }
    s.push(AccessWindow::write(pedge, rows.start * ws, w).by_y(nr, ws));
    let ir = interior_rows(&rows, w, h);
    let nir = ir.len();
    if nir > 0 {
        if w < 4 {
            // Per-item form: eight neighbour loads per body pixel.
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    s.push(
                        AccessWindow::read(
                            src.buf.clone(),
                            src.idx(1 + dx, ir.start as isize + dy),
                            w - 2,
                        )
                        .by_y(nir, src.pitch),
                    );
                }
            }
        } else {
            for (lo, blen) in body_columns(w) {
                s.push(
                    AccessWindow::read(
                        src.buf.clone(),
                        src.idx(lo as isize - 1, ir.start as isize - 1),
                        blen + 2,
                    )
                    .by_x(3, src.pitch)
                    .by_y(nir, src.pitch),
                );
            }
        }
    }
    let n_body = (nir as u64) * (w.saturating_sub(2) as u64);
    let n_border = (w * nr) as u64 - n_body;
    s.charge_global_n(32, 0, 4, 0, n_body);
    s.charge_global_n(0, 0, 4, 0, n_border);
    let c = &mut s.charged;
    c.charge_ops_n(
        &OpCounts::ZERO
            .adds(11)
            .muls(4)
            .cmps(2)
            .plus(&tune.idx_ops()),
        n_body,
    );
    c.charge_ops_n(&OpCounts::ZERO.cmps(4), n_body + n_border);
    c.divergent_branches += n_border * tune.clamp_divergence();
    s
}

/// Vectorized Sobel (paper Fig. 11): each thread produces four adjacent
/// pEdge values. Loads the 3×6 source window as three `vload4`s plus six
/// scalar loads (18 values) and writes with one `vstore4`. Requires the
/// padded source so that the window loads need no bounds checks. `ws` is
/// the vec4-aligned device row stride of `pedge`; threads cover the full
/// stride, writing zero into the padding columns beyond `w`.
pub fn sobel_vec4_kernel(
    q: &mut CommandQueue,
    src: &SrcImage,
    pedge: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> Result<KernelTime> {
    sobel_vec4_launch(q, src, pedge, w, h, ws, tune, Launch::Full)
}

/// [`sobel_vec4_kernel`] with an explicit [`Launch`] mode.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sobel_vec4_launch(
    q: &mut CommandQueue,
    src: &SrcImage,
    pedge: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
    launch: Launch<'_>,
) -> Result<KernelTime> {
    if src.pad != 1 {
        return Err(Error::InvalidKernelArgs {
            kernel: "sobel_vec4".into(),
            detail: "requires the padded source (pad == 1)".into(),
        });
    }
    if w < MIN_DIM || h < MIN_DIM || !ws.is_multiple_of(4) || ws < w || src.pitch != ws + 2 {
        return Err(Error::InvalidKernelArgs {
            kernel: "sobel_vec4".into(),
            detail: format!(
                "shape {w}x{h} with stride {ws} (pitch {}): stride must be a \
                 multiple of 4 covering the width, pitch = stride + 2, and the \
                 shape at least {MIN_DIM}x{MIN_DIM}",
                src.pitch
            ),
        });
    }
    let desc = grid2d("sobel_vec4", ws / 4, h);
    let out = pedge.write_view();
    let src = src.clone();
    // Charged loads are 18 per thread over (ws/4)·h threads; the summary
    // declares the halo-slice events actually observed and carries the
    // exact ratio between the two.
    let access = summarize(&launch, &desc, |groups| {
        sobel_vec4_access(
            &desc,
            groups,
            &SrcInfo::of(&src),
            pedge.info(),
            w,
            h,
            ws,
            tune,
        )
    });
    launch.dispatch_rows(q, &desc, access, &[pedge], move |rc| {
        // Row-segment form: each group's threads cover `4 * group_size[0]`
        // consecutive pixels per row, computed as one branch-free span so
        // the host autovectorizes it; each image row is walked across the
        // row's groups before the next.
        let gw = rc.group_size[0];
        let mut scratch = [0.0f32; 4 * GROUP_2D[0]];
        for ly in 0..rc.group_size[1] {
            let y = rc.global_y(ly);
            if y >= h {
                break;
            }
            for gx in rc.groups.clone() {
                rc.begin_item(gx, [0, ly]);
                let x_start = 4 * gx * gw;
                if x_start >= ws {
                    break;
                }
                let x_end = (x_start + 4 * gw).min(ws);
                let span = x_end - x_start;
                let row_out = &mut scratch[..span];
                // Zero everything the body loop below does not overwrite: the
                // image border columns and the stride-padding tail beyond `w`
                // stay zero, matching the scalar kernel (which never writes
                // the padding at all — it is zero from allocation).
                row_out.fill(0.0);
                if y > 0 && y < h - 1 {
                    let yi = y as isize;
                    let body_lo = x_start.max(1);
                    let body_hi = x_end.min(w - 1);
                    let blen = body_hi - body_lo;
                    let r0 = src
                        .view
                        .slice_raw(src.idx(body_lo as isize - 1, yi - 1), blen + 2);
                    let r1 = src
                        .view
                        .slice_raw(src.idx(body_lo as isize - 1, yi), blen + 2);
                    let r2 = src
                        .view
                        .slice_raw(src.idx(body_lo as isize - 1, yi + 1), blen + 2);
                    // `sobel_pixel` with the window columns i..i+3 in the
                    // identical operation order (left-to-right sums), so the
                    // span is bit-identical to the per-pixel form — pinned by
                    // `vec4_matches_scalar_exactly`.
                    simd::sobel_span(
                        r0,
                        r1,
                        r2,
                        &mut row_out[body_lo - x_start..body_hi - x_start],
                    );
                }
                out.set_span_raw(y * ws + x_start, row_out);
            }
        }
    })
}

/// Closed-form access summary of the vectorized Sobel dispatch: per
/// covered row, a full `ws`-element pEdge write (padding columns are
/// zeroed); source reads are the unconditional halo slices per column
/// group over interior rows (border rows load nothing). Every covered
/// thread is charged the per-thread `vload4`/`vstore4` pattern — one
/// 3-row window of 3 vload4 (48 B) + 6 scalar loads (24 B), one vstore4
/// (16 B) — and four pixels of arithmetic plus the border selects
/// (border-row threads load their windows too before zeroing).
#[allow(clippy::too_many_arguments)]
pub(crate) fn sobel_vec4_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    src: &SrcInfo,
    pedge: BufRef,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> AccessSummary {
    let rows = covered_rows(desc, &groups, h);
    let nr = rows.len();
    let mut s = AccessSummary::new(desc, groups);
    if nr == 0 {
        return s;
    }
    s.push(AccessWindow::write(pedge, rows.start * ws, ws).by_y(nr, ws));
    let ir = interior_rows(&rows, w, h);
    let nir = ir.len();
    if nir > 0 {
        for (lo, blen) in vec4_body_columns(w, ws) {
            s.push(
                AccessWindow::read(
                    src.buf.clone(),
                    src.idx(lo as isize - 1, ir.start as isize - 1),
                    blen + 2,
                )
                .by_x(3, src.pitch)
                .by_y(nir, src.pitch),
            );
        }
    }
    let n_threads = ((ws / 4) * nr) as u64;
    s.charge_global_n(24, 48, 0, 16, n_threads);
    s.charged.charge_ops_n(
        &OpCounts::ZERO
            .adds(44)
            .muls(16)
            .cmps(8 + 4)
            .plus(&tune.idx_ops()),
        n_threads,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::stages;
    use imagekit::generate;
    use simgpu::context::Context;
    use simgpu::device::DeviceSpec;

    #[test]
    fn row_splits_declare_the_whole_grid() {
        use crate::gpu::kernels::split_check::{assert_splits_merge, sources, SHAPES, TUNINGS};
        for (w, h) in SHAPES {
            let ws = crate::params::device_stride(w);
            let pedge = BufRef::f32("pEdge", ws * h);
            let (raw, padded) = sources(w, h);
            for tune in TUNINGS {
                let desc = grid2d("sobel", w, h);
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    sobel_scalar_access(&desc, g, &raw, pedge.clone(), w, h, ws, tune)
                });
                let desc = grid2d("sobel_vec4", ws / 4, h);
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    sobel_vec4_access(&desc, g, &padded, pedge.clone(), w, h, ws, tune)
                });
            }
        }
    }

    fn gpu_ctx() -> Context {
        Context::with_validation(DeviceSpec::firepro_w8000())
    }

    #[test]
    fn scalar_matches_cpu_exactly() {
        let img = generate::natural(48, 32, 5);
        let (cpu, _) = stages::sobel(&img);
        let ctx = gpu_ctx();
        let mut q = ctx.queue();
        let orig = ctx.buffer_from("original", img.pixels());
        let pedge = ctx.buffer::<f32>("pEdge", 48 * 32);
        let src = SrcImage {
            view: orig.view(),
            pitch: 48,
            pad: 0,
        };
        sobel_scalar_kernel(&mut q, &src, &pedge, 48, 32, 48, KernelTuning::default()).unwrap();
        assert_eq!(pedge.snapshot(), cpu.pixels());
    }

    #[test]
    fn vec4_matches_scalar_exactly() {
        let img = generate::natural(64, 48, 9);
        let (cpu, _) = stages::sobel(&img);
        let ctx = gpu_ctx();
        let mut q = ctx.queue();
        let padded = img.padded(1, false);
        let pbuf = ctx.buffer_from("padded", padded.pixels());
        let pedge = ctx.buffer::<f32>("pEdge", 64 * 48);
        let src = SrcImage {
            view: pbuf.view(),
            pitch: 66,
            pad: 1,
        };
        sobel_vec4_kernel(&mut q, &src, &pedge, 64, 48, 64, KernelTuning::default()).unwrap();
        assert_eq!(pedge.snapshot(), cpu.pixels());
    }

    #[test]
    fn vec4_matches_scalar_on_odd_widths() {
        // Ragged widths: the vec4 kernel runs over the padded stride and
        // must produce the scalar kernel's pixels in the `w` image columns
        // and zeros in the padding tail.
        for (w, h) in [(5, 7), (13, 11), (33, 29), (3, 3), (61, 16)] {
            let ws = crate::params::device_stride(w);
            let img = generate::natural(w, h, 3);
            let ctx = gpu_ctx();
            let mut q = ctx.queue();

            let orig = ctx.buffer_from("original", img.pixels());
            let scalar_out = ctx.buffer::<f32>("pEdgeS", ws * h);
            let raw = SrcImage {
                view: orig.view(),
                pitch: w,
                pad: 0,
            };
            sobel_scalar_kernel(&mut q, &raw, &scalar_out, w, h, ws, KernelTuning::default())
                .unwrap();

            // Padded source at the device stride, image rect at (1,1).
            let pw = ws + 2;
            let mut padded = vec![0.0f32; pw * (h + 2)];
            for y in 0..h {
                for x in 0..w {
                    padded[(y + 1) * pw + x + 1] = img.get(x, y);
                }
            }
            let pbuf = ctx.buffer_from("padded", &padded);
            let vec_out = ctx.buffer::<f32>("pEdgeV", ws * h);
            let psrc = SrcImage {
                view: pbuf.view(),
                pitch: pw,
                pad: 1,
            };
            sobel_vec4_kernel(&mut q, &psrc, &vec_out, w, h, ws, KernelTuning::default()).unwrap();

            assert_eq!(vec_out.snapshot(), scalar_out.snapshot(), "{w}x{h}");
            let snap = vec_out.snapshot();
            for y in 0..h {
                for x in w..ws {
                    assert_eq!(snap[y * ws + x], 0.0, "padding ({x},{y}) of {w}x{h}");
                }
            }
        }
    }

    #[test]
    fn vec4_rejects_bad_arguments_with_typed_error() {
        let ctx = gpu_ctx();
        let mut q = ctx.queue();
        let pbuf = ctx.buffer::<f32>("padded", 10 * 10);
        let pedge = ctx.buffer::<f32>("pEdge", 64);
        let unpadded = SrcImage {
            view: pbuf.view(),
            pitch: 8,
            pad: 0,
        };
        let err = sobel_vec4_kernel(&mut q, &unpadded, &pedge, 8, 8, 8, KernelTuning::default())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidKernelArgs { .. }), "{err}");
        let padded = SrcImage {
            view: pbuf.view(),
            pitch: 10,
            pad: 1,
        };
        // Stride not covering the width.
        let err = sobel_vec4_kernel(&mut q, &padded, &pedge, 8, 8, 4, KernelTuning::default())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidKernelArgs { .. }), "{err}");
    }

    #[test]
    fn vec4_moves_traffic_to_vector_class() {
        let img = generate::natural(64, 64, 2);
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let padded = img.padded(1, false);
        let pbuf = ctx.buffer_from("padded", padded.pixels());
        let pedge = ctx.buffer::<f32>("pEdge", 64 * 64);
        let src = SrcImage {
            view: pbuf.view(),
            pitch: 66,
            pad: 1,
        };
        sobel_vec4_kernel(&mut q, &src, &pedge, 64, 64, 64, KernelTuning::default()).unwrap();
        let c = q.records()[0].counters.unwrap();
        assert!(c.global_read_vector > 0);
        assert!(c.global_write_vector > 0);
        assert_eq!(c.global_write_scalar, 0);
        // 18 loads per thread for 4 pixels = 4.5 per pixel, vs 8 scalar.
        let per_pixel = (c.global_read_vector + c.global_read_scalar) as f64 / (64.0 * 64.0 * 4.0);
        assert!((per_pixel - 4.5).abs() < 0.01, "loads/pixel = {per_pixel}");
    }

    #[test]
    fn scalar_reads_eight_per_body_pixel() {
        let img = generate::natural(32, 32, 2);
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let orig = ctx.buffer_from("original", img.pixels());
        let pedge = ctx.buffer::<f32>("pEdge", 32 * 32);
        let src = SrcImage {
            view: orig.view(),
            pitch: 32,
            pad: 0,
        };
        sobel_scalar_kernel(&mut q, &src, &pedge, 32, 32, 32, KernelTuning::default()).unwrap();
        let c = q.records()[0].counters.unwrap();
        assert_eq!(c.global_read_scalar, 30 * 30 * 8 * 4);
    }
}
