//! The unfused pError kernel: `pError = original − upscaled`.
//!
//! Only the base pipeline dispatches this; kernel fusion (Section V-B)
//! folds the subtraction into the fused sharpness kernel and keeps the
//! difference in registers.

use simgpu::access::{AccessSummary, AccessWindow, BufRef};
use simgpu::buffer::Buffer;
use simgpu::cost::OpCounts;
use simgpu::kernel::{KernelDesc, RowCtx};
use simgpu::par::WindowUnits;

use super::upscale::UpSource;
use super::{covered_rows, simd, unit_rows, KernelTuning, RowWindows, SrcImage, SrcInfo, GROUP_2D};

/// The pError body, one call per work-group row. Row-span form: the
/// subtraction runs over contiguous row slices (autovectorized or
/// dispatched via [`simd::sub_span`]); the unit's `up` rows come from
/// `up` (a plane, or rebuilt per unit).
pub(crate) fn perror_body(
    src: &SrcImage,
    up: &UpSource,
    perr: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
) -> impl Fn(&mut RowCtx) + Send + Sync + 'static {
    let pview = perr.write_view();
    let src = src.clone();
    let up = up.clone();
    move |rc| {
        up.with_rows(unit_rows(rc, h), |up| {
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
                    let span = (x_start + gw).min(w) - x_start;
                    let o = src
                        .view
                        .slice_raw(src.idx(x_start as isize, y as isize), span);
                    let u = up.span(y, x_start, span);
                    let row_out = &mut scratch[..span];
                    simd::sub_span(o, u, row_out);
                    pview.set_span_raw(y * ws + x_start, row_out);
                }
            }
        })
    }
}

/// Closed-form access summary of the pError dispatch for the flat group
/// range `groups`: per covered row, one `w`-element read of the original
/// and upscaled rows plus one `w`-element write of the pError row. Charges
/// are exact (ratio 1): two 4 B loads, one 4 B store and one subtraction
/// plus index arithmetic per covered pixel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn perror_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    src: &SrcInfo,
    up: &BufRef,
    perr: &BufRef,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> AccessSummary {
    let rows = covered_rows(desc, &groups, h);
    let mut s = AccessSummary::new(desc, groups);
    let nr = rows.len();
    if nr > 0 {
        s.push(
            AccessWindow::read(src.buf.clone(), src.idx(0, rows.start as isize), w)
                .by_y(nr, src.pitch),
        );
        s.push(AccessWindow::read(up.clone(), rows.start * ws, w).by_y(nr, ws));
        s.push(AccessWindow::write(perr.clone(), rows.start * ws, w).by_y(nr, ws));
        let n = (w * nr) as u64;
        s.charge_global_n(8, 0, 4, 0, n);
        s.charged
            .charge_ops_n(&OpCounts::ZERO.adds(1).plus(&tune.idx_ops()), n);
    }
    s
}

/// Window→units map of the pError dispatch in the fused tail pass: window
/// `w` is the group rows of its rows. Group row `4w` reads `up` rows
/// `64w` and `64w + 1`, which upscale-center group row `w - 1` writes:
/// one lag unit.
pub(crate) fn perror_window(win: &RowWindows, w: usize) -> WindowUnits {
    win.band(w, GROUP_2D[1], 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::stages;
    use crate::gpu::kernels::{grid2d, run_declared};
    use crate::gpu::program::{Buf, Geometry, KernelId};
    use imagekit::generate;
    use simgpu::context::Context;
    use simgpu::device::DeviceSpec;
    use simgpu::queue::Dispatch;

    #[test]
    fn row_splits_declare_the_whole_grid() {
        use crate::gpu::kernels::split_check::{assert_splits_merge, sources, SHAPES, TUNINGS};
        for (w, h) in SHAPES {
            let ws = crate::params::device_stride(w);
            let desc = grid2d("perror", w, h);
            let (up, perr) = (BufRef::f32("up", ws * h), BufRef::f32("pError", ws * h));
            for (src, tune) in [sources(w, h).0, sources(w, h).1].iter().zip(TUNINGS) {
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    perror_access(&desc, g, src, &up, &perr, w, h, ws, tune)
                });
            }
        }
    }

    #[test]
    fn matches_cpu_reference_exactly() {
        let img = generate::natural(32, 32, 3);
        let (down, _) = stages::downscale(&img);
        let (up, _, _) = stages::upscale(&down, 32, 32);
        let (cpu_err, _) = stages::perror(&img, &up);

        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let orig = ctx.buffer_from("original", img.pixels());
        let upbuf = ctx.buffer_from("up", up.pixels());
        let perr = ctx.buffer::<f32>("pError", 32 * 32);
        let src = SrcImage {
            view: orig.view(),
            pitch: 32,
            pad: 0,
        };
        let bufs = [
            (Buf::Original, &orig),
            (Buf::Up, &upbuf),
            (Buf::PError, &perr),
        ];
        let up = UpSource::Plane(upbuf.view(), 32);
        run_declared(
            &mut q,
            KernelId::Perror,
            &Geometry::new(32, 32),
            &bufs,
            |d, a| Dispatch::rows(d, a, perror_body(&src, &up, &perr, 32, 32, 32)),
        )
        .unwrap();
        assert_eq!(perr.snapshot(), cpu_err.pixels());
    }
}
