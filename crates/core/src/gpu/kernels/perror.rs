//! The unfused pError kernel: `pError = original − upscaled`.
//!
//! Only the base pipeline dispatches this; kernel fusion (Section V-B)
//! folds the subtraction into the fused sharpness kernel and keeps the
//! difference in registers.

use simgpu::access::{AccessSummary, AccessWindow, BufRef};
use simgpu::buffer::{Buffer, GlobalView};
use simgpu::cost::OpCounts;
use simgpu::error::Result;
use simgpu::kernel::KernelDesc;
use simgpu::queue::CommandQueue;
use simgpu::timing::KernelTime;

use super::{
    covered_rows, grid2d, simd, summarize, KernelTuning, Launch, SrcImage, SrcInfo, GROUP_2D,
};

/// Dispatches the pError kernel over the full image. `ws` is the device
/// row stride of the up/pError buffers (equal to `w` for multiple-of-4
/// widths).
#[allow(clippy::too_many_arguments)]
pub fn perror_kernel(
    q: &mut CommandQueue,
    src: &SrcImage,
    up: &GlobalView<f32>,
    perr: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> Result<KernelTime> {
    perror_launch(q, src, up, perr, w, h, ws, tune, Launch::Full)
}

/// [`perror_kernel`] with an explicit [`Launch`] mode (one work-group row
/// covers 16 image rows).
#[allow(clippy::too_many_arguments)]
pub(crate) fn perror_launch(
    q: &mut CommandQueue,
    src: &SrcImage,
    up: &GlobalView<f32>,
    perr: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
    launch: Launch<'_>,
) -> Result<KernelTime> {
    let desc = grid2d("perror", w, h);
    let access = summarize(&launch, &desc, |groups| {
        perror_access(
            &desc,
            groups,
            &SrcInfo::of(src),
            up.info(),
            perr.info(),
            w,
            h,
            ws,
            tune,
        )
    });
    let pview = perr.write_view();
    let src = src.clone();
    let up = up.clone();
    // Row-span form: the subtraction runs over contiguous row slices
    // (autovectorized or dispatched via [`simd::sub_span`]).
    launch.dispatch_rows(q, &desc, access, &[perr], move |rc| {
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
                let u = up.slice_raw(y * ws + x_start, span);
                let row_out = &mut scratch[..span];
                simd::sub_span(o, u, row_out);
                pview.set_span_raw(y * ws + x_start, row_out);
            }
        }
    })
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
    up: BufRef,
    perr: BufRef,
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
        s.push(AccessWindow::read(up, rows.start * ws, w).by_y(nr, ws));
        s.push(AccessWindow::write(perr, rows.start * ws, w).by_y(nr, ws));
        let n = (w * nr) as u64;
        s.charge_global_n(8, 0, 4, 0, n);
        s.charged
            .charge_ops_n(&OpCounts::ZERO.adds(1).plus(&tune.idx_ops()), n);
    }
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
            let desc = grid2d("perror", w, h);
            let (up, perr) = (BufRef::f32("up", ws * h), BufRef::f32("pError", ws * h));
            for (src, tune) in [sources(w, h).0, sources(w, h).1].iter().zip(TUNINGS) {
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    perror_access(&desc, g, src, up.clone(), perr.clone(), w, h, ws, tune)
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
        perror_kernel(
            &mut q,
            &src,
            &upbuf.view(),
            &perr,
            32,
            32,
            32,
            KernelTuning::default(),
        )
        .unwrap();
        assert_eq!(perr.snapshot(), cpu_err.pixels());
    }
}
