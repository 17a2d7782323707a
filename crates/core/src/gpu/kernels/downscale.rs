//! The downscale kernel: one thread per downscaled pixel, averaging its
//! 4×4 source block (paper Fig. 2).

use simgpu::access::{AccessSummary, AccessWindow, BufRef};
use simgpu::buffer::Buffer;
use simgpu::cost::OpCounts;
use simgpu::error::{Error, Result};
use simgpu::kernel::KernelDesc;
use simgpu::queue::CommandQueue;
use simgpu::timing::KernelTime;

use super::{covered_rows, grid2d, summarize, KernelTuning, Launch, SrcImage, SrcInfo};
use crate::params::{MIN_DIM, SCALE};

/// Dispatches the downscale kernel: `down[j, i] = mean(src block)`, where
/// interior blocks are 4×4 and the ragged right/bottom blocks (widths not
/// a multiple of 4) average only the pixels that exist, exactly as the CPU
/// reference does. The downscaled grid is `⌈w/4⌉ × ⌈h/4⌉`.
///
/// Works against either the raw original or the padded source (the
/// data-transfer optimization removes the raw upload entirely, so the
/// optimized pipeline points `src` at the padded buffer).
pub fn downscale_kernel(
    q: &mut CommandQueue,
    src: &SrcImage,
    down: &Buffer<f32>,
    w: usize,
    h: usize,
    tune: KernelTuning,
) -> Result<KernelTime> {
    downscale_launch(q, src, down, w, h, tune, Launch::Full)
}

/// [`downscale_kernel`] with an explicit [`Launch`] mode (one work-group
/// row covers 16 downscaled rows = 64 source rows).
pub(crate) fn downscale_launch(
    q: &mut CommandQueue,
    src: &SrcImage,
    down: &Buffer<f32>,
    w: usize,
    h: usize,
    tune: KernelTuning,
    launch: Launch<'_>,
) -> Result<KernelTime> {
    if w < MIN_DIM || h < MIN_DIM {
        return Err(Error::InvalidKernelArgs {
            kernel: "downscale".into(),
            detail: format!("shape {w}x{h} below the {MIN_DIM}x{MIN_DIM} minimum"),
        });
    }
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let desc = grid2d("downscale", wd, hd);
    let src = src.clone();
    let access = summarize(&launch, &desc, |groups| {
        downscale_access(&desc, groups, &SrcInfo::of(&src), down.info(), w, h, tune)
    });
    let dview = down.write_view();
    launch.dispatch_rows(q, &desc, access, &[down], move |rc| {
        // Row-segment form: each output row of a group reads its four
        // source rows as contiguous slices and accumulates the 4×4 block
        // sums in the same dy-major/dx-minor order as
        // [`math::downscale_pixel`] (bit-identical results). Ragged blocks
        // (right column with w % 4 != 0, bottom row with h % 4 != 0) fall
        // back to per-element loads of the pixels that exist, in the same
        // dy-major order as the CPU partial-block path. Each output row is
        // walked across all of the row's groups before the next.
        let gw = rc.group_size[0];
        let mut scratch = [0.0f32; super::GROUP_2D[0]];
        for ly in 0..rc.group_size[1] {
            let j = rc.global_y(ly);
            if j >= hd {
                break;
            }
            let bh = (h - SCALE * j).min(SCALE);
            for gx in rc.groups.clone() {
                rc.begin_item(gx, [0, ly]);
                let x_start = gx * gw;
                if x_start >= wd {
                    break;
                }
                let x_end = (x_start + gw).min(wd);
                // Columns whose 4-wide, 4-tall source block is complete; a
                // short bottom row makes every block in the segment partial.
                let full_end = if bh == SCALE {
                    x_end.min(w / SCALE)
                } else {
                    x_start
                };
                if full_end > x_start {
                    let span = full_end - x_start;
                    let row_out = &mut scratch[..span];
                    let rows: [&[f32]; SCALE] = std::array::from_fn(|dy| {
                        src.view.slice_raw(
                            src.idx((SCALE * x_start) as isize, (SCALE * j + dy) as isize),
                            SCALE * span,
                        )
                    });
                    for (i, o) in row_out.iter_mut().enumerate() {
                        let mut s = 0.0f32;
                        for row in &rows {
                            for dx in 0..SCALE {
                                s += row[SCALE * i + dx];
                            }
                        }
                        *o = s * (1.0 / 16.0);
                    }
                    dview.set_span_raw(j * wd + x_start, row_out);
                }
                for i in full_end..x_end {
                    let bw = (w - SCALE * i).min(SCALE);
                    let mut s = 0.0f32;
                    for dy in 0..bh {
                        for dx in 0..bw {
                            s += src.view.get_raw(
                                src.idx((SCALE * i + dx) as isize, (SCALE * j + dy) as isize),
                            );
                        }
                    }
                    dview.set_raw(j * wd + i, s * (1.0 / (bw * bh) as f32));
                }
            }
        }
    })
}

/// Closed-form access summary of the downscale dispatch: full 4×4 blocks
/// read their source rows as slices (16 loads per block, exact); the
/// ragged right column and bottom row fall back to per-element loads of
/// the pixels that exist. Every covered downscaled row is written in full.
/// A full block costs 15 adds and a mul plus index arithmetic; a ragged
/// block of `k` samples costs `k - 1` adds and the same mul and index
/// arithmetic.
pub(crate) fn downscale_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    src: &SrcInfo,
    down: BufRef,
    w: usize,
    h: usize,
    tune: KernelTuning,
) -> AccessSummary {
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let rows = covered_rows(desc, &groups, hd);
    let nr = rows.len();
    let mut s = AccessSummary::new(desc, groups);
    if nr == 0 {
        return s;
    }
    s.push(AccessWindow::write(down, rows.start * wd, wd).by_y(nr, wd));
    // Covered rows whose blocks are 4 tall (a short bottom row is the only
    // exception, and only when h is not a multiple of 4).
    let njf = rows.end.min(h / SCALE).saturating_sub(rows.start);
    let fc = w / SCALE;
    let bw_tail = w % SCALE;
    if njf > 0 {
        if fc > 0 {
            s.push(
                AccessWindow::read(
                    src.buf.clone(),
                    src.idx(0, (SCALE * rows.start) as isize),
                    SCALE * fc,
                )
                .by_x(SCALE, src.pitch)
                .by_y(njf, SCALE * src.pitch),
            );
        }
        if bw_tail > 0 {
            s.push(
                AccessWindow::read(
                    src.buf.clone(),
                    src.idx((SCALE * fc) as isize, (SCALE * rows.start) as isize),
                    bw_tail,
                )
                .by_x(SCALE, src.pitch)
                .by_y(njf, SCALE * src.pitch),
            );
        }
    }
    let bottom = !h.is_multiple_of(SCALE) && rows.contains(&(hd - 1));
    let bh = h % SCALE;
    if bottom {
        s.push(
            AccessWindow::read(src.buf.clone(), src.idx(0, (SCALE * (hd - 1)) as isize), w)
                .by_x(bh, src.pitch),
        );
    }
    let n_full = (njf * fc) as u64;
    let tail_cols = (wd - fc) as u64;
    let tail_reads = (njf as u64) * tail_cols * (bw_tail as u64) * SCALE as u64
        + if bottom { (w * bh) as u64 } else { 0 };
    let tail_stores = (njf as u64) * tail_cols + if bottom { wd as u64 } else { 0 };
    s.charge_global_n(64, 0, 4, 0, n_full);
    s.charge_global_n(4, 0, 0, 0, tail_reads);
    s.charge_global_n(0, 0, 4, 0, tail_stores);
    // Each ragged block is one store; its samples are its reads.
    let idx = tune.idx_ops();
    let c = &mut s.charged;
    c.charge_ops_n(&OpCounts::ZERO.adds(15).muls(1).plus(&idx), n_full);
    c.charge_ops_n(&OpCounts::ZERO.adds(1), tail_reads - tail_stores);
    c.charge_ops_n(&OpCounts::ZERO.muls(1).plus(&idx), tail_stores);
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
            let desc = grid2d("downscale", w.div_ceil(SCALE), h.div_ceil(SCALE));
            let down = BufRef::f32("down", w.div_ceil(SCALE) * h.div_ceil(SCALE));
            for (src, tune) in [sources(w, h).0, sources(w, h).1].iter().zip(TUNINGS) {
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    downscale_access(&desc, g, src, down.clone(), w, h, tune)
                });
            }
        }
    }

    #[test]
    fn matches_cpu_reference_exactly() {
        let img = generate::natural(64, 48, 5);
        let (cpu_down, _) = stages::downscale(&img);

        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let orig = ctx.buffer_from("original", img.pixels());
        let down = ctx.buffer::<f32>("down", 16 * 12);
        let src = SrcImage {
            view: orig.view(),
            pitch: 64,
            pad: 0,
        };
        downscale_kernel(&mut q, &src, &down, 64, 48, KernelTuning::default()).unwrap();
        assert_eq!(down.snapshot(), cpu_down.pixels());
    }

    #[test]
    fn ragged_shapes_match_cpu_reference_exactly() {
        for (w, h) in [
            (5, 7),
            (13, 11),
            (33, 29),
            (1001 / 7, 701 / 7),
            (3, 3),
            (66, 18),
        ] {
            let img = generate::natural(w, h, 11);
            let (cpu_down, _) = stages::downscale(&img);
            let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));

            let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
            let mut q = ctx.queue();
            let orig = ctx.buffer_from("original", img.pixels());
            let down = ctx.buffer::<f32>("down", wd * hd);
            let src = SrcImage {
                view: orig.view(),
                pitch: w,
                pad: 0,
            };
            downscale_kernel(&mut q, &src, &down, w, h, KernelTuning::default()).unwrap();
            assert_eq!(down.snapshot(), cpu_down.pixels(), "{w}x{h}");
        }
    }

    #[test]
    fn padded_source_gives_same_result() {
        let img = generate::natural(32, 32, 7);
        let (cpu_down, _) = stages::downscale(&img);

        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let padded = img.padded(1, false);
        let pbuf = ctx.buffer_from("padded", padded.pixels());
        let down = ctx.buffer::<f32>("down", 8 * 8);
        let src = SrcImage {
            view: pbuf.view(),
            pitch: 34,
            pad: 1,
        };
        downscale_kernel(&mut q, &src, &down, 32, 32, KernelTuning::default()).unwrap();
        assert_eq!(down.snapshot(), cpu_down.pixels());
    }

    #[test]
    fn charges_expected_traffic() {
        let img = generate::natural(64, 64, 1);
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let orig = ctx.buffer_from("original", img.pixels());
        let down = ctx.buffer::<f32>("down", 16 * 16);
        let src = SrcImage {
            view: orig.view(),
            pitch: 64,
            pad: 0,
        };
        downscale_kernel(&mut q, &src, &down, 64, 64, KernelTuning::default()).unwrap();
        let c = q.records()[0].counters.unwrap();
        assert_eq!(c.global_read_scalar, 16 * 16 * 16 * 4);
        assert_eq!(c.global_write_scalar, 16 * 16 * 4);
        assert_eq!(c.ops.add, 16 * 16 * (15 + 2));
    }
}
