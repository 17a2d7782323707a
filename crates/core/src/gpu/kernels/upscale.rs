//! Upscale kernels: the body ("center") in scalar and vectorized variants,
//! and the four border kernels used when the border runs on the GPU
//! (Section V-E).
//!
//! The border work is branch-heavy and tiny (O(w + h) items), which is
//! exactly why the paper runs it on the CPU for small images; the GPU
//! variant here pays four kernel launches plus divergence, reproducing
//! the crossover of Fig. 17.

use simgpu::access::{AccessSummary, AccessWindow, BufRef};
use simgpu::buffer::{Buffer, GlobalView};
use simgpu::cost::OpCounts;
use simgpu::error::{Error, Result};
use simgpu::kernel::{items, KernelDesc};
use simgpu::queue::CommandQueue;
use simgpu::timing::KernelTime;

use super::{covered_rows, grid1d, grid2d, simd, summarize, KernelTuning, Launch, GROUP_2D};
use crate::math;
use crate::params::{INTERP, MIN_DIM, SCALE};

/// Validates the shared center-kernel geometry: the downscaled grid must
/// have at least a 2×2 window somewhere (otherwise there is no interior
/// and the caller must skip the center dispatch — the border kernels cover
/// the whole image then).
fn check_center_args(kernel: &str, w: usize, h: usize, ws: usize) -> Result<(usize, usize)> {
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    if w < MIN_DIM || h < MIN_DIM || ws < w || wd < 2 || hd < 2 {
        return Err(Error::InvalidKernelArgs {
            kernel: kernel.into(),
            detail: format!(
                "shape {w}x{h} (stride {ws}) has no interior 4x4 blocks; \
                 the border kernels cover images below 5 pixels per axis"
            ),
        });
    }
    Ok((wd, hd))
}

/// Scalar upscale-center kernel: one thread per 4×4 output block,
/// interpolating its 2×2 downscaled window (paper Figs. 4–5). `ws` is the
/// device row stride of `up`; writes are clamped to the interior
/// (`x ≤ w-3`, `y ≤ h-3`), which for multiple-of-4 shapes never fires.
pub fn upscale_center_scalar_kernel(
    q: &mut CommandQueue,
    down: &GlobalView<f32>,
    up: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> Result<KernelTime> {
    upscale_center_scalar_launch(q, down, up, w, h, ws, tune, Launch::Full)
}

/// [`upscale_center_scalar_kernel`] with an explicit [`Launch`] mode (one
/// work-group row covers 16 block rows = 64 output rows).
#[allow(clippy::too_many_arguments)]
pub(crate) fn upscale_center_scalar_launch(
    q: &mut CommandQueue,
    down: &GlobalView<f32>,
    up: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
    launch: Launch<'_>,
) -> Result<KernelTime> {
    let (wd, hd) = check_center_args("upscale_center", w, h, ws)?;
    let (nx, ny) = (wd - 1, hd - 1);
    let desc = grid2d("upscale_center", nx, ny);
    let down = down.clone();
    let upv = up.write_view();
    // Segment form: blocks whose whole 4×4 output tile is interior
    // (clamp-free) share their downscaled row segments and run through the
    // interpolation spans ([`simd::interp4_span`] + [`simd::lerp_span`]),
    // hoisting the column interpolants exactly like the vectorized
    // variant — the identical multiplies/adds in the identical order, so
    // identical bits. Clamped edge blocks keep the exact per-block path.
    // Declared traffic stays the per-block pattern (four scalar loads,
    // sixteen scalar stores); the fast segment observes `2·(seg+1)` raw
    // reads against `4·seg` charged, covered by the declared ratio.
    let access = summarize(&launch, &desc, |groups| {
        upscale_center_scalar_access(&desc, groups, down.info(), up.info(), w, h, ws, tune)
    });
    launch.dispatch_rows(q, &desc, access, &[up], move |rc| {
        let gw = rc.group_size[0];
        let mut tops = [0.0f32; 4 * GROUP_2D[0]];
        let mut bots = [0.0f32; 4 * GROUP_2D[0]];
        let mut out_row = [0.0f32; 4 * GROUP_2D[0]];
        // Fully-interior block columns: all four columns
        // (`SCALE*bi + 5 <= w-3`) clamp-free.
        let fast_cols = if w >= 8 { (w - 8) / SCALE + 1 } else { 0 };
        for ly in 0..rc.group_size[1] {
            let bj = rc.global_y(ly);
            if bj >= ny {
                break;
            }
            // Fully-interior block rows: all four rows (`SCALE*bj + 5 <=
            // h-3`) clamp-free.
            let fast_row = SCALE * bj + 5 <= h - 3;
            for gx in rc.groups.clone() {
                rc.begin_item(gx, [0, ly]);
                let b_start = gx * gw;
                if b_start >= nx {
                    break;
                }
                let b_end = (b_start + gw).min(nx);
                let fast_end = if fast_row {
                    b_end.min(fast_cols)
                } else {
                    b_start
                };
                if fast_end > b_start {
                    let seg = fast_end - b_start;
                    let r0 = down.slice_raw(bj * wd + b_start, seg + 1);
                    let r1 = down.slice_raw((bj + 1) * wd + b_start, seg + 1);
                    simd::interp4_span(r0, &mut tops[..4 * seg]);
                    simd::interp4_span(r1, &mut bots[..4 * seg]);
                    for (r, [i0, i1]) in INTERP.iter().enumerate() {
                        let out = &mut out_row[..4 * seg];
                        simd::lerp_span(*i0, *i1, &tops[..4 * seg], &bots[..4 * seg], out);
                        upv.set_span_raw((SCALE * bj + 2 + r) * ws + SCALE * b_start + 2, out);
                    }
                }
                for bi in fast_end.max(b_start)..b_end {
                    let d00 = down.get_raw(bj * wd + bi);
                    let d01 = down.get_raw(bj * wd + bi + 1);
                    let d10 = down.get_raw((bj + 1) * wd + bi);
                    let d11 = down.get_raw((bj + 1) * wd + bi + 1);
                    for r in 0..SCALE {
                        let y = SCALE * bj + 2 + r;
                        if y > h - 3 {
                            break;
                        }
                        for c in 0..SCALE {
                            let x = SCALE * bi + 2 + c;
                            if x > w - 3 {
                                break;
                            }
                            upv.set_raw(y * ws + x, math::upscale_value(d00, d01, d10, d11, r, c));
                        }
                    }
                }
            }
        }
    })
}

/// Closed-form access summary of the scalar upscale-center dispatch.
///
/// Fully-interior ("fast") block rows are the prefix `4·bj + 5 ≤ h - 3`;
/// within them the fast column segments read two `(seg+1)`-wide downscaled
/// row slices per work-group column and write one 4-row strided tile,
/// while the ragged right-edge blocks keep per-element loads and clamped
/// stores. The clamped bottom block row (at most one) is fully
/// per-element. Every interpolated value costs 6 mul + 3 add, every block
/// its index arithmetic.
#[allow(clippy::too_many_arguments)]
pub(crate) fn upscale_center_scalar_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    down: BufRef,
    up: BufRef,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> AccessSummary {
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let (nx, ny) = (wd - 1, hd - 1);
    let rows = covered_rows(desc, &groups, ny);
    let mut s = AccessSummary::new(desc, groups);
    if rows.is_empty() {
        return s;
    }
    // Fast block rows are the prefix [0, fr); fast block columns [0, fc).
    let fr = if h >= 8 { (h - 8) / SCALE + 1 } else { 0 };
    let nfr = rows.end.min(fr).saturating_sub(rows.start);
    let fc = if w >= 8 { (w - 8) / SCALE + 1 } else { 0 };
    // Clamped store width of block column bi: x = 4·bi + 2 + c, c while
    // x ≤ w - 3 (4 for fast columns, shorter at the ragged right edge).
    let cw = |bi: usize| (w - 4).saturating_sub(SCALE * bi).min(SCALE);
    let cw_all: usize = (0..nx).map(cw).sum();
    let mut slow_loads = 0u64;
    let mut slow_stores = 0u64;
    if nfr > 0 {
        // Fast segments: two (seg+1)-wide row slices per work-group column
        // per block row, one 4-row output tile over all fast columns.
        let mut b_start = 0;
        while b_start < fc {
            let seg = (b_start + GROUP_2D[0]).min(fc) - b_start;
            s.push(
                AccessWindow::read(down.clone(), rows.start * wd + b_start, seg + 1)
                    .by_x(2, wd)
                    .by_y(nfr, wd),
            );
            b_start += GROUP_2D[0];
        }
        if fc > 0 {
            s.push(
                AccessWindow::write(up.clone(), (SCALE * rows.start + 2) * ws + 2, SCALE * fc)
                    .by_x(SCALE, ws)
                    .by_y(nfr, SCALE * ws),
            );
        }
        // Ragged right-edge blocks on fast rows: per-block 2×2 loads and
        // clamped stores.
        let nsx = nx - fc;
        if nsx > 0 {
            for j in 0..2 {
                s.push(
                    AccessWindow::read(down.clone(), (rows.start + j) * wd + fc, 2)
                        .by_x(nsx, 1)
                        .by_y(nfr, wd),
                );
            }
            slow_loads += 4 * (nsx * nfr) as u64;
            for bi in fc..nx {
                let c = cw(bi);
                if c > 0 {
                    s.push(
                        AccessWindow::write(
                            up.clone(),
                            (SCALE * rows.start + 2) * ws + SCALE * bi + 2,
                            c,
                        )
                        .by_x(SCALE, ws)
                        .by_y(nfr, SCALE * ws),
                    );
                    slow_stores += (SCALE * c * nfr) as u64;
                }
            }
        }
    }
    // Clamped bottom block rows (at most one): every block per-element.
    for bj in rows.start.max(fr)..rows.end {
        let rh = (h - 4).saturating_sub(SCALE * bj).min(SCALE);
        for j in 0..2 {
            s.push(AccessWindow::read(down.clone(), (bj + j) * wd, 2).by_x(nx, 1));
        }
        slow_loads += 4 * nx as u64;
        if fc > 0 {
            s.push(
                AccessWindow::write(up.clone(), (SCALE * bj + 2) * ws + 2, SCALE * fc).by_x(rh, ws),
            );
        }
        for bi in fc..nx {
            let c = cw(bi);
            if c > 0 {
                s.push(
                    AccessWindow::write(up.clone(), (SCALE * bj + 2) * ws + SCALE * bi + 2, c)
                        .by_x(rh, ws),
                );
            }
        }
        slow_stores += (rh * cw_all) as u64;
    }
    s.charge_global_n(16, 0, 64, 0, (nfr * fc) as u64);
    s.charge_global_n(4, 0, 0, 0, slow_loads);
    s.charge_global_n(0, 0, 4, 0, slow_stores);
    let c = &mut s.charged;
    c.charge_ops_n(&INTERP_VALUE, center_values(&rows, w, h));
    c.charge_ops_n(&tune.idx_ops(), (nx * rows.len()) as u64);
    s
}

/// Arithmetic of one interpolated center value: 6 mul + 3 add.
const INTERP_VALUE: OpCounts = OpCounts {
    mul: 6,
    add: 3,
    ..OpCounts::ZERO
};

/// Interpolated values the center kernels write for the block rows
/// `rows`: the live output rows of each block row (`y ≤ h - 3`) times the
/// `w - 4` interior columns.
fn center_values(rows: &std::ops::Range<usize>, w: usize, h: usize) -> u64 {
    let live_rows: usize = rows
        .clone()
        .map(|bj| (h - 4).saturating_sub(SCALE * bj).min(SCALE))
        .sum();
    (live_rows * (w - 4)) as u64
}

/// Vectorized upscale-center kernel: one thread per *four horizontally
/// adjacent* blocks, sharing the downscaled row segments (`vload4`) and
/// writing each output row with `vstore4` (Section V-D applied to the
/// center stage).
pub fn upscale_center_vec4_kernel(
    q: &mut CommandQueue,
    down: &GlobalView<f32>,
    up: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> Result<KernelTime> {
    upscale_center_vec4_launch(q, down, up, w, h, ws, tune, Launch::Full)
}

/// [`upscale_center_vec4_kernel`] with an explicit [`Launch`] mode (one
/// work-group row covers 16 block rows = 64 output rows).
#[allow(clippy::too_many_arguments)]
pub(crate) fn upscale_center_vec4_launch(
    q: &mut CommandQueue,
    down: &GlobalView<f32>,
    up: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
    launch: Launch<'_>,
) -> Result<KernelTime> {
    let (wd, hd) = check_center_args("upscale_center_vec4", w, h, ws)?;
    let (nx, ny) = (wd - 1, hd - 1);
    let nx_threads = nx.div_ceil(4);
    let desc = grid2d("upscale_center_vec4", nx_threads, ny);
    let down = down.clone();
    let upv = up.write_view();
    let access = summarize(&launch, &desc, |groups| {
        upscale_center_vec4_access(&desc, groups, down.info(), up.info(), w, h, ws, tune)
    });
    launch.dispatch_rows(q, &desc, access, &[up], move |rc| {
        // One thread per four blocks; each block row is walked across all
        // of the row's groups, thread by thread, before the next.
        let gw = rc.group_size[0];
        for ly in 0..rc.group_size[1] {
            let bj = rc.global_y(ly);
            if bj >= ny {
                break;
            }
            for t in rc.groups.start * gw..rc.groups.end * gw {
                rc.begin_item(t / gw, [t % gw, ly]);
                let bi0 = 4 * t;
                if bi0 >= nx {
                    break;
                }
                // Fast path: all four blocks exist, the 5-wide row segments
                // are in bounds, and the whole 16×4 output tile is interior
                // (the two clamp conditions are automatically true for
                // multiple-of-4 shapes).
                if bi0 + 3 < nx && SCALE * bi0 + 17 <= w - 3 && SCALE * bj + 5 <= h - 3 {
                    // `upscale_value` is evaluated with the column
                    // interpolants hoisted out of the row loop — the identical
                    // multiplies/adds in the identical order, each computed
                    // once instead of four times — and the four vstore4s of
                    // one output row written as a 16-wide span so the host
                    // loop autovectorizes.
                    let r0 = down.slice_raw(bj * wd + bi0, 5);
                    let r1 = down.slice_raw((bj + 1) * wd + bi0, 5);
                    let mut tops = [0.0f32; 16];
                    let mut bots = [0.0f32; 16];
                    simd::interp4_span(r0, &mut tops);
                    simd::interp4_span(r1, &mut bots);
                    let mut out16 = [0.0f32; 16];
                    for (r, [i0, i1]) in INTERP.iter().enumerate() {
                        simd::lerp_span(*i0, *i1, &tops, &bots, &mut out16);
                        upv.set_span_raw((SCALE * bj + 2 + r) * ws + SCALE * bi0 + 2, &out16);
                    }
                    continue;
                }
                // Load the two downscaled row segments covering blocks
                // bi0 .. bi0+3: columns bi0 .. bi0+4 (the 5th column is only
                // needed — and only in bounds — when block bi0+3 exists).
                let mut rows = [[0.0f32; 5]; 2];
                for (dr, row) in rows.iter_mut().enumerate() {
                    let base = (bj + dr) * wd;
                    if bi0 + 3 < wd {
                        // Aligned interior: one vload4 + one scalar.
                        down.read_into(base + bi0, &mut row[..4]);
                        if bi0 + 4 < wd {
                            row[4] = down.get_raw(base + bi0 + 4);
                        }
                    } else {
                        // Row tail (wd not a multiple of 4): scalar loads of
                        // whatever columns exist.
                        let cnt = wd - bi0;
                        down.read_into(base + bi0, &mut row[..cnt]);
                    }
                }
                for k in 0..4 {
                    let bi = bi0 + k;
                    if bi >= nx {
                        break;
                    }
                    let d00 = rows[0][k];
                    let d01 = rows[0][k + 1];
                    let d10 = rows[1][k];
                    let d11 = rows[1][k + 1];
                    for r in 0..SCALE {
                        let y = SCALE * bj + 2 + r;
                        if y > h - 3 {
                            break;
                        }
                        let x0 = SCALE * bi + 2;
                        if x0 + 3 <= w - 3 {
                            // Whole 4-wide output row is interior: one vstore4
                            // (the only case for multiple-of-4 shapes).
                            let mut out = [0.0f32; 4];
                            for (c, slot) in out.iter_mut().enumerate() {
                                *slot = math::upscale_value(d00, d01, d10, d11, r, c);
                            }
                            upv.set4_raw(y * ws + x0, out);
                        } else {
                            // Ragged right edge: clamped scalar stores.
                            for c in 0..SCALE {
                                let x = x0 + c;
                                if x > w - 3 {
                                    break;
                                }
                                upv.set_raw(
                                    y * ws + x,
                                    math::upscale_value(d00, d01, d10, d11, r, c),
                                );
                            }
                        }
                    }
                }
            }
        }
    })
}

/// Closed-form access summary of the vectorized upscale-center dispatch.
///
/// Fast threads (all four blocks present, segments and tiles interior)
/// read two 5-wide strided slices and write one 16-wide 4-row tile each;
/// slow threads mirror the kernel's per-thread fallback (vload4 + scalar
/// tail loads, vstore4 or clamped scalar stores per block), with charges
/// split by scalar/vector class as an OpenCL kernel's `vload4`/`vstore4`
/// and scalar accesses would issue them. The charge is exact, so the
/// ratio stays 1. Every interpolated value costs 6 mul + 3 add (the fast
/// path hoists shared factors but is charged the same recipe), every
/// thread four compares and its index arithmetic.
#[allow(clippy::too_many_arguments)]
pub(crate) fn upscale_center_vec4_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    down: BufRef,
    up: BufRef,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> AccessSummary {
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let (nx, ny) = (wd - 1, hd - 1);
    let nt = nx.div_ceil(4);
    let rows = covered_rows(desc, &groups, ny);
    let mut s = AccessSummary::new(desc, groups);
    if rows.is_empty() {
        return s;
    }
    let fr = if h >= 8 { (h - 8) / SCALE + 1 } else { 0 };
    let nfr = rows.end.min(fr).saturating_sub(rows.start);
    // Fast thread columns are a prefix: all four blocks exist
    // (4t + 3 < nx) and the 16-wide tile is interior (16t + 17 ≤ w - 3).
    let c1 = if nx >= 4 { (nx - 4) / 4 + 1 } else { 0 };
    let c2 = if w >= 20 { (w - 20) / 16 + 1 } else { 0 };
    let ftc = c1.min(c2);
    let cw = |bi: usize| (w - 4).saturating_sub(SCALE * bi).min(SCALE);
    let (mut sload, mut vload, mut sstore, mut vstore) = (0u64, 0u64, 0u64, 0u64);
    if nfr > 0 && ftc > 0 {
        for j in 0..2 {
            s.push(
                AccessWindow::read(down.clone(), (rows.start + j) * wd, 5)
                    .by_x(ftc, 4)
                    .by_y(nfr, wd),
            );
        }
        s.push(
            AccessWindow::write(up.clone(), (SCALE * rows.start + 2) * ws + 2, 16 * ftc)
                .by_x(SCALE, ws)
                .by_y(nfr, SCALE * ws),
        );
    }
    // One slow thread: two row segments in (vector body + scalar tail),
    // per-block vstore4 or clamped scalar stores out, repeated down `nyc`
    // block rows with `rh` live output rows each.
    let mut slow_thread = |s: &mut AccessSummary, t: usize, bj0: usize, nyc: usize, rh: usize| {
        let bi0 = 4 * t;
        for j in 0..2 {
            let base = (bj0 + j) * wd + bi0;
            if bi0 + 3 < wd {
                s.push(AccessWindow::read(down.clone(), base, 4).by_y(nyc, wd));
                vload += nyc as u64;
                if bi0 + 4 < wd {
                    s.push(AccessWindow::read(down.clone(), base + 4, 1).by_y(nyc, wd));
                    sload += nyc as u64;
                }
            } else {
                let cnt = wd - bi0;
                s.push(AccessWindow::read(down.clone(), base, cnt).by_y(nyc, wd));
                sload += (cnt * nyc) as u64;
            }
        }
        for k in 0..4 {
            let bi = bi0 + k;
            if bi >= nx {
                break;
            }
            let x0 = SCALE * bi + 2;
            if x0 + 3 <= w - 3 {
                s.push(
                    AccessWindow::write(up.clone(), (SCALE * bj0 + 2) * ws + x0, 4)
                        .by_x(rh, ws)
                        .by_y(nyc, SCALE * ws),
                );
                vstore += (rh * nyc) as u64;
            } else {
                let c = cw(bi);
                if c > 0 {
                    s.push(
                        AccessWindow::write(up.clone(), (SCALE * bj0 + 2) * ws + x0, c)
                            .by_x(rh, ws)
                            .by_y(nyc, SCALE * ws),
                    );
                    sstore += (c * rh * nyc) as u64;
                }
            }
        }
    };
    if nfr > 0 {
        for t in ftc..nt {
            slow_thread(&mut s, t, rows.start, nfr, SCALE);
        }
    }
    for bj in rows.start.max(fr)..rows.end {
        let rh = (h - 4).saturating_sub(SCALE * bj).min(SCALE);
        for t in 0..nt {
            slow_thread(&mut s, t, bj, 1, rh);
        }
    }
    s.charge_global_n(8, 32, 0, 256, (nfr * ftc) as u64);
    s.charge_global_n(4, 0, 0, 0, sload);
    s.charge_global_n(0, 16, 0, 0, vload);
    s.charge_global_n(0, 0, 4, 0, sstore);
    s.charge_global_n(0, 0, 0, 16, vstore);
    let c = &mut s.charged;
    c.charge_ops_n(&INTERP_VALUE, center_values(&rows, w, h));
    c.charge_ops_n(
        &OpCounts::ZERO.cmps(4).plus(&tune.idx_ops()),
        (nt * rows.len()) as u64,
    );
    s
}

/// Dispatches the four GPU border kernels (top/bottom rows, left/right
/// columns), matching the CPU border bit-exactly. `ws` is the device row
/// stride of `up`. Always four dispatches, for any shape ≥ 3×3: a
/// single-column downscaled grid replicates its one value across the
/// border rows, and a single-row grid leaves the vertical column kernels
/// with no items (the rows cover everything).
pub fn upscale_border_gpu(
    q: &mut CommandQueue,
    down: &GlobalView<f32>,
    up: &Buffer<f32>,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> Result<Vec<KernelTime>> {
    if w < MIN_DIM || h < MIN_DIM || ws < w {
        return Err(Error::InvalidKernelArgs {
            kernel: "upscale_border".into(),
            detail: format!("shape {w}x{h} (stride {ws}) below the {MIN_DIM}x{MIN_DIM} minimum"),
        });
    }
    let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
    let mut times = Vec::with_capacity(4);

    // Horizontal border rows: (name, source downscaled row, dest row).
    for (name, src_row, dst_row) in [
        ("upscale_border_top", 0usize, 0usize),
        ("upscale_border_bottom", hd - 1, h - 2),
    ] {
        let n_items = (wd - 1).max(1);
        let desc = grid1d(name, n_items, 64);
        let down = down.clone();
        let upv = up.write_view();
        let companion = if dst_row == 0 { 1 } else { h - 1 };
        let access = upscale_border_row_access(
            &desc,
            down.info(),
            up.info(),
            w,
            ws,
            src_row,
            dst_row,
            companion,
            tune,
        );
        let t = Launch::Full.dispatch(q, &desc, access, &[up], move |g| {
            for l in items(g.group_size) {
                g.begin_item(l);
                let [bi, _] = g.global_id(l);
                if bi >= n_items {
                    continue;
                }
                if wd == 1 {
                    // Single downscaled column: no pair to interpolate —
                    // replicate the one value across both rows, exactly as
                    // the CPU reference does.
                    let v = down.get_raw(src_row);
                    for x in 0..w {
                        upv.set_raw(dst_row * ws + x, v);
                        upv.set_raw(companion * ws + x, v);
                    }
                    continue;
                }
                let a = down.get_raw(src_row * wd + bi);
                let b = down.get_raw(src_row * wd + bi + 1);
                let mut vals = [0.0f32; SCALE];
                for (ph, v) in vals.iter_mut().enumerate() {
                    *v = math::border_interp(a, b, ph);
                }
                for (ph, &v) in vals.iter().enumerate() {
                    let x = SCALE * bi + 2 + ph;
                    if x <= w - 3 {
                        upv.set_raw(dst_row * ws + x, v);
                        upv.set_raw(companion * ws + x, v);
                    }
                }
                if bi == 0 {
                    // Outer-left columns copy the phase-0 value.
                    for x in 0..2 {
                        upv.set_raw(dst_row * ws + x, vals[0]);
                        upv.set_raw(companion * ws + x, vals[0]);
                    }
                }
                if bi == wd - 2 {
                    // Outer-right columns copy the value at x = w-3 (the
                    // tail phase; 3 for multiple-of-4 widths).
                    let v = vals[w + 3 - SCALE * wd];
                    for x in [w - 2, w - 1] {
                        upv.set_raw(dst_row * ws + x, v);
                        upv.set_raw(companion * ws + x, v);
                    }
                }
            }
        })?;
        times.push(t);
    }

    // Vertical border columns for rows 2 ..= h-3 (empty when the
    // downscaled grid has a single row: the border rows covered them).
    for (name, src_col, dst_col) in [
        ("upscale_border_left", 0usize, 0usize),
        ("upscale_border_right", wd - 1, w - 2),
    ] {
        let n_items = (hd - 1).max(1);
        let desc = grid1d(name, n_items, 64);
        let down = down.clone();
        let upv = up.write_view();
        let companion = if dst_col == 0 { 1 } else { w - 1 };
        let access = upscale_border_col_access(
            &desc,
            down.info(),
            up.info(),
            wd,
            h,
            ws,
            src_col,
            dst_col,
            companion,
            tune,
        );
        let t = Launch::Full.dispatch(q, &desc, access, &[up], move |g| {
            for l in items(g.group_size) {
                g.begin_item(l);
                let [bj, _] = g.global_id(l);
                if bj >= hd - 1 {
                    continue;
                }
                let a = down.get_raw(bj * wd + src_col);
                let b = down.get_raw((bj + 1) * wd + src_col);
                for ph in 0..SCALE {
                    let y = SCALE * bj + 2 + ph;
                    if y > h - 3 {
                        break;
                    }
                    let v = math::border_interp(a, b, ph);
                    upv.set_raw(y * ws + dst_col, v);
                    upv.set_raw(y * ws + companion, v);
                }
            }
        })?;
        times.push(t);
    }
    Ok(times)
}

/// Closed-form access summary of one horizontal border-row dispatch: item
/// `bi` loads the downscaled pair `(bi, bi+1)` of `src_row` (interior
/// columns are read twice, declared as a 2-wide sliding window) and each
/// of `x ∈ [2, w-3]` is stored exactly once per output row, with the
/// corner items adding the two outermost columns on each side. A
/// single-column downscaled grid replicates its one value across both
/// rows. Each interpolating item costs the [`border_item`] recipe, and the
/// two corner items each take an extra divergent branch; the replicating
/// item only compares.
#[allow(clippy::too_many_arguments)]
pub(crate) fn upscale_border_row_access(
    desc: &KernelDesc,
    down: BufRef,
    up: BufRef,
    w: usize,
    ws: usize,
    src_row: usize,
    dst_row: usize,
    companion: usize,
    tune: KernelTuning,
) -> AccessSummary {
    let wd = w.div_ceil(SCALE);
    let mut s = AccessSummary::new(desc, 0..desc.total_groups());
    if wd == 1 {
        s.push(AccessWindow::read(down, src_row, 1));
        s.push(AccessWindow::write(up.clone(), dst_row * ws, w));
        s.push(AccessWindow::write(up, companion * ws, w));
        s.charge_global_n(4, 0, 0, 0, 1);
        s.charge_global_n(0, 0, 4, 0, 2 * w as u64);
        s.charged
            .charge_ops_n(&OpCounts::ZERO.cmps(2).plus(&tune.idx_ops()), 1);
        return s;
    }
    s.push(AccessWindow::read(down, src_row * wd, 2).by_x(wd - 1, 1));
    for row in [dst_row, companion] {
        s.push(AccessWindow::write(up.clone(), row * ws, 2));
        s.push(AccessWindow::write(up.clone(), row * ws + 2, w - 4));
        s.push(AccessWindow::write(up.clone(), row * ws + w - 2, 2));
    }
    s.charge_global_n(4, 0, 0, 0, 2 * (wd as u64 - 1));
    s.charge_global_n(0, 0, 4, 0, 2 * w as u64);
    s.charged.charge_ops_n(&border_item(tune), wd as u64 - 1);
    s.charged.divergent_branches += 2;
    s
}

/// Arithmetic of one interpolating border item: the 4-phase lerp (8 mul +
/// 4 add), two bounds compares, and index arithmetic.
fn border_item(tune: KernelTuning) -> OpCounts {
    OpCounts::ZERO.muls(8).adds(4).cmps(2).plus(&tune.idx_ops())
}

/// Closed-form access summary of one vertical border-column dispatch: item
/// `bj` loads the downscaled pair of rows `(bj, bj+1)` at `src_col`
/// (interior rows read twice) and each `y ∈ [2, h-3]` is stored exactly
/// once to both output columns. A single-row downscaled grid leaves the
/// dispatch with no live items (the border rows already covered
/// everything). Each live item costs the [`border_item`] recipe.
#[allow(clippy::too_many_arguments)]
pub(crate) fn upscale_border_col_access(
    desc: &KernelDesc,
    down: BufRef,
    up: BufRef,
    wd: usize,
    h: usize,
    ws: usize,
    src_col: usize,
    dst_col: usize,
    companion: usize,
    tune: KernelTuning,
) -> AccessSummary {
    let hd = h.div_ceil(SCALE);
    let mut s = AccessSummary::new(desc, 0..desc.total_groups());
    if hd < 2 {
        return s;
    }
    s.push(
        AccessWindow::read(down, src_col, 1)
            .by_x(2, wd)
            .by_y(hd - 1, wd),
    );
    s.push(AccessWindow::write(up.clone(), 2 * ws + dst_col, 1).by_y(h - 4, ws));
    s.push(AccessWindow::write(up, 2 * ws + companion, 1).by_y(h - 4, ws));
    s.charge_global_n(4, 0, 0, 0, 2 * (hd as u64 - 1));
    s.charge_global_n(0, 0, 4, 0, 2 * (h as u64 - 4));
    s.charged.charge_ops_n(&border_item(tune), hd as u64 - 1);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::stages;
    use imagekit::{generate, ImageF32};
    use simgpu::context::Context;
    use simgpu::device::DeviceSpec;

    #[test]
    fn row_splits_declare_the_whole_grid() {
        use crate::gpu::kernels::split_check::{assert_splits_merge, SHAPES, TUNINGS};
        for (w, h) in SHAPES {
            let (wd, hd) = (w.div_ceil(SCALE), h.div_ceil(SCALE));
            if wd < 2 || hd < 2 {
                continue; // no center dispatch: the border kernels cover it
            }
            let ws = crate::params::device_stride(w);
            let (down, up) = (BufRef::f32("down", wd * hd), BufRef::f32("up", ws * h));
            for tune in TUNINGS {
                let desc = grid2d("upscale_center", wd - 1, hd - 1);
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    upscale_center_scalar_access(&desc, g, down.clone(), up.clone(), w, h, ws, tune)
                });
                let desc = grid2d("upscale_center_vec4", (wd - 1).div_ceil(4), hd - 1);
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    upscale_center_vec4_access(&desc, g, down.clone(), up.clone(), w, h, ws, tune)
                });
            }
        }
    }

    fn setup(wi: usize, hi: usize, seed: u64) -> (ImageF32, ImageF32) {
        let img = generate::natural(wi, hi, seed);
        let (down, _) = stages::downscale(&img);
        let (up, _, _) = stages::upscale(&down, wi, hi);
        (down, up)
    }

    #[test]
    fn center_scalar_matches_cpu_exactly() {
        let (down, cpu_up) = setup(64, 48, 3);
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let dbuf = ctx.buffer_from("down", down.pixels());
        let up = ctx.buffer::<f32>("up", 64 * 48);
        upscale_center_scalar_kernel(
            &mut q,
            &dbuf.view(),
            &up,
            64,
            48,
            64,
            KernelTuning::default(),
        )
        .unwrap();
        // Compare interior only (border kernel not dispatched here).
        let got = ImageF32::from_vec(64, 48, up.snapshot());
        for y in 2..=48 - 3 {
            for x in 2..=64 - 3 {
                assert_eq!(got.get(x, y), cpu_up.get(x, y), "({x},{y})");
            }
        }
    }

    #[test]
    fn center_vec4_matches_scalar_exactly() {
        let (down, _) = setup(96, 64, 8);
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let dbuf = ctx.buffer_from("down", down.pixels());
        let up_a = ctx.buffer::<f32>("upA", 96 * 64);
        let up_b = ctx.buffer::<f32>("upB", 96 * 64);
        upscale_center_scalar_kernel(
            &mut q,
            &dbuf.view(),
            &up_a,
            96,
            64,
            96,
            KernelTuning::default(),
        )
        .unwrap();
        upscale_center_vec4_kernel(
            &mut q,
            &dbuf.view(),
            &up_b,
            96,
            64,
            96,
            KernelTuning::default(),
        )
        .unwrap();
        assert_eq!(up_a.snapshot(), up_b.snapshot());
    }

    #[test]
    fn center_vec4_matches_scalar_on_odd_shapes() {
        for (w, h) in [(5, 7), (13, 11), (33, 29), (97, 64), (21, 5)] {
            let ws = crate::params::device_stride(w);
            let img = generate::natural(w, h, 8);
            let (down, _) = stages::downscale(&img);
            let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
            let mut q = ctx.queue();
            let dbuf = ctx.buffer_from("down", down.pixels());
            let up_a = ctx.buffer::<f32>("upA", ws * h);
            let up_b = ctx.buffer::<f32>("upB", ws * h);
            upscale_center_scalar_kernel(
                &mut q,
                &dbuf.view(),
                &up_a,
                w,
                h,
                ws,
                KernelTuning::default(),
            )
            .unwrap();
            upscale_center_vec4_kernel(
                &mut q,
                &dbuf.view(),
                &up_b,
                w,
                h,
                ws,
                KernelTuning::default(),
            )
            .unwrap();
            assert_eq!(up_a.snapshot(), up_b.snapshot(), "{w}x{h}");
        }
    }

    #[test]
    fn border_plus_center_covers_everything_on_odd_shapes() {
        for (w, h) in [
            (5, 7),
            (7, 5),
            (13, 11),
            (33, 29),
            (3, 3),
            (3, 9),
            (9, 3),
            (4, 4),
        ] {
            let ws = crate::params::device_stride(w);
            let img = generate::natural(w, h, 5);
            let (down, _) = stages::downscale(&img);
            let (cpu_up, _, _) = stages::upscale(&down, w, h);
            let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
            let mut q = ctx.queue();
            let dbuf = ctx.buffer_from("down", down.pixels());
            let up = ctx.buffer::<f32>("up", ws * h);
            upscale_border_gpu(&mut q, &dbuf.view(), &up, w, h, ws, KernelTuning::default())
                .unwrap();
            if w.div_ceil(SCALE) > 1 && h.div_ceil(SCALE) > 1 {
                upscale_center_vec4_kernel(
                    &mut q,
                    &dbuf.view(),
                    &up,
                    w,
                    h,
                    ws,
                    KernelTuning::default(),
                )
                .unwrap();
            }
            let snap = up.snapshot();
            for y in 0..h {
                for x in 0..w {
                    assert_eq!(snap[y * ws + x], cpu_up.get(x, y), "({x},{y}) of {w}x{h}");
                }
            }
        }
    }

    #[test]
    fn border_gpu_matches_cpu_exactly() {
        let (down, cpu_up) = setup(64, 64, 4);
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let dbuf = ctx.buffer_from("down", down.pixels());
        let up = ctx.buffer::<f32>("up", 64 * 64);
        let times = upscale_border_gpu(
            &mut q,
            &dbuf.view(),
            &up,
            64,
            64,
            64,
            KernelTuning::default(),
        )
        .unwrap();
        assert_eq!(times.len(), 4);
        let got = ImageF32::from_vec(64, 64, up.snapshot());
        // Border rows (full width).
        for x in 0..64 {
            for y in [0usize, 1, 62, 63] {
                assert_eq!(got.get(x, y), cpu_up.get(x, y), "row border ({x},{y})");
            }
        }
        // Border columns for body rows.
        for y in 2..62 {
            for x in [0usize, 1, 62, 63] {
                assert_eq!(got.get(x, y), cpu_up.get(x, y), "col border ({x},{y})");
            }
        }
    }

    #[test]
    fn border_plus_center_covers_everything() {
        let (down, cpu_up) = setup(64, 48, 12);
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let dbuf = ctx.buffer_from("down", down.pixels());
        let up = ctx.buffer::<f32>("up", 64 * 48);
        upscale_border_gpu(
            &mut q,
            &dbuf.view(),
            &up,
            64,
            48,
            64,
            KernelTuning::default(),
        )
        .unwrap();
        upscale_center_vec4_kernel(
            &mut q,
            &dbuf.view(),
            &up,
            64,
            48,
            64,
            KernelTuning::default(),
        )
        .unwrap();
        assert_eq!(up.snapshot(), cpu_up.pixels());
    }

    #[test]
    fn border_kernels_launch_four_times() {
        let (down, _) = setup(64, 64, 1);
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let dbuf = ctx.buffer_from("down", down.pixels());
        let up = ctx.buffer::<f32>("up", 64 * 64);
        upscale_border_gpu(
            &mut q,
            &dbuf.view(),
            &up,
            64,
            64,
            64,
            KernelTuning::default(),
        )
        .unwrap();
        assert_eq!(q.records().len(), 4);
        assert!(q
            .records()
            .iter()
            .all(|r| r.name.starts_with("upscale_border")));
    }
}
