//! Sharpening kernels: the unfused pipeline tail (preliminary, overshoot)
//! and the fused `sharpness` kernel of Section V-B, in scalar and
//! vectorized (Section V-D) variants.
//!
//! Fusion folds pError + preliminary + overshoot into one kernel: the
//! difference value lives in a register ("the difference matrix is stored
//! in threads' registers dispersedly"), eliminating the pError and
//! preliminary global matrices and their traffic, plus two kernel
//! launches.

use simgpu::access::{AccessSummary, AccessWindow, BufRef};
use simgpu::buffer::{Buffer, GlobalView};
use simgpu::cost::OpCounts;
use simgpu::kernel::{KernelDesc, RowCtx};
use simgpu::par::WindowUnits;

use super::sobel::EdgeSource;
use super::upscale::{UpRows, UpSource};
use super::{
    body_columns, covered_rows, interior_rows, simd, unit_rows, vec4_body_columns, KernelTuning,
    RowSink, RowWindows, SrcImage, SrcInfo, GROUP_2D,
};
use crate::math;
use crate::params::SharpnessParams;

/// The unfused preliminary body, `prelim = up + strength(pEdge) · pError`,
/// one call per work-group row; it reads the unit's `up` rows from `up`
/// (a plane, or rebuilt per unit). `ws` is the device row stride of the
/// up/pEdge/pError/prelim buffers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn preliminary_body(
    up: &UpSource,
    pedge: &GlobalView<f32>,
    perr: &GlobalView<f32>,
    prelim: &Buffer<f32>,
    mean: f32,
    params: SharpnessParams,
    w: usize,
    h: usize,
    ws: usize,
) -> impl Fn(&mut RowCtx) + Send + Sync + 'static {
    let out = prelim.write_view();
    let (up, pedge, perr) = (up.clone(), pedge.clone(), perr.clone());
    // Row-span form: three contiguous loads and one store per pixel, run
    // span-at-a-time through [`simd::preliminary_span`].
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
                    let i = y * ws + x_start;
                    let row_out = &mut scratch[..span];
                    simd::preliminary_span(
                        up.span(y, x_start, span),
                        pedge.slice_raw(i, span),
                        perr.slice_raw(i, span),
                        row_out,
                        mean,
                        &params,
                    );
                    out.set_span_raw(i, row_out);
                }
            }
        })
    }
}

/// Closed-form access summary of the preliminary dispatch: per covered
/// row, `w`-element reads of the up/pEdge/pError rows and a `w`-element
/// write of the prelim row. Charges are exact (ratio 1): 12 B read and
/// 4 B written per pixel, the strength curve (div + add + pow + mul +
/// 2 cmp) and the preliminary mul + add, plus a divergent clamp without
/// built-in selects.
#[allow(clippy::too_many_arguments)]
pub(crate) fn preliminary_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    up: &BufRef,
    pedge: &BufRef,
    perr: &BufRef,
    prelim: &BufRef,
    w: usize,
    h: usize,
    ws: usize,
    tune: KernelTuning,
) -> AccessSummary {
    let rows = covered_rows(desc, &groups, h);
    let nr = rows.len();
    let mut s = AccessSummary::new(desc, groups);
    if nr > 0 {
        s.push(AccessWindow::read(up.clone(), rows.start * ws, w).by_y(nr, ws));
        s.push(AccessWindow::read(pedge.clone(), rows.start * ws, w).by_y(nr, ws));
        s.push(AccessWindow::read(perr.clone(), rows.start * ws, w).by_y(nr, ws));
        s.push(AccessWindow::write(prelim.clone(), rows.start * ws, w).by_y(nr, ws));
        let n = (w * nr) as u64;
        s.charge_global_n(12, 0, 4, 0, n);
        let per_item = OpCounts::ZERO.divs(1).adds(2).pows(1).muls(2).cmps(2);
        s.charged.charge_ops_n(&per_item.plus(&tune.idx_ops()), n);
        s.charged.divergent_branches += n * tune.clamp_divergence();
    }
    s
}

/// The unfused overshoot body (paper Fig. 8), one call per work-group
/// row: it clamps the preliminary matrix against the 3×3 envelope of the
/// original and stores its rows through `out` (the final plane, or the
/// caller's frame).
pub(crate) fn overshoot_body(
    src: &SrcImage,
    prelim: &GlobalView<f32>,
    out: RowSink,
    w: usize,
    h: usize,
    ws: usize,
    params: SharpnessParams,
) -> impl Fn(&mut RowCtx) + Send + Sync + 'static {
    let src = src.clone();
    let prelim = prelim.clone();
    // Row-span form: the body clamp runs over contiguous spans through
    // [`simd::overshoot_span`]. Declared traffic stays the per-pixel
    // pattern (prelim + nine window loads + store per body pixel; prelim +
    // store per border pixel); the observed raw reads per body row segment
    // are one prelim span plus three `(blen+2)`-wide source slices, below
    // the charged windows for every `blen >= 1`, covered by the exact
    // overlapping-window ratio of the access summary.
    move |rc| {
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
                let i = y * ws + x_start;
                let prow = prelim.slice_raw(i, span);
                let row_out = &mut scratch[..span];
                if y == 0 || y == h - 1 || w <= 2 {
                    for (o, &p) in row_out.iter_mut().zip(prow) {
                        *o = math::final_border(p);
                    }
                } else {
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
                        simd::overshoot_span(
                            r0,
                            r1,
                            r2,
                            &prow[body_lo - x_start..body_hi - x_start],
                            &mut row_out[body_lo - x_start..body_hi - x_start],
                            &params,
                        );
                    }
                    // `w >= 3` here, so the two border columns are distinct.
                    for x in [0, w - 1] {
                        if x >= x_start && x < x_end {
                            row_out[x - x_start] = math::final_border(prow[x - x_start]);
                        }
                    }
                }
                out.put(y, x_start, row_out);
            }
        }
    }
}

/// Closed-form access summary of the overshoot dispatch: per covered row,
/// a `w`-element prelim read and final write; per interior row, three
/// `(blen+2)`-wide source slices per body column group (the 3×3 halo).
/// A body pixel is charged prelim + nine window loads (40 B), a store and
/// the envelope clamp; a border pixel a prelim load, a store and four
/// compares. Without built-in selects each body pixel diverges twice and
/// each border pixel once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn overshoot_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    src: &SrcInfo,
    prelim: &BufRef,
    out: &BufRef,
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
    s.push(AccessWindow::read(prelim.clone(), rows.start * ws, w).by_y(nr, ws));
    s.push(AccessWindow::write(out.clone(), rows.start * ws, w).by_y(nr, ws));
    let ir = interior_rows(&rows, w, h);
    let nir = ir.len();
    if nir > 0 {
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
    let n_body = (nir as u64) * (w.saturating_sub(2) as u64);
    let n_border = (w * nr) as u64 - n_body;
    s.charge_global_n(40, 0, 4, 0, n_body);
    s.charge_global_n(4, 0, 4, 0, n_border);
    let c = &mut s.charged;
    c.charge_ops_n(
        &OpCounts::ZERO
            .cmps(20)
            .muls(1)
            .adds(1)
            .plus(&tune.idx_ops()),
        n_body,
    );
    c.charge_ops_n(&OpCounts::ZERO.cmps(4), n_border);
    c.divergent_branches += (2 * n_body + n_border) * tune.clamp_divergence();
    s
}

/// Computes one fused-sharpness pixel: pError, strength, preliminary and
/// overshoot in registers. `n9` is the 3×3 original neighbourhood
/// (centre at index 4); border pixels pass `body = false` and skip the
/// envelope clamp.
#[inline]
fn fused_pixel(
    n9: &[f32; 9],
    u: f32,
    e: f32,
    mean: f32,
    params: &SharpnessParams,
    body: bool,
) -> f32 {
    let err = n9[4] - u;
    let p = math::preliminary(u, e, err, mean, params);
    if body {
        let (mn, mx) = math::minmax3x3(n9);
        math::overshoot(p, mn, mx, params)
    } else {
        math::final_border(p)
    }
}

/// The fused sharpness body (scalar), one call per work-group row: per
/// pixel, it loads the 3×3 original window, the upscaled value and the
/// pEdge value and produces the final sharpened pixel directly. It reads
/// the unit's `up` rows from `up` and its pEdge values from `pedge` (each
/// a plane, or rebuilt per unit) and stores through `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sharpness_fused_body(
    src: &SrcImage,
    up: &UpSource,
    pedge: &EdgeSource,
    out: RowSink,
    mean: f32,
    params: SharpnessParams,
    w: usize,
    h: usize,
) -> impl Fn(&mut RowCtx) + Send + Sync + 'static {
    let src = src.clone();
    let (up, pedge) = (up.clone(), pedge.clone());
    // Row-span form, same shape as the vectorized variant below: body
    // pixels run span-at-a-time through [`simd::fused_span`], border
    // pixels through the exact `fused_pixel(body = false)` path. Declared
    // traffic stays the per-pixel pattern (up + pEdge + nine window loads
    // + store per body pixel; up + pEdge + centre + store per border
    // pixel); the observed raw reads per body row segment are the up/pEdge
    // spans plus three `(blen+2)`-wide source slices, below the charged
    // windows for every `blen >= 1`, covered by the summary's exact ratio.
    move |rc| {
        up.with_rows(unit_rows(rc, h), |up| {
            // One border pixel, computed exactly as `fused_pixel` with
            // `body = false` would (only the window centre matters).
            let border_pixel =
                |x: usize, y: usize, src: &SrcImage, up: &UpRows, pe: &EdgeSource| {
                    let mut n9 = [0.0f32; 9];
                    n9[4] = src.view.get_raw(src.idx(x as isize, y as isize));
                    fused_pixel(&n9, up.get(y, x), pe.border(y, x), mean, &params, false)
                };
            let gw = rc.group_size[0];
            let mut scratch = [0.0f32; GROUP_2D[0]];
            let mut pe_scratch = [0.0f32; GROUP_2D[0]];
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
                    if y == 0 || y == h - 1 || w <= 2 {
                        for (j, x) in (x_start..x_end).enumerate() {
                            row_out[j] = border_pixel(x, y, &src, up, &pedge);
                        }
                    } else {
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
                            let up_row = up.span(y, body_lo, blen);
                            let pe_row =
                                pedge.body(y, body_lo, [r0, r1, r2], &mut pe_scratch[..blen]);
                            simd::fused_span(
                                r0,
                                r1,
                                r2,
                                up_row,
                                pe_row,
                                &mut row_out[body_lo - x_start..body_hi - x_start],
                                mean,
                                &params,
                            );
                        }
                        // `w >= 3` here, so the two border columns are distinct.
                        for x in [0, w - 1] {
                            if x >= x_start && x < x_end {
                                row_out[x - x_start] = border_pixel(x, y, &src, up, &pedge);
                            }
                        }
                    }
                    out.put(y, x_start, row_out);
                }
            }
        })
    }
}

/// Closed-form access summary of the fused sharpness dispatch: per covered
/// row, full up/pEdge reads and a full final write (body spans plus the
/// two border columns union to the whole row); source reads are the 3×3
/// halo slices over interior rows, single-pixel centre reads on the border
/// columns, and full centre rows on the border rows. A body pixel is
/// charged up + pEdge + nine window loads (44 B), a store, pError (1 add),
/// strength/preliminary, minmax (16 cmp), the overshoot branches and
/// clamps (6 cmp) and the excursion (mul + add); a border pixel up +
/// pEdge + centre (12 B), a store and the border recipe. Without built-in
/// selects each body pixel diverges twice and each border pixel once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sharpness_fused_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    src: &SrcInfo,
    up: &BufRef,
    pedge: &BufRef,
    out: &BufRef,
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
    s.push(AccessWindow::read(up.clone(), rows.start * ws, w).by_y(nr, ws));
    s.push(AccessWindow::read(pedge.clone(), rows.start * ws, w).by_y(nr, ws));
    s.push(AccessWindow::write(out.clone(), rows.start * ws, w).by_y(nr, ws));
    if w <= 2 {
        // Every covered row runs the border path: one centre read per pixel.
        s.push(
            AccessWindow::read(src.buf.clone(), src.idx(0, rows.start as isize), w)
                .by_y(nr, src.pitch),
        );
    } else {
        if rows.contains(&0) {
            s.push(AccessWindow::read(src.buf.clone(), src.idx(0, 0), w));
        }
        if h >= 2 && rows.contains(&(h - 1)) {
            s.push(AccessWindow::read(
                src.buf.clone(),
                src.idx(0, h as isize - 1),
                w,
            ));
        }
        let ir = interior_rows(&rows, w, h);
        let nir = ir.len();
        if nir > 0 {
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
            // Border-column centre reads at x = 0 and x = w-1.
            s.push(
                AccessWindow::read(src.buf.clone(), src.idx(0, ir.start as isize), 1)
                    .by_y(nir, src.pitch),
            );
            s.push(
                AccessWindow::read(
                    src.buf.clone(),
                    src.idx(w as isize - 1, ir.start as isize),
                    1,
                )
                .by_y(nir, src.pitch),
            );
        }
    }
    let nir = interior_rows(&rows, w, h).len();
    let n_body = (nir as u64) * (w.saturating_sub(2) as u64);
    let n_border = (w * nr) as u64 - n_body;
    s.charge_global_n(44, 0, 4, 0, n_body);
    s.charge_global_n(12, 0, 4, 0, n_border);
    let c = &mut s.charged;
    let per_body = OpCounts::ZERO.adds(4).divs(1).pows(1).muls(3).cmps(24);
    c.charge_ops_n(&per_body.plus(&tune.idx_ops()), n_body);
    c.charge_ops_n(
        &OpCounts::ZERO.adds(3).divs(1).pows(1).muls(2).cmps(6),
        n_border,
    );
    c.divergent_branches += (2 * n_body + n_border) * tune.clamp_divergence();
    s
}

/// The fused sharpness body, vectorized, one call per work-group row:
/// four adjacent pixels per item; the 3×6 window of the padded source,
/// the upscaled and the pEdge quads are loaded with `vload4` and the
/// result written with one `vstore4`. It reads `up` and pEdge as
/// [`sharpness_fused_body`] does and stores through `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sharpness_fused_vec4_body(
    src: &SrcImage,
    up: &UpSource,
    pedge: &EdgeSource,
    out: RowSink,
    mean: f32,
    params: SharpnessParams,
    w: usize,
    h: usize,
    ws: usize,
) -> impl Fn(&mut RowCtx) + Send + Sync + 'static {
    let src = src.clone();
    let (up, pedge) = (up.clone(), pedge.clone());
    // Charged loads are 26 per thread over (ws/4)·h threads; the summary
    // declares the distinct-window events actually observed (3 source
    // halo slices + up/pEdge rows), and carries the exact ratio between
    // the two.
    move |rc| {
        up.with_rows(unit_rows(rc, h), |up| {
            // One border pixel, computed exactly as `fused_pixel` with
            // `body = false` would (only the window centre matters).
            let border_pixel =
                |x: usize, y: usize, src: &SrcImage, up: &UpRows, pe: &EdgeSource| {
                    let mut n9 = [0.0f32; 9];
                    n9[4] = src.view.get_raw(src.idx(x as isize, y as isize));
                    fused_pixel(&n9, up.get(y, x), pe.border(y, x), mean, &params, false)
                };
            // Each group's threads cover `4 * group_size[0]` consecutive
            // pixels per row; the work is done row-segment at a time so the
            // body loop is branch-free, each image row across the row's groups
            // before the next.
            let gw = rc.group_size[0];
            let mut scratch = [0.0f32; 4 * GROUP_2D[0]];
            let mut pe_scratch = [0.0f32; 4 * GROUP_2D[0]];
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
                    let yi = y as isize;
                    let row_out = &mut scratch[..span];
                    // Stride-padding columns beyond `w` stay zero on every row,
                    // matching the scalar kernels (which never write them).
                    row_out.fill(0.0);
                    if y == 0 || y == h - 1 {
                        for (j, x) in (x_start..x_end.min(w)).enumerate() {
                            row_out[j] = border_pixel(x, y, &src, up, &pedge);
                        }
                    } else {
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
                        let up_row = up.span(y, body_lo, blen);
                        let pe_row = pedge.body(y, body_lo, [r0, r1, r2], &mut pe_scratch[..blen]);
                        simd::fused_span(
                            r0,
                            r1,
                            r2,
                            up_row,
                            pe_row,
                            &mut row_out[body_lo - x_start..body_hi - x_start],
                            mean,
                            &params,
                        );
                        for x in [0, w - 1] {
                            if x >= x_start && x < x_end {
                                row_out[x - x_start] = border_pixel(x, y, &src, up, &pedge);
                            }
                        }
                    }
                    out.put(y, x_start, row_out);
                }
            }
        })
    }
}

/// Closed-form access summary of the vectorized fused sharpness dispatch:
/// like [`sharpness_fused_access`] but over the `ws/4 × h` thread grid —
/// writes cover the full `ws`-wide stride rows (padding columns are
/// zeroed), and the interior body spans are unconditional per column group
/// (`blen` may be zero, still issuing the two-element halo loads). Every
/// covered thread is charged the per-thread `vload4`/`vstore4` pattern —
/// 3 source vload4 (48 B) + up/pEdge vload4 (32 B) vector reads, 6 source
/// scalar loads (24 B), one vstore4 (16 B) — four pixels of fused
/// arithmetic, and without built-in selects one divergent branch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sharpness_fused_vec4_access(
    desc: &KernelDesc,
    groups: std::ops::Range<usize>,
    src: &SrcInfo,
    up: &BufRef,
    pedge: &BufRef,
    out: &BufRef,
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
    s.push(AccessWindow::read(up.clone(), rows.start * ws, w).by_y(nr, ws));
    s.push(AccessWindow::read(pedge.clone(), rows.start * ws, w).by_y(nr, ws));
    s.push(AccessWindow::write(out.clone(), rows.start * ws, ws).by_y(nr, ws));
    if rows.contains(&0) {
        s.push(AccessWindow::read(src.buf.clone(), src.idx(0, 0), w));
    }
    if h >= 2 && rows.contains(&(h - 1)) {
        s.push(AccessWindow::read(
            src.buf.clone(),
            src.idx(0, h as isize - 1),
            w,
        ));
    }
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
        s.push(
            AccessWindow::read(src.buf.clone(), src.idx(0, ir.start as isize), 1)
                .by_y(nir, src.pitch),
        );
        s.push(
            AccessWindow::read(
                src.buf.clone(),
                src.idx(w as isize - 1, ir.start as isize),
                1,
            )
            .by_y(nir, src.pitch),
        );
    }
    let n_threads = ((ws / 4) * nr) as u64;
    s.charge_global_n(24, 80, 0, 16, n_threads);
    let per_thread = OpCounts::ZERO
        .adds(16)
        .divs(4)
        .pows(4)
        .muls(12)
        .cmps(96 + 8);
    s.charged
        .charge_ops_n(&per_thread.plus(&tune.idx_ops()), n_threads);
    s.charged.divergent_branches += n_threads * tune.clamp_divergence();
    s
}

/// Window→units map of the preliminary and both fused sharpness
/// dispatches in the fused tail pass: window `w` is the group rows of its
/// rows. Group row `4w` reads `up` rows `64w` and `64w + 1`, which
/// upscale-center group row `w - 1` writes: one lag unit.
pub(crate) fn sharpness_window(win: &RowWindows, w: usize) -> WindowUnits {
    win.band(w, GROUP_2D[1], 1)
}

/// Window→units map of the overshoot dispatch in the fused tail pass over
/// an `h`-row frame. Group row `g` reads prelim rows `16g - 1 ..= 16g +
/// 16`, i.e. preliminary group rows `g - 1 ..= g + 1`, so it runs in the
/// window that holds preliminary group row `g + 1` (the last group row in
/// the last window): window `w` is group rows `4w - 1 .. 4w + 3`. Its
/// first three read the previous window's prelim rows or the
/// preliminary's lag unit `4w`.
pub(crate) fn overshoot_window(win: &RowWindows, h: usize, w: usize) -> WindowUnits {
    let per = win.rows / GROUP_2D[1];
    let first = |w: usize| {
        if w == 0 {
            0
        } else if w >= win.count {
            h.div_ceil(GROUP_2D[1])
        } else {
            per * w - 1
        }
    };
    WindowUnits {
        units: first(w)..first(w + 1),
        lag: if w > 0 { 3 } else { 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::stages;
    use crate::gpu::kernels::{grid2d, run_declared};
    use crate::gpu::program::{Buf, Geometry, KernelId};
    use imagekit::{generate, ImageF32};
    use simgpu::context::Context;
    use simgpu::device::DeviceSpec;
    use simgpu::queue::{CommandQueue, Dispatch};

    #[test]
    fn row_splits_declare_the_whole_grid() {
        use crate::gpu::kernels::split_check::{assert_splits_merge, sources, SHAPES, TUNINGS};
        for (w, h) in SHAPES {
            let ws = crate::params::device_stride(w);
            let buf = |label: &str| BufRef::f32(label, ws * h);
            let (raw, padded) = sources(w, h);
            for tune in TUNINGS {
                let desc = grid2d("preliminary", w, h);
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    let (up, pe, perr) = (buf("up"), buf("pEdge"), buf("pError"));
                    preliminary_access(&desc, g, &up, &pe, &perr, &buf("prelim"), w, h, ws, tune)
                });
                let desc = grid2d("overshoot", w, h);
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    overshoot_access(
                        &desc,
                        g,
                        &raw,
                        &buf("prelim"),
                        &buf("final"),
                        w,
                        h,
                        ws,
                        tune,
                    )
                });
                let desc = grid2d("sharpness", w, h);
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    let (up, pe, out) = (buf("up"), buf("pEdge"), buf("final"));
                    sharpness_fused_access(&desc, g, &padded, &up, &pe, &out, w, h, ws, tune)
                });
                let desc = grid2d("sharpness_vec4", ws / 4, h);
                assert_splits_merge(&desc, desc.num_groups()[0], |g| {
                    let (up, pe, out) = (buf("up"), buf("pEdge"), buf("final"));
                    sharpness_fused_vec4_access(&desc, g, &padded, &up, &pe, &out, w, h, ws, tune)
                });
            }
        }
    }

    struct Fixture {
        img: ImageF32,
        up: ImageF32,
        pedge: ImageF32,
        perr: ImageF32,
        mean: f32,
        prelim: ImageF32,
        finalimg: ImageF32,
    }

    fn fixture(w: usize, h: usize, seed: u64) -> Fixture {
        let img = generate::natural(w, h, seed);
        let (down, _) = stages::downscale(&img);
        let (up, _, _) = stages::upscale(&down, w, h);
        let (perr, _) = stages::perror(&img, &up);
        let (pedge, _) = stages::sobel(&img);
        let (mean, _) = stages::reduction(&pedge);
        let p = SharpnessParams::default();
        let (prelim, _) = stages::strength_preliminary(&up, &pedge, &perr, mean, &p);
        let (finalimg, _) = stages::overshoot_with(&img, &prelim, &p);
        Fixture {
            img,
            up,
            pedge,
            perr,
            mean,
            prelim,
            finalimg,
        }
    }

    /// The padded source of a frame of geometry `g` in `pbuf`.
    fn padded(pbuf: &Buffer<f32>, g: &Geometry) -> SrcImage {
        SrcImage {
            view: pbuf.view(),
            pitch: g.pw,
            pad: 1,
        }
    }

    /// Runs the program's preliminary dispatch of a `w × h` frame.
    #[allow(clippy::too_many_arguments)]
    fn preliminary(
        q: &mut CommandQueue,
        up: &Buffer<f32>,
        pedge: &Buffer<f32>,
        perr: &Buffer<f32>,
        prelim: &Buffer<f32>,
        mean: f32,
        p: SharpnessParams,
        (w, h): (usize, usize),
    ) {
        let g = Geometry::new(w, h);
        let bufs = [
            (Buf::Up, up),
            (Buf::PEdge, pedge),
            (Buf::PError, perr),
            (Buf::Prelim, prelim),
        ];
        let up = UpSource::Plane(up.view(), g.ws);
        let (pe, pr) = (pedge.view(), perr.view());
        run_declared(q, KernelId::Preliminary, &g, &bufs, |d, a| {
            let body = preliminary_body(&up, &pe, &pr, prelim, mean, p, w, h, g.ws);
            Dispatch::rows(d, a, body)
        })
        .unwrap();
    }

    /// Runs the program's overshoot dispatch of a `w × h` frame from the
    /// padded source `pbuf`.
    fn overshoot(
        q: &mut CommandQueue,
        pbuf: &Buffer<f32>,
        prelim: &Buffer<f32>,
        fin: &Buffer<f32>,
        p: SharpnessParams,
        (w, h): (usize, usize),
    ) {
        let g = Geometry::new(w, h);
        let bufs = [
            (Buf::Padded, pbuf),
            (Buf::Prelim, prelim),
            (Buf::Final, fin),
        ];
        let src = padded(pbuf, &g);
        run_declared(q, KernelId::Overshoot, &g, &bufs, |d, a| {
            let out = RowSink::plane(fin, g.ws);
            Dispatch::rows(
                d,
                a,
                overshoot_body(&src, &prelim.view(), out, w, h, g.ws, p),
            )
        })
        .unwrap();
    }

    /// Runs the program's fused sharpness dispatch `id` (scalar or vec4)
    /// of a `w × h` frame from the padded source `pbuf`.
    #[allow(clippy::too_many_arguments)]
    fn fused(
        q: &mut CommandQueue,
        id: KernelId,
        pbuf: &Buffer<f32>,
        up: &Buffer<f32>,
        pedge: &Buffer<f32>,
        fin: &Buffer<f32>,
        mean: f32,
        p: SharpnessParams,
        (w, h): (usize, usize),
    ) {
        let g = Geometry::new(w, h);
        let bufs = [
            (Buf::Padded, pbuf),
            (Buf::Up, up),
            (Buf::PEdge, pedge),
            (Buf::Final, fin),
        ];
        let src = padded(pbuf, &g);
        let (up, pe) = (
            UpSource::Plane(up.view(), g.ws),
            EdgeSource::Plane(pedge.view(), g.ws),
        );
        run_declared(q, id, &g, &bufs, |d, a| {
            let out = RowSink::plane(fin, g.ws);
            if id == KernelId::SharpnessVec4 {
                let body = sharpness_fused_vec4_body(&src, &up, &pe, out, mean, p, w, h, g.ws);
                Dispatch::rows(d, a, body)
            } else {
                Dispatch::rows(
                    d,
                    a,
                    sharpness_fused_body(&src, &up, &pe, out, mean, p, w, h),
                )
            }
        })
        .unwrap();
    }

    #[test]
    fn preliminary_matches_cpu_exactly() {
        let f = fixture(32, 32, 6);
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let up = ctx.buffer_from("up", f.up.pixels());
        let pedge = ctx.buffer_from("pEdge", f.pedge.pixels());
        let perr = ctx.buffer_from("pError", f.perr.pixels());
        let prelim = ctx.buffer::<f32>("prelim", 32 * 32);
        let p = SharpnessParams::default();
        preliminary(&mut q, &up, &pedge, &perr, &prelim, f.mean, p, (32, 32));
        assert_eq!(prelim.snapshot(), f.prelim.pixels());
    }

    #[test]
    fn overshoot_matches_cpu_exactly() {
        let f = fixture(32, 32, 7);
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let pbuf = ctx.buffer_from("padded", f.img.padded(1, false).pixels());
        let prelim = ctx.buffer_from("prelim", f.prelim.pixels());
        let fin = ctx.buffer::<f32>("final", 32 * 32);
        overshoot(
            &mut q,
            &pbuf,
            &prelim,
            &fin,
            SharpnessParams::default(),
            (32, 32),
        );
        assert_eq!(fin.snapshot(), f.finalimg.pixels());
    }

    #[test]
    fn fused_scalar_matches_cpu_exactly() {
        let f = fixture(48, 32, 8);
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let pbuf = ctx.buffer_from("padded", f.img.padded(1, false).pixels());
        let up = ctx.buffer_from("up", f.up.pixels());
        let pedge = ctx.buffer_from("pEdge", f.pedge.pixels());
        let fin = ctx.buffer::<f32>("final", 48 * 32);
        let p = SharpnessParams::default();
        let id = KernelId::Sharpness;
        fused(&mut q, id, &pbuf, &up, &pedge, &fin, f.mean, p, (48, 32));
        assert_eq!(fin.snapshot(), f.finalimg.pixels());
    }

    #[test]
    fn fused_vec4_matches_cpu_exactly() {
        let f = fixture(64, 48, 9);
        let ctx = Context::with_validation(DeviceSpec::firepro_w8000());
        let mut q = ctx.queue();
        let pbuf = ctx.buffer_from("padded", f.img.padded(1, false).pixels());
        let up = ctx.buffer_from("up", f.up.pixels());
        let pedge = ctx.buffer_from("pEdge", f.pedge.pixels());
        let fin = ctx.buffer::<f32>("final", 64 * 48);
        let p = SharpnessParams::default();
        let id = KernelId::SharpnessVec4;
        fused(&mut q, id, &pbuf, &up, &pedge, &fin, f.mean, p, (64, 48));
        assert_eq!(fin.snapshot(), f.finalimg.pixels());
    }

    #[test]
    fn fusion_moves_less_global_traffic_than_unfused_tail() {
        let f = fixture(64, 64, 10);
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let p = SharpnessParams::default();
        // Unfused: perror + preliminary + overshoot, as the base pipeline
        // declares them (pError reads the raw original).
        let mut q1 = ctx.queue();
        let orig = ctx.buffer_from("original", f.img.pixels());
        let pbuf = ctx.buffer_from("padded", f.img.padded(1, false).pixels());
        let up = ctx.buffer_from("up", f.up.pixels());
        let pedge = ctx.buffer_from("pEdge", f.pedge.pixels());
        let src = SrcImage {
            view: orig.view(),
            pitch: 64,
            pad: 0,
        };
        let perr = ctx.buffer::<f32>("pError", 64 * 64);
        let prelim = ctx.buffer::<f32>("prelim", 64 * 64);
        let fin1 = ctx.buffer::<f32>("final", 64 * 64);
        let g = Geometry::new(64, 64);
        let bufs = [(Buf::Original, &orig), (Buf::Up, &up), (Buf::PError, &perr)];
        let up_plane = UpSource::Plane(up.view(), 64);
        run_declared(&mut q1, KernelId::Perror, &g, &bufs, |d, a| {
            let body = super::super::perror::perror_body(&src, &up_plane, &perr, 64, 64, 64);
            Dispatch::rows(d, a, body)
        })
        .unwrap();
        preliminary(&mut q1, &up, &pedge, &perr, &prelim, f.mean, p, (64, 64));
        overshoot(&mut q1, &pbuf, &prelim, &fin1, p, (64, 64));
        let unfused_bytes: u64 = q1
            .records()
            .iter()
            .filter_map(|r| r.counters)
            .map(|c| c.global_bytes())
            .sum();

        // Fused.
        let mut q2 = ctx.queue();
        let fin2 = ctx.buffer::<f32>("final", 64 * 64);
        let id = KernelId::Sharpness;
        fused(&mut q2, id, &pbuf, &up, &pedge, &fin2, f.mean, p, (64, 64));
        let fused_bytes: u64 = q2
            .records()
            .iter()
            .filter_map(|r| r.counters)
            .map(|c| c.global_bytes())
            .sum();

        assert_eq!(fin1.snapshot(), fin2.snapshot());
        assert!(
            fused_bytes * 3 < unfused_bytes * 2,
            "fused {fused_bytes} should be well below unfused {unfused_bytes}"
        );
        assert!(q2.elapsed() < q1.elapsed());
    }
}
