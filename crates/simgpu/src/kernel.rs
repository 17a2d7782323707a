//! Kernel descriptions and the two host execution contexts.
//!
//! A kernel in `simgpu` is a Rust closure. The dispatch call picks the
//! unit of host work it is invoked for:
//!
//! * once per *work-group* with a [`GroupCtx`]
//!   ([`crate::queue::CommandQueue::run`]). The closure iterates over its
//!   work-items itself (usually with [`items`]), which makes work-group
//!   barriers trivial to express faithfully: the author simply finishes a
//!   phase across all items before calling [`GroupCtx::barrier`] and
//!   starting the next — exactly the lockstep structure an OpenCL kernel
//!   with `barrier(CLK_LOCAL_MEM_FENCE)` has, without needing per-item
//!   coroutines;
//! * once per *work-group row* with a [`RowCtx`]
//!   ([`crate::queue::CommandQueue::run_rows`]). The closure walks each
//!   local row across every group of the run before the next local row,
//!   so the host streams whole image rows instead of finishing one
//!   group's narrow tile before starting the next. Each group's work is
//!   unchanged — only the order differs — and [`RowCtx::begin_item`]
//!   names the group column, so the sanitizer attributes every access to
//!   the same (work-group, item) as per-group execution. A row context
//!   has no local memory and no barrier: a kernel that needs either is
//!   dispatched per group.
//!
//! A kernel closure only computes pixels: global memory goes through the
//! buffer views directly, and nothing here counts work. What a dispatch
//! costs is declared up front, in closed form, by the
//! [`crate::access::AccessSummary`] handed to the queue; the contexts keep
//! only what the semantics and the sanitizer need — the item cursor, local
//! (LDS) scratch, and barriers.

use crate::error::{Error, Result};
use std::sync::Arc;

use crate::sanitize::{item_tag, GroupSan, SanitizeShared};

/// Geometry and identity of one kernel dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDesc {
    /// Kernel name, used in profiling records and error messages.
    pub name: String,
    /// Global NDRange size (x, y). Use `[n, 1]` for 1-D kernels.
    pub global: [usize; 2],
    /// Work-group size (x, y). Must divide `global` component-wise.
    pub group: [usize; 2],
    /// Frame elements one work-item covers (4 for a vec4 item, 8 for an
    /// item that sums eight elements; 1 unless set): what sizes a host
    /// pass against [`crate::par::PASS_GRAIN_ELEMS`], never what is charged.
    pub item_elems: usize,
}

impl KernelDesc {
    /// Describes a 2-D dispatch.
    pub fn new(name: &str, global: [usize; 2], group: [usize; 2]) -> Self {
        KernelDesc {
            name: name.to_string(),
            global,
            group,
            item_elems: 1,
        }
    }

    /// Describes a 1-D dispatch of `global` items in groups of `group`.
    pub fn new_1d(name: &str, global: usize, group: usize) -> Self {
        KernelDesc {
            name: name.to_string(),
            global: [global, 1],
            group: [group, 1],
            item_elems: 1,
        }
    }

    /// Validates the geometry.
    pub fn check(&self) -> Result<()> {
        if self.group[0] == 0 || self.group[1] == 0 {
            return Err(Error::EmptyGroup {
                kernel: self.name.clone(),
            });
        }
        if !self.global[0].is_multiple_of(self.group[0])
            || !self.global[1].is_multiple_of(self.group[1])
        {
            return Err(Error::InvalidNdRange {
                kernel: self.name.clone(),
                global: self.global,
                group: self.group,
            });
        }
        Ok(())
    }

    /// Number of work-groups along each axis.
    pub fn num_groups(&self) -> [usize; 2] {
        [
            self.global[0] / self.group[0],
            self.global[1] / self.group[1],
        ]
    }

    /// Total number of work-groups.
    pub fn total_groups(&self) -> usize {
        let g = self.num_groups();
        g[0] * g[1]
    }

    /// Work-items per group.
    pub fn group_lanes(&self) -> usize {
        self.group[0] * self.group[1]
    }

    /// Total work-items in the dispatch.
    pub fn total_items(&self) -> usize {
        self.global[0] * self.global[1]
    }

    /// Frame elements the whole grid covers: its work-items times
    /// [`KernelDesc::item_elems`].
    pub fn total_elems(&self) -> usize {
        self.total_items() * self.item_elems
    }
}

/// Rounds `n` up to the next multiple of `m` (for sizing NDRanges).
pub fn round_up(n: usize, m: usize) -> usize {
    debug_assert!(m > 0);
    n.div_ceil(m) * m
}

/// Iterates the local item coordinates of a group of the given size, row
/// major: `[x, y]` with `x` fastest.
pub fn items(group_size: [usize; 2]) -> impl Iterator<Item = [usize; 2]> {
    (0..group_size[1]).flat_map(move |y| (0..group_size[0]).map(move |x| [x, y]))
}

/// Per-work-group execution context handed to kernel closures.
///
/// Owns this group's identity, local (LDS) scratch memory and sanitizer
/// state.
pub struct GroupCtx {
    /// This group's coordinates in the grid.
    pub group_id: [usize; 2],
    /// The work-group size from the [`KernelDesc`].
    pub group_size: [usize; 2],
    /// Grid size in groups.
    pub num_groups: [usize; 2],
    local: Vec<f32>,
    /// Sanitizer state for this group; `Some` only under a sanitized
    /// context. Observation only.
    san: Option<GroupSan>,
}

impl GroupCtx {
    #[cfg(test)]
    pub(crate) fn new(desc: &KernelDesc, group_id: [usize; 2]) -> Self {
        Self::new_with(desc, group_id, None)
    }

    pub(crate) fn new_with(desc: &KernelDesc, group_id: [usize; 2], san: Option<GroupSan>) -> Self {
        GroupCtx {
            group_id,
            group_size: desc.group,
            num_groups: desc.num_groups(),
            local: Vec::new(),
            san,
        }
    }

    // ---- sanitizer hooks -----------------------------------------------

    /// Declares which work-item the following accesses belong to, for the
    /// sanitizer's per-item attribution. Charges nothing and is a no-op on
    /// unsanitized contexts, so calling it never changes simulated time.
    ///
    /// Kernels that process one element per item call it at the top of
    /// their `items()` loop; span-form kernels that handle a whole row per
    /// logical thread call it once per row (row-level attribution — races
    /// *within* one row are not distinguished, which matches the
    /// one-thread-per-row dispatch shape they model). Row-dispatched
    /// kernels use [`RowCtx::begin_item`], which derives the same tags.
    #[inline]
    pub fn begin_item(&mut self, local: [usize; 2]) {
        if let Some(s) = &mut self.san {
            let lane = (local[1] * self.group_size[0] + local[0]) as u64;
            s.begin_item(lane);
        }
    }

    /// Global coordinates of a local item.
    #[inline]
    pub fn global_id(&self, local: [usize; 2]) -> [usize; 2] {
        [
            self.group_id[0] * self.group_size[0] + local[0],
            self.group_id[1] * self.group_size[1] + local[1],
        ]
    }

    /// Flat global index of a local item in a row-major matrix of width
    /// `width` (convenience for image kernels).
    #[inline]
    pub fn global_index(&self, local: [usize; 2], width: usize) -> usize {
        let g = self.global_id(local);
        g[1] * width + g[0]
    }

    // ---- local (LDS) memory --------------------------------------------

    /// Allocates (or reallocates) this group's local scratch of `n` f32
    /// elements, zero-initialised. Mirrors `__local float[n]`.
    pub fn alloc_local(&mut self, n: usize) {
        self.local.clear();
        self.local.resize(n, 0.0);
        if let Some(s) = &mut self.san {
            s.on_alloc_local(n);
        }
    }

    /// Reads one element of local memory.
    #[inline]
    pub fn local_read(&mut self, idx: usize) -> f32 {
        if let Some(s) = &mut self.san {
            if !s.local_read(idx, self.local.len()) {
                // Out of bounds: recorded; recover with zero.
                return 0.0;
            }
        }
        self.local[idx]
    }

    /// Writes one element of local memory.
    #[inline]
    pub fn local_write(&mut self, idx: usize, v: f32) {
        if let Some(s) = &mut self.san {
            if !s.local_write(idx, self.local.len()) {
                // Out of bounds: recorded; recover by dropping the store.
                return;
            }
        }
        self.local[idx] = v;
    }

    /// Length of the local allocation.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    // ---- synchronisation & control flow --------------------------------

    /// Work-group barrier (`barrier(CLK_LOCAL_MEM_FENCE)`). Its cost is
    /// declared with the dispatch; here it only orders local-memory phases
    /// for the sanitizer.
    #[inline]
    pub fn barrier(&mut self) {
        if let Some(s) = &mut self.san {
            s.on_barrier();
        }
    }
}

/// Per-work-group-row execution context handed to row-dispatched kernel
/// closures ([`crate::queue::CommandQueue::run_rows`]).
///
/// One row unit is the run `groups` of consecutive work-groups in group
/// row `group_y` — a whole group row unless the dispatch's group range
/// starts or ends inside it. The kernel loops its local rows outermost and
/// the run's groups inside, calling [`RowCtx::begin_item`] with the group
/// column before each group's accesses.
pub struct RowCtx {
    /// Grid row (y group coordinate) of every group in the run.
    pub group_y: usize,
    /// Group columns (x group coordinates) of the run, left to right.
    pub groups: std::ops::Range<usize>,
    /// The work-group size from the [`KernelDesc`].
    pub group_size: [usize; 2],
    /// Grid size in groups.
    pub num_groups: [usize; 2],
    /// Sanitizer handle and dispatch epoch; `Some` only under a sanitized
    /// context. Observation only.
    san: Option<(Arc<SanitizeShared>, u64)>,
}

impl RowCtx {
    pub(crate) fn new(
        desc: &KernelDesc,
        group_y: usize,
        groups: std::ops::Range<usize>,
        san: Option<(Arc<SanitizeShared>, u64)>,
    ) -> Self {
        RowCtx {
            group_y,
            groups,
            group_size: desc.group,
            num_groups: desc.num_groups(),
            san,
        }
    }

    /// Declares which work-item of group column `group_x` the following
    /// accesses belong to — the same tag [`GroupCtx::begin_item`] gives
    /// that item in a per-group dispatch. Charges nothing and is a no-op
    /// on unsanitized contexts.
    #[inline]
    pub fn begin_item(&mut self, group_x: usize, local: [usize; 2]) {
        if let Some((s, epoch)) = &self.san {
            let group = self.group_y * self.num_groups[0] + group_x;
            let lanes = self.group_size[0] * self.group_size[1];
            let lane = (local[1] * self.group_size[0] + local[0]) as u64;
            s.set_cursor(*epoch, item_tag(group, lanes, lane));
        }
    }

    /// Global row of local row `ly`.
    #[inline]
    pub fn global_y(&self, ly: usize) -> usize {
        self.group_y * self.group_size[1] + ly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> KernelDesc {
        KernelDesc::new("k", [64, 32], [16, 8])
    }

    #[test]
    fn desc_geometry() {
        let d = desc();
        assert!(d.check().is_ok());
        assert_eq!(d.num_groups(), [4, 4]);
        assert_eq!(d.total_groups(), 16);
        assert_eq!(d.group_lanes(), 128);
        assert_eq!(d.total_items(), 2048);
        assert_eq!(d.total_elems(), 2048);
        let vec4 = KernelDesc { item_elems: 4, ..d };
        assert_eq!(vec4.total_elems(), 8192);
    }

    #[test]
    fn desc_rejects_bad_geometry() {
        let d = KernelDesc::new("k", [100, 100], [16, 16]);
        assert!(matches!(d.check(), Err(Error::InvalidNdRange { .. })));
        let d = KernelDesc::new("k", [64, 64], [0, 16]);
        assert!(matches!(d.check(), Err(Error::EmptyGroup { .. })));
    }

    #[test]
    fn one_d_constructor() {
        let d = KernelDesc::new_1d("r", 1024, 256);
        assert!(d.check().is_ok());
        assert_eq!(d.total_groups(), 4);
    }

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(100, 16), 112);
        assert_eq!(round_up(112, 16), 112);
        assert_eq!(round_up(1, 64), 64);
    }

    #[test]
    fn items_iterates_row_major() {
        let v: Vec<_> = items([2, 2]).collect();
        assert_eq!(v, vec![[0, 0], [1, 0], [0, 1], [1, 1]]);
        assert_eq!(items([16, 8]).count(), 128);
    }

    #[test]
    fn global_id_offsets_by_group() {
        let g = GroupCtx::new(&desc(), [2, 3]);
        assert_eq!(g.global_id([5, 7]), [2 * 16 + 5, 3 * 8 + 7]);
        assert_eq!(g.global_index([0, 0], 64), (3 * 8) * 64 + 2 * 16);
    }

    #[test]
    fn local_memory_roundtrip() {
        let mut g = GroupCtx::new(&desc(), [0, 0]);
        g.alloc_local(256);
        assert_eq!(g.local_len(), 256);
        g.local_write(3, 1.5);
        assert_eq!(g.local_read(3), 1.5);
        // Fresh allocation is zeroed.
        assert_eq!(g.local_read(200), 0.0);
        // Re-allocation resizes and zeroes.
        g.alloc_local(16);
        assert_eq!(g.local_len(), 16);
        assert_eq!(g.local_read(3), 0.0);
    }
}
