//! Cost accounting shared by the simulated device and the CPU model.
//!
//! A kernel dispatch *declares* the work it does — arithmetic operations
//! by class, bytes moved through each level of the memory hierarchy,
//! synchronisation events — as the [`CostCounters`] of its
//! [`crate::access::AccessSummary`], computed in closed form before it
//! runs; the CPU reference pipeline counts its loops the same way. The
//! timing model in [`crate::timing`] converts those counts into simulated
//! seconds for a particular [`crate::device::DeviceSpec`].
//!
//! Counting at this granularity is what makes the paper's optimizations
//! *visible* to the simulator: kernel fusion removes global-memory bytes and
//! kernel launches, vectorization moves bytes from the scalar-load to the
//! vector-load class (which coalesces better), instruction selection moves
//! ops from the `div` class to the `bit` class, and unrolling the last
//! wavefront of the reduction removes barrier events.

/// Arithmetic operation classes with distinct costs on both the simulated
/// GPU and the modeled CPU.
///
/// The classes follow Section V-F of the paper ("division, multiplication
/// and remainder execute slowly on GPU, relative to the addition,
/// subtraction and bit operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Additions, subtractions.
    Add,
    /// Multiplications and fused multiply-adds (GPUs issue MAD at rate 1).
    Mul,
    /// Divisions and remainders.
    Div,
    /// Transcendentals: `pow`, `exp`, `log`, `sqrt`.
    Pow,
    /// Comparisons and selects.
    Cmp,
    /// Bit operations: shifts, and/or/xor (cheap everywhere).
    Bit,
}

/// A bundle of arithmetic operation counts.
///
/// Typically built once per kernel as a *per-item* recipe and charged with
/// [`CostCounters::charge_ops_n`], so hot loops do not pay accounting
/// overhead per operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Number of add/sub operations.
    pub add: u64,
    /// Number of mul/mad operations.
    pub mul: u64,
    /// Number of div/rem operations.
    pub div: u64,
    /// Number of transcendental operations.
    pub pow: u64,
    /// Number of compare/select operations.
    pub cmp: u64,
    /// Number of bit operations.
    pub bit: u64,
}

impl OpCounts {
    /// A bundle with all counts zero.
    pub const ZERO: OpCounts = OpCounts {
        add: 0,
        mul: 0,
        div: 0,
        pow: 0,
        cmp: 0,
        bit: 0,
    };

    /// Returns the total number of operations, ignoring class weights.
    pub fn total(&self) -> u64 {
        self.add + self.mul + self.div + self.pow + self.cmp + self.bit
    }

    /// Component-wise sum.
    pub fn plus(&self, o: &OpCounts) -> OpCounts {
        OpCounts {
            add: self.add + o.add,
            mul: self.mul + o.mul,
            div: self.div + o.div,
            pow: self.pow + o.pow,
            cmp: self.cmp + o.cmp,
            bit: self.bit + o.bit,
        }
    }

    /// Component-wise scaling by `n` (e.g. per-item recipe × item count).
    pub fn times(&self, n: u64) -> OpCounts {
        OpCounts {
            add: self.add * n,
            mul: self.mul * n,
            div: self.div * n,
            pow: self.pow * n,
            cmp: self.cmp * n,
            bit: self.bit * n,
        }
    }
}

/// Aggregated work counters for one kernel dispatch (or one CPU stage).
///
/// All counts are *device-wide totals*: per-work-item counts summed over
/// every work-item of the dispatch. The timing model divides by device
/// throughput to obtain time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostCounters {
    /// Arithmetic operations by class.
    pub ops: OpCounts,
    /// Bytes read from global memory through scalar (one-element) loads.
    pub global_read_scalar: u64,
    /// Bytes read from global memory through vector (`vloadN`) loads.
    pub global_read_vector: u64,
    /// Bytes written to global memory through scalar stores.
    pub global_write_scalar: u64,
    /// Bytes written to global memory through vector (`vstoreN`) stores.
    pub global_write_vector: u64,
    /// Bytes moved through local (LDS / shared) memory.
    pub local_bytes: u64,
    /// Local-memory bytes *allocated* per work-group (static LDS usage —
    /// limits how many groups a compute unit can keep resident).
    pub local_alloc_bytes: u64,
    /// Work-group barrier events (each stalls every wavefront in the group).
    pub barriers: u64,
    /// Divergent-branch events (wavefront executes both sides).
    pub divergent_branches: u64,
    /// Number of work-items that executed.
    pub items: u64,
    /// Number of work-groups that executed.
    pub groups: u64,
    /// Work-group size in work-items (lanes), for occupancy/barrier costing.
    pub group_lanes: u64,
}

impl CostCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes moved through global memory (reads + writes, any width).
    pub fn global_bytes(&self) -> u64 {
        self.global_read_bytes() + self.global_write_bytes()
    }

    /// Bytes read from global memory, scalar and vector classes together.
    pub fn global_read_bytes(&self) -> u64 {
        self.global_read_scalar + self.global_read_vector
    }

    /// Bytes written to global memory, scalar and vector classes together.
    pub fn global_write_bytes(&self) -> u64 {
        self.global_write_scalar + self.global_write_vector
    }

    /// Charges one op bundle, `n` times.
    pub fn charge_ops_n(&mut self, per_item: &OpCounts, n: u64) {
        self.ops = self.ops.plus(&per_item.times(n));
    }

    /// Merges another counter set into this one (used when summing the
    /// declarations of several dispatches or group ranges).
    pub fn merge(&mut self, o: &CostCounters) {
        self.ops = self.ops.plus(&o.ops);
        self.global_read_scalar += o.global_read_scalar;
        self.global_read_vector += o.global_read_vector;
        self.global_write_scalar += o.global_write_scalar;
        self.global_write_vector += o.global_write_vector;
        self.local_bytes += o.local_bytes;
        // Allocation is per-group, not additive.
        self.local_alloc_bytes = self.local_alloc_bytes.max(o.local_alloc_bytes);
        self.barriers += o.barriers;
        self.divergent_branches += o.divergent_branches;
        self.items += o.items;
        self.groups += o.groups;
        // group_lanes is a per-dispatch constant, keep the max so a merge of
        // a zeroed accumulator with a real counter keeps the real value.
        self.group_lanes = self.group_lanes.max(o.group_lanes);
    }
}

/// Builder-style helpers so per-kernel op recipes read declaratively.
///
/// ```
/// use simgpu::cost::OpCounts;
/// let per_pixel = OpCounts::ZERO.adds(6).muls(2).divs(1);
/// assert_eq!(per_pixel.total(), 9);
/// ```
impl OpCounts {
    /// Adds `n` add/sub operations.
    pub fn adds(mut self, n: u64) -> Self {
        self.add += n;
        self
    }
    /// Adds `n` mul/mad operations.
    pub fn muls(mut self, n: u64) -> Self {
        self.mul += n;
        self
    }
    /// Adds `n` div/rem operations.
    pub fn divs(mut self, n: u64) -> Self {
        self.div += n;
        self
    }
    /// Adds `n` transcendental operations.
    pub fn pows(mut self, n: u64) -> Self {
        self.pow += n;
        self
    }
    /// Adds `n` compare/select operations.
    pub fn cmps(mut self, n: u64) -> Self {
        self.cmp += n;
        self
    }
    /// Adds `n` bit operations.
    pub fn bits(mut self, n: u64) -> Self {
        self.bit += n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_algebra() {
        let a = OpCounts::ZERO
            .adds(1)
            .muls(2)
            .divs(3)
            .pows(4)
            .cmps(5)
            .bits(6);
        let b = a.plus(&a);
        assert_eq!(b.add, 2);
        assert_eq!(b.bit, 12);
        assert_eq!(a.times(10).total(), a.total() * 10);
    }

    #[test]
    fn counters_merge_sums_everything() {
        let mut a = CostCounters::new();
        a.global_read_scalar = 100;
        a.barriers = 2;
        a.items = 64;
        a.groups = 1;
        a.group_lanes = 64;
        let mut b = CostCounters::new();
        b.global_read_scalar = 50;
        b.global_write_vector = 16;
        b.items = 64;
        b.groups = 1;
        b.group_lanes = 64;
        a.merge(&b);
        assert_eq!(a.global_read_scalar, 150);
        assert_eq!(a.global_write_vector, 16);
        assert_eq!(a.items, 128);
        assert_eq!(a.groups, 2);
        assert_eq!(a.group_lanes, 64);
        assert_eq!(a.global_bytes(), 166);
    }

    #[test]
    fn charge_ops_n_scales() {
        let mut c = CostCounters::new();
        let per_item = OpCounts::ZERO.adds(3).pows(1);
        c.charge_ops_n(&per_item, 1000);
        assert_eq!(c.ops.add, 3000);
        assert_eq!(c.ops.pow, 1000);
    }

    #[test]
    fn merge_keeps_group_lanes_from_real_counter() {
        let mut acc = CostCounters::new();
        let mut real = CostCounters::new();
        real.group_lanes = 256;
        acc.merge(&real);
        assert_eq!(acc.group_lanes, 256);
    }
}
