//! Device-buffer pooling: recycles [`Buffer`](crate::buffer::Buffer)
//! backing storage across allocations.
//!
//! The paper's workloads are streams, and the dominant host-side waste in
//! a stream is re-allocating (and re-faulting) the same device buffers for
//! every frame. The pool keys retired backing slabs by
//! `(label, length, element type)` — the same identity a pipeline's
//! logical matrices have — so a frame's `padded`/`down`/`up`/… buffers are
//! satisfied from the previous frame's storage instead of the allocator.
//!
//! Recycled slabs are re-zeroed on acquisition, preserving the
//! freshly-allocated-buffers-are-zero contract, which is still far cheaper
//! than allocate + zero + first-touch page faults. Hit/miss/return
//! counters are exported through [`PoolStats`].

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Retired slabs kept per key; beyond this the slab is simply freed.
const MAX_SLABS_PER_KEY: usize = 32;

/// Default cap on total parked bytes (1 GiB). Generous enough that the
/// benchmark sweeps (up to 8192² f32 planes) never thrash, small enough
/// that Zipf-tailed mixed-shape traffic cannot grow the inventory without
/// bound: once the cap is reached, the least-recently-parked slab is
/// evicted (cold tail shapes age out, hot shapes stay resident).
pub const DEFAULT_CAPACITY_BYTES: u64 = 1 << 30;

#[derive(PartialEq, Eq, Hash)]
struct PoolKey {
    label: String,
    len: usize,
    ty: TypeId,
}

/// One retired slab plus the bookkeeping the LRU policy needs.
struct Parked {
    slab: Box<dyn Any + Send>,
    bytes: u64,
    /// Monotonic park order; the smallest live `seq` is the LRU victim.
    seq: u64,
}

/// The lock-guarded inventory: parked slabs plus LRU accounting.
#[derive(Default)]
struct Inventory {
    /// Per-key stacks, oldest at index 0 (takes pop the newest).
    slabs: HashMap<PoolKey, Vec<Parked>>,
    parked_bytes: u64,
    next_seq: u64,
}

/// Snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Buffer requests satisfied from a recycled slab.
    pub hits: u64,
    /// Buffer requests that had to allocate fresh storage.
    pub misses: u64,
    /// Slabs returned to the pool by dropped buffers.
    pub returns: u64,
    /// Pool-managed buffers currently alive (acquired, not yet dropped).
    pub live: u64,
    /// Retired slabs currently parked in the pool.
    pub pooled: u64,
    /// Slabs freed by the LRU capacity policy (or a full per-key stack).
    pub evicted: u64,
    /// Bytes currently parked (always ≤ the configured capacity).
    pub pooled_bytes: u64,
}

impl PoolStats {
    /// Exports the snapshot into a metrics registry under `prefix`
    /// (`<prefix>.hits`, `<prefix>.evicted`, …). Cumulative totals are
    /// **added** as counters (export once per registry); instantaneous
    /// values (`live`, `pooled`, `pooled_bytes`) become gauges.
    pub fn to_registry(&self, prefix: &str, reg: &mut crate::metrics::MetricsRegistry) {
        reg.inc(&format!("{prefix}.hits"), self.hits);
        reg.inc(&format!("{prefix}.misses"), self.misses);
        reg.inc(&format!("{prefix}.returns"), self.returns);
        reg.inc(&format!("{prefix}.evicted"), self.evicted);
        reg.set_gauge(&format!("{prefix}.live"), self.live as f64);
        reg.set_gauge(&format!("{prefix}.pooled"), self.pooled as f64);
        reg.set_gauge(&format!("{prefix}.pooled_bytes"), self.pooled_bytes as f64);
    }
}

pub(crate) struct PoolShared {
    inventory: Mutex<Inventory>,
    capacity_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    live: AtomicU64,
    evicted: AtomicU64,
}

/// Locks the inventory, recovering from poisoning: the inventory is plain
/// data and every mutation below leaves it internally consistent, so a
/// panicking holder must not wedge every later allocation.
fn lock_inventory(m: &Mutex<Inventory>) -> MutexGuard<'_, Inventory> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PoolShared {
    /// Takes a recycled slab for `(label, len, T)` if one is parked.
    pub(crate) fn take<T: 'static>(&self, label: &str, len: usize) -> Option<Box<[T]>> {
        let key = PoolKey {
            label: label.to_string(),
            len,
            ty: TypeId::of::<T>(),
        };
        let slab = {
            let mut inv = lock_inventory(&self.inventory);
            let popped = inv.slabs.get_mut(&key).and_then(Vec::pop);
            if let Some(p) = &popped {
                inv.parked_bytes -= p.bytes;
            }
            popped
        };
        let hit = slab.map(|p| *p.slab.downcast::<Box<[T]>>().expect("pool slab type"));
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.live.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Parks a retired slab for reuse, then enforces the byte capacity by
    /// evicting least-recently-parked slabs (across all keys) until the
    /// inventory fits. A full per-key stack drops the incoming slab.
    pub(crate) fn give<T: Send + 'static>(&self, label: &str, slab: Box<[T]>) {
        let key = PoolKey {
            label: label.to_string(),
            len: slab.len(),
            ty: TypeId::of::<T>(),
        };
        let bytes = (slab.len() * std::mem::size_of::<T>()) as u64;
        let mut inv = lock_inventory(&self.inventory);
        let seq = inv.next_seq;
        inv.next_seq += 1;
        let entry = inv.slabs.entry(key).or_default();
        if entry.len() >= MAX_SLABS_PER_KEY {
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        entry.push(Parked {
            slab: Box::new(slab),
            bytes,
            seq,
        });
        inv.parked_bytes += bytes;
        self.returns.fetch_add(1, Ordering::Relaxed);
        while inv.parked_bytes > self.capacity_bytes {
            self.evict_lru(&mut inv);
        }
    }

    /// Frees the least-recently-parked slab. Per-key stacks are in park
    /// order, so the global LRU victim is the smallest front-of-stack seq
    /// (the map is small: one key per distinct `(label, len, type)`).
    fn evict_lru(&self, inv: &mut Inventory) {
        let victim = inv
            .slabs
            .iter()
            .filter_map(|(k, v)| v.first().map(|p| (p.seq, k)))
            .min_by_key(|(seq, _)| *seq)
            .map(|(_, k)| PoolKey {
                label: k.label.clone(),
                len: k.len,
                ty: k.ty,
            });
        let Some(key) = victim else { return };
        let Some(stack) = inv.slabs.get_mut(&key) else {
            return;
        };
        let parked = stack.remove(0);
        let emptied = stack.is_empty();
        inv.parked_bytes -= parked.bytes;
        self.evicted.fetch_add(1, Ordering::Relaxed);
        if emptied {
            inv.slabs.remove(&key);
        }
    }

    /// Records the death of a pool-managed buffer.
    pub(crate) fn retire_live(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A shared recycling pool for device-buffer backing storage.
///
/// Owned by a [`Context`](crate::context::Context); clones of the context
/// share the same pool, so every pipeline created from one context
/// recycles from the same inventory.
#[derive(Clone)]
pub struct BufferPool {
    pub(crate) shared: Arc<PoolShared>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Creates an empty pool with the default byte capacity
    /// ([`DEFAULT_CAPACITY_BYTES`]).
    pub fn new() -> Self {
        Self::with_capacity_bytes(DEFAULT_CAPACITY_BYTES)
    }

    /// Creates an empty pool that parks at most `capacity_bytes` of
    /// retired storage; beyond that, least-recently-parked slabs are
    /// evicted (counted in [`PoolStats::evicted`]).
    pub fn with_capacity_bytes(capacity_bytes: u64) -> Self {
        BufferPool {
            shared: Arc::new(PoolShared {
                inventory: Mutex::new(Inventory::default()),
                capacity_bytes,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                returns: AtomicU64::new(0),
                live: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
            }),
        }
    }

    /// The configured cap on parked bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.shared.capacity_bytes
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        let (pooled, pooled_bytes) = {
            let inv = lock_inventory(&self.shared.inventory);
            (
                inv.slabs.values().map(|v| v.len() as u64).sum(),
                inv.parked_bytes,
            )
        };
        PoolStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            returns: self.shared.returns.load(Ordering::Relaxed),
            live: self.shared.live.load(Ordering::Relaxed),
            pooled,
            evicted: self.shared.evicted.load(Ordering::Relaxed),
            pooled_bytes,
        }
    }

    /// Frees every parked slab (counters are preserved).
    pub fn clear(&self) {
        let mut inv = lock_inventory(&self.shared.inventory);
        inv.slabs.clear();
        inv.parked_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use crate::context::Context;
    use crate::device::DeviceSpec;

    #[test]
    fn repeated_allocation_recycles() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        {
            let _b = ctx.buffer::<f32>("m", 1024);
        }
        let s = ctx.pool_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.returns, 1);
        assert_eq!(s.live, 0);
        assert_eq!(s.pooled, 1);
        {
            let b = ctx.buffer::<f32>("m", 1024);
            assert_eq!(b.snapshot()[0], 0.0);
            let s = ctx.pool_stats();
            assert_eq!(s.hits, 1);
            assert_eq!(s.live, 1);
            assert_eq!(s.pooled, 0);
        }
        assert_eq!(ctx.pool_stats().pooled, 1);
    }

    #[test]
    fn recycled_buffers_are_zeroed() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        {
            let b = ctx.buffer::<f32>("z", 64);
            b.fill_from(&[3.5; 64]);
        }
        let b = ctx.buffer::<f32>("z", 64);
        assert!(b.snapshot().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn distinct_identities_do_not_alias() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        drop(ctx.buffer::<f32>("a", 16));
        // Different label, length, or element type: all misses.
        drop(ctx.buffer::<f32>("b", 16));
        drop(ctx.buffer::<f32>("a", 32));
        drop(ctx.buffer::<u32>("a", 16));
        assert_eq!(ctx.pool_stats().hits, 0);
        assert_eq!(ctx.pool_stats().misses, 4);
        // Exact identity: hit.
        drop(ctx.buffer::<f32>("a", 16));
        assert_eq!(ctx.pool_stats().hits, 1);
    }

    #[test]
    fn live_counter_tracks_overlapping_lifetimes() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let a = ctx.buffer::<f32>("o", 8);
        let b = ctx.buffer::<f32>("o", 8);
        let c = ctx.buffer::<f32>("o", 16);
        assert_eq!(ctx.pool_stats().live, 3);
        drop(b);
        assert_eq!(ctx.pool_stats().live, 2);
        drop(a);
        drop(c);
        let s = ctx.pool_stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.returns, 3);
        assert_eq!(s.pooled, 3);
    }

    #[test]
    fn pool_is_shared_across_context_clones() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        let ctx2 = ctx.clone();
        drop(ctx.buffer::<f32>("s", 8));
        drop(ctx2.buffer::<f32>("s", 8));
        let s = ctx.pool_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn disabled_pooling_never_recycles() {
        let ctx = Context::new(DeviceSpec::firepro_w8000()).with_pooling(false);
        drop(ctx.buffer::<f32>("n", 8));
        drop(ctx.buffer::<f32>("n", 8));
        let s = ctx.pool_stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 0);
        assert_eq!(s.pooled, 0);
    }

    #[test]
    fn capacity_evicts_least_recently_parked_first() {
        // Room for two 64-element f32 slabs (256 B each), not three.
        let ctx = Context::new(DeviceSpec::firepro_w8000()).with_pool_capacity(600);
        drop(ctx.buffer::<f32>("a", 64));
        drop(ctx.buffer::<f32>("b", 64));
        let s = ctx.pool_stats();
        assert_eq!((s.pooled, s.evicted, s.pooled_bytes), (2, 0, 512));
        // Parking a third slab pushes past the cap: "a" (oldest) goes.
        drop(ctx.buffer::<f32>("c", 64));
        let s = ctx.pool_stats();
        assert_eq!((s.pooled, s.evicted, s.pooled_bytes), (2, 1, 512));
        assert!(s.pooled_bytes <= ctx.pool().capacity_bytes());
        // "a" was evicted (miss), "b" and "c" are still parked (hits).
        drop(ctx.buffer::<f32>("b", 64));
        drop(ctx.buffer::<f32>("c", 64));
        assert_eq!(ctx.pool_stats().hits, 2);
        drop(ctx.buffer::<f32>("a", 64));
        assert_eq!(ctx.pool_stats().misses, 4);
    }

    #[test]
    fn slab_larger_than_capacity_is_parked_then_immediately_evicted() {
        let ctx = Context::new(DeviceSpec::firepro_w8000()).with_pool_capacity(16);
        drop(ctx.buffer::<f32>("big", 64)); // 256 B > 16 B cap
        let s = ctx.pool_stats();
        assert_eq!((s.pooled, s.pooled_bytes), (0, 0));
        assert_eq!(s.evicted, 1);
        assert_eq!(s.returns, 1);
    }

    #[test]
    fn zipf_mixed_shapes_stay_under_cap_with_hot_hit_rate_high() {
        // Regression for unbounded growth: a long mixed-shape stream with a
        // Zipf-like skew (one hot shape, a tail of cold ones) must keep the
        // inventory under the configured cap while the hot shape keeps
        // recycling. Cap fits the hot slab (4 KiB) plus a couple of cold
        // tail slabs (1 KiB each).
        let ctx = Context::new(DeviceSpec::firepro_w8000()).with_pool_capacity(6 * 1024);
        let mut hot_hits = 0u64;
        for i in 0..400u64 {
            let before = ctx.pool_stats().hits;
            if i % 2 == 0 {
                drop(ctx.buffer::<f32>("hot", 1024));
                hot_hits += ctx.pool_stats().hits - before;
            } else {
                // 12-shape cold tail, cycled: far more distinct shapes than
                // the cap can park at once.
                drop(ctx.buffer::<f32>("cold", 256 + 13 * (i % 12) as usize));
            }
            let s = ctx.pool_stats();
            assert!(
                s.pooled_bytes <= ctx.pool().capacity_bytes(),
                "iteration {i}: {} parked bytes over the {} cap",
                s.pooled_bytes,
                ctx.pool().capacity_bytes()
            );
        }
        let s = ctx.pool_stats();
        assert!(s.evicted > 0, "cold tail never triggered eviction");
        // Every hot allocation after the first recycles: the hot slab is
        // always the most recently parked, so the LRU never victimises it.
        assert_eq!(hot_hits, 199, "hot-shape hit rate degraded: {s:?}");
    }

    #[test]
    fn stats_export_to_metrics_registry() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        drop(ctx.buffer::<f32>("m", 32));
        drop(ctx.buffer::<f32>("m", 32));
        let mut reg = crate::metrics::MetricsRegistry::new();
        ctx.pool_stats().to_registry("pool", &mut reg);
        assert_eq!(reg.counter("pool.hits"), 1);
        assert_eq!(reg.counter("pool.misses"), 1);
        assert_eq!(reg.gauge("pool.pooled"), 1.0);
        assert_eq!(reg.gauge("pool.pooled_bytes"), 128.0);
    }

    #[test]
    fn clear_empties_inventory() {
        let ctx = Context::new(DeviceSpec::firepro_w8000());
        drop(ctx.buffer::<f32>("c", 8));
        assert_eq!(ctx.pool_stats().pooled, 1);
        ctx.pool().clear();
        assert_eq!(ctx.pool_stats().pooled, 0);
        // Next acquisition is a miss again.
        drop(ctx.buffer::<f32>("c", 8));
        assert_eq!(ctx.pool_stats().hits, 0);
    }
}
