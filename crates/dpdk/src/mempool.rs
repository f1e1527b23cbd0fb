//! A DPDK-style buffer pool.
//!
//! DPDK mempools are rings of object pointers. Under steady packet
//! forwarding, buffers are freed at TX completion long after they were
//! allocated for RX replenishment, so the pool cycles **FIFO** through
//! all `n` objects — every allocation touches pool-ring lines and mbuf
//! headers with a reuse distance of the whole pool. That cycling is the
//! cache-eviction problem X-Change removes (paper §2.2, problem 1), so
//! the pool charges its ring-line traffic to the simulated hierarchy.
//! A LIFO mode models a per-core object cache for comparison.
//!
//! For multi-core runs the pool additionally models DPDK's per-lcore
//! object caches (`rte_mempool`'s `cache_size`): each core keeps a small
//! LIFO stack of buffer ids in its own region, and only spills to / refills
//! from the shared pointer ring in bulk. Cache hits stay in the owning
//! core's L1; only the bulk transfers contend on the shared ring lines.

use pm_mem::{AccessKind, AddressSpace, Cost, MemoryHierarchy, Region};
use std::collections::VecDeque;

/// Recycling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MempoolMode {
    /// Ring semantics: free buffers are reused last (DPDK default under
    /// forwarding). Maximizes reuse distance.
    Fifo,
    /// Stack semantics: most recently freed buffer is reused first
    /// (per-core cache hit path).
    Lifo,
}

/// Allocation/free statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Failed allocations (pool empty).
    pub alloc_failures: u64,
    /// Frees.
    pub frees: u64,
    /// Allocations served from a per-core cache (no shared-ring traffic).
    pub cache_hits: u64,
    /// Bulk refills of a per-core cache from the shared ring.
    pub cache_refills: u64,
    /// Bulk flushes of a per-core cache back to the shared ring.
    pub cache_flushes: u64,
}

/// One core's private object cache: a LIFO stack of buffer ids plus the
/// simulated region its pointer array lives in.
#[derive(Debug)]
struct CoreCache {
    ids: Vec<u32>,
    region: Region,
}

/// A pool of buffer ids with a simulated pointer-ring region.
#[derive(Debug)]
pub struct Mempool {
    free: VecDeque<u32>,
    /// `is_free[id]`: buffer `id` is in the pool (shared ring or a
    /// per-core cache), not held by a caller. The O(1) double-free check.
    is_free: Vec<bool>,
    mode: MempoolMode,
    /// Ring of 8-byte object pointers (the part that cycles in cache).
    ring_region: Region,
    ring_slot: u64,
    n: u32,
    /// Per-core caches; empty when `cache_size == 0` (single-core mode).
    caches: Vec<CoreCache>,
    /// Per-core cache capacity in objects (0 disables caching).
    cache_size: u32,
    stats: MempoolStats,
}

/// Charges one sequential 8-byte touch of a pointer array at `slot`.
///
/// Consecutive pool operations walk consecutive 8-byte slots — a
/// sequential stream the hardware prefetcher covers.
fn slot_touch(
    region: Region,
    slot: u64,
    n: u64,
    core: usize,
    mem: &mut MemoryHierarchy,
    kind: AccessKind,
) -> Cost {
    let addr = region.base + (slot % n) * 8;
    let pf = mem.prefetch(core, addr, 8);
    pf + mem.access(core, addr, 8, kind) + Cost::compute(4)
}

impl Mempool {
    /// Creates a pool holding buffer ids `0..n`, allocating its pointer
    /// ring from `space`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(space: &mut AddressSpace, n: u32, mode: MempoolMode) -> Self {
        Self::with_core_caches(space, n, mode, 1, 0)
    }

    /// Creates a pool with per-core object caches of `cache_size` objects
    /// for each of `cores` cores. `cache_size == 0` disables the caches
    /// and allocates nothing beyond what [`Mempool::new`] does, so the
    /// single-core address-space layout is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or if caching is requested with zero cores.
    pub fn with_core_caches(
        space: &mut AddressSpace,
        n: u32,
        mode: MempoolMode,
        cores: usize,
        cache_size: u32,
    ) -> Self {
        assert!(n > 0, "empty mempool");
        assert!(cache_size == 0 || cores > 0, "per-core caches need cores");
        let ring_region = space.alloc_pages(u64::from(n) * 8);
        let caches = if cache_size == 0 {
            Vec::new()
        } else {
            (0..cores)
                .map(|_| CoreCache {
                    ids: Vec::with_capacity(cache_size as usize + 1),
                    region: space.alloc_pages(u64::from(cache_size) * 8),
                })
                .collect()
        };
        Mempool {
            free: (0..n).collect(),
            is_free: vec![true; n as usize],
            mode,
            ring_region,
            ring_slot: 0,
            n,
            caches,
            cache_size,
            stats: MempoolStats::default(),
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> u32 {
        self.n
    }

    /// Currently free buffers (shared ring plus all per-core caches).
    pub fn available(&self) -> usize {
        self.free.len() + self.caches.iter().map(|c| c.ids.len()).sum::<usize>()
    }

    /// Statistics.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }

    /// The pointer-ring's simulated region (hugepage-backed in DPDK).
    pub fn ring_region(&self) -> Region {
        self.ring_region
    }

    /// Simulated regions backing the per-core caches (empty when caching
    /// is disabled). Hugepage-backed in DPDK, like the ring itself.
    pub fn cache_regions(&self) -> Vec<Region> {
        self.caches.iter().map(|c| c.region).collect()
    }

    fn ring_touch(&mut self, core: usize, mem: &mut MemoryHierarchy, kind: AccessKind) -> Cost {
        let cost = slot_touch(
            self.ring_region,
            self.ring_slot,
            u64::from(self.n),
            core,
            mem,
            kind,
        );
        self.ring_slot += 1;
        cost
    }

    /// Allocates one buffer, charging the pool-ring load (or, with
    /// per-core caches, the owning core's cache touch plus any bulk
    /// refill from the shared ring).
    pub fn alloc(&mut self, core: usize, mem: &mut MemoryHierarchy) -> (Option<u32>, Cost) {
        if self.cache_size == 0 {
            let cost = self.ring_touch(core, mem, AccessKind::Load);
            let id = self.free.pop_front();
            if let Some(id) = id {
                self.is_free[id as usize] = false;
                self.stats.allocs += 1;
            } else {
                self.stats.alloc_failures += 1;
            }
            return (id, cost);
        }

        let mut cost = Cost::ZERO;
        if self.caches[core].ids.is_empty() {
            // Bulk refill half a cache's worth from the shared ring
            // (DPDK's rte_mempool_get_bulk): the shared-ring lines are
            // the only cross-core traffic on this path.
            let want = (self.cache_size / 2).max(1);
            self.stats.cache_refills += 1;
            for _ in 0..want {
                let Some(id) = self.free.pop_front() else {
                    break;
                };
                cost += self.ring_touch(core, mem, AccessKind::Load);
                let c = &self.caches[core];
                cost += slot_touch(
                    c.region,
                    c.ids.len() as u64,
                    u64::from(self.cache_size),
                    core,
                    mem,
                    AccessKind::Store,
                );
                self.caches[core].ids.push(id);
            }
        }
        let c = &mut self.caches[core];
        match c.ids.pop() {
            Some(id) => {
                cost += slot_touch(
                    c.region,
                    c.ids.len() as u64,
                    u64::from(self.cache_size),
                    core,
                    mem,
                    AccessKind::Load,
                );
                self.is_free[id as usize] = false;
                self.stats.allocs += 1;
                self.stats.cache_hits += 1;
                (Some(id), cost)
            }
            None => {
                self.stats.alloc_failures += 1;
                (None, cost)
            }
        }
    }

    /// Frees one buffer, charging the pool-ring store (or, with per-core
    /// caches, the owning core's cache touch plus any bulk flush back to
    /// the shared ring).
    ///
    /// # Panics
    ///
    /// Panics on double free, or if `id` is not one of this pool's
    /// buffers.
    pub fn free(&mut self, core: usize, mem: &mut MemoryHierarchy, id: u32) -> Cost {
        assert!(
            !std::mem::replace(&mut self.is_free[id as usize], true),
            "double free of buffer {id}"
        );
        if self.cache_size == 0 {
            let cost = self.ring_touch(core, mem, AccessKind::Store);
            match self.mode {
                MempoolMode::Fifo => self.free.push_back(id),
                MempoolMode::Lifo => self.free.push_front(id),
            }
            self.stats.frees += 1;
            return cost;
        }

        let c = &mut self.caches[core];
        let mut cost = slot_touch(
            c.region,
            c.ids.len() as u64,
            u64::from(self.cache_size),
            core,
            mem,
            AccessKind::Store,
        );
        c.ids.push(id);
        self.stats.frees += 1;
        if self.caches[core].ids.len() > self.cache_size as usize {
            // Spill the oldest half back to the shared ring in bulk
            // (DPDK flushes cache_size/2 on overflow).
            let spill = (self.cache_size / 2).max(1) as usize;
            self.stats.cache_flushes += 1;
            for _ in 0..spill {
                let out = self.caches[core].ids.remove(0);
                cost += self.ring_touch(core, mem, AccessKind::Store);
                match self.mode {
                    MempoolMode::Fifo => self.free.push_back(out),
                    MempoolMode::Lifo => self.free.push_front(out),
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig(mode: MempoolMode) -> (Mempool, MemoryHierarchy) {
        let mut space = AddressSpace::new();
        (
            Mempool::new(&mut space, 8, mode),
            MemoryHierarchy::skylake(1),
        )
    }

    #[test]
    fn fifo_reuses_last() {
        let (mut p, mut m) = rig(MempoolMode::Fifo);
        let (a, _) = p.alloc(0, &mut m);
        p.free(0, &mut m, a.unwrap());
        // FIFO: freed buffer goes to the back; next alloc returns id 1.
        assert_eq!(p.alloc(0, &mut m).0, Some(1));
    }

    #[test]
    fn lifo_reuses_first() {
        let (mut p, mut m) = rig(MempoolMode::Lifo);
        let (a, _) = p.alloc(0, &mut m);
        p.free(0, &mut m, a.unwrap());
        assert_eq!(p.alloc(0, &mut m).0, a);
    }

    #[test]
    fn exhaustion_fails_cleanly() {
        let (mut p, mut m) = rig(MempoolMode::Fifo);
        for _ in 0..8 {
            assert!(p.alloc(0, &mut m).0.is_some());
        }
        assert_eq!(p.alloc(0, &mut m).0, None);
        assert_eq!(p.stats().alloc_failures, 1);
        assert_eq!(p.available(), 0);
    }

    #[test]
    fn alloc_free_balance() {
        let (mut p, mut m) = rig(MempoolMode::Fifo);
        for _ in 0..20 {
            let (id, _) = p.alloc(0, &mut m);
            p.free(0, &mut m, id.unwrap());
        }
        assert_eq!(p.available(), 8);
        assert_eq!(p.stats().allocs, 20);
        assert_eq!(p.stats().frees, 20);
    }

    #[test]
    fn pool_ops_charge_memory_traffic() {
        let (mut p, mut m) = rig(MempoolMode::Fifo);
        let before = m.counters().loads + m.counters().stores;
        let (id, cost) = p.alloc(0, &mut m);
        p.free(0, &mut m, id.unwrap());
        assert!(m.counters().loads + m.counters().stores > before);
        assert!(cost.instructions > 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_caught() {
        let (mut p, mut m) = rig(MempoolMode::Fifo);
        let (id, _) = p.alloc(0, &mut m);
        p.free(0, &mut m, id.unwrap());
        p.free(0, &mut m, id.unwrap());
    }

    fn cached_rig(cores: usize, cache: u32) -> (Mempool, MemoryHierarchy) {
        let mut space = AddressSpace::new();
        (
            Mempool::with_core_caches(&mut space, 64, MempoolMode::Fifo, cores, cache),
            MemoryHierarchy::skylake(cores),
        )
    }

    #[test]
    fn zero_cache_size_is_plain_pool() {
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        let plain = Mempool::new(&mut a, 64, MempoolMode::Fifo);
        let cached = Mempool::with_core_caches(&mut b, 64, MempoolMode::Fifo, 4, 0);
        // Same address-space layout: no extra cache regions are carved out.
        assert_eq!(plain.ring_region(), cached.ring_region());
        assert!(cached.cache_regions().is_empty());
    }

    #[test]
    fn core_cache_hits_avoid_shared_ring() {
        let (mut p, mut m) = cached_rig(2, 8);
        // First alloc bulk-refills core 0's cache; the next allocs are
        // cache hits with no further shared-ring traffic.
        let (id, _) = p.alloc(0, &mut m);
        assert!(id.is_some());
        assert_eq!(p.stats().cache_refills, 1);
        let (id2, _) = p.alloc(0, &mut m);
        assert!(id2.is_some());
        assert_eq!(p.stats().cache_refills, 1, "second alloc hit the cache");
        assert_eq!(p.stats().cache_hits, 2);
        // Freeing to the same core stays in its cache until overflow.
        p.free(0, &mut m, id.unwrap());
        p.free(0, &mut m, id2.unwrap());
        assert_eq!(p.stats().cache_flushes, 0);
        assert_eq!(p.available(), 64);
    }

    #[test]
    fn core_cache_overflow_spills_to_shared_ring() {
        let (mut p, mut m) = cached_rig(1, 4);
        let mut held: Vec<u32> = (0..16).map(|_| p.alloc(0, &mut m).0.unwrap()).collect();
        for id in held.drain(..) {
            p.free(0, &mut m, id);
        }
        assert!(p.stats().cache_flushes > 0);
        assert_eq!(p.available(), 64);
    }

    #[test]
    fn cores_drain_the_shared_pool_exactly() {
        let (mut p, mut m) = cached_rig(2, 4);
        let mut got = 0;
        loop {
            let any = (0..2).any(|c| p.alloc(c, &mut m).0.is_some());
            if !any {
                break;
            }
            got += 1;
        }
        // Interleaved per-core allocation hands out every buffer once.
        assert_eq!(got, 64);
        assert_eq!(p.available(), 0);
        assert!(p.stats().alloc_failures > 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_caught_in_core_cache() {
        let (mut p, mut m) = cached_rig(2, 8);
        let (id, _) = p.alloc(0, &mut m);
        p.free(0, &mut m, id.unwrap());
        // Freeing again on another core must still trip the assert even
        // though the id sits in core 0's cache, not the shared ring.
        p.free(1, &mut m, id.unwrap());
    }
}
