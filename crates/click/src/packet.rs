//! The framework's `Packet` metadata class and its object pool.
//!
//! Under the **Copying** model, every received packet gets a `Packet`
//! object from this pool; the useful `rte_mbuf` fields are copied in and
//! the 48-byte annotation area lives here (paper §2.2 "Copying"). The
//! pool recycles FIFO under steady forwarding, so object headers are cold
//! by the time they are reused — the cache-eviction cost X-Change (and,
//! via scalar replacement, the static-graph plan) eliminates.

use crate::StructLayout;
use pm_mem::{AccessKind, AddressSpace, Cost, MemoryHierarchy, Region};
use std::collections::VecDeque;

/// Builds the default FastClick-style `Packet` class layout.
///
/// Field order mirrors the C++ class: buffer bookkeeping first, header
/// pointers and timestamp next, the annotation union last. The hot set of
/// a typical router (`data_ptr`, `net_hdr`, `dst_ip_anno`, `paint_anno`)
/// straddles cache lines in this default order — which is exactly what
/// the reordering pass exploits.
pub fn default_packet_layout() -> StructLayout {
    StructLayout::packed(
        "Packet",
        &[
            // -- buffer bookkeeping + driver-written fields (X-Change
            //    writes these directly; names match `MetaField`) --
            ("use_count", 4),
            ("pkt_len", 4),
            ("data_ptr", 8),
            ("buf_addr", 8),
            ("end", 8),
            ("mbuf", 8),
            ("data_len", 2),
            ("port", 2),
            ("vlan_tci", 2),
            ("rss_hash", 4),
            ("mac_hdr", 8),
            // -- line boundary at 64 --
            ("net_hdr", 8),
            ("trans_hdr", 8),
            ("timestamp", 8),
            ("next", 8),
            ("prev", 8),
            ("device", 8),
            ("aggregate", 4),
            ("packet_type", 4),
            ("reserved", 8),
            // -- the 48-byte annotation area, at the tail like Click's
            //    Packet class (this is what the reordering pass hoists) --
            ("dst_ip_anno", 4),
            ("paint_anno", 1),
            ("ttl_anno", 1),
            ("vlan_anno", 2),
            ("flow_anno", 4),
            ("anno_w1", 8),
            ("anno_w2", 8),
            ("anno_w3", 8),
            ("anno_w4", 8),
            ("anno_w5", 8),
            ("anno_w6", 8),
        ],
    )
}

/// The subset of `Packet` fields written when converting from an mbuf
/// (the Copying model's per-packet copy).
pub const COPY_FIELDS: [&str; 11] = [
    "use_count",
    "pkt_len",
    "data_ptr",
    "buf_addr",
    "end",
    "mbuf",
    "data_len",
    "port",
    "rss_hash",
    "mac_hdr",
    "timestamp",
];

/// A FIFO-cycling pool of `Packet` objects.
///
/// The free list is built on the first [`alloc`](Self::alloc) or
/// [`free`](Self::free): a runtime whose plan never takes an object
/// (X-Change, Overlaying, scalar replacement) holds no free list.
#[derive(Debug)]
pub struct ClickPool {
    region: Region,
    stride: u64,
    /// Empty until first use, then every free slot in allocation order.
    free: VecDeque<u32>,
    /// `is_free[slot]`: the object is in `free`, not out with the
    /// framework. The O(1) double-free check; empty until first use.
    is_free: Vec<bool>,
    lifo: bool,
    n: u32,
}

impl ClickPool {
    /// Creates a pool of `n` objects shaped like `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(space: &mut AddressSpace, n: u32, layout: &StructLayout) -> Self {
        Self::with_order(space, n, layout, false)
    }

    /// Like [`Self::new`], with `lifo = true` selecting stack recycling
    /// (most-recently-freed object reused first — the warm-pool ablation).
    ///
    /// The simulated region is reserved here, so everything allocated
    /// after the pool lands where it would if the free list were built
    /// now too.
    pub fn with_order(space: &mut AddressSpace, n: u32, layout: &StructLayout, lifo: bool) -> Self {
        assert!(n > 0, "empty packet pool");
        let stride = u64::from(layout.size_lines());
        ClickPool {
            region: space.alloc_pages(stride * u64::from(n)),
            stride,
            free: VecDeque::new(),
            is_free: Vec::new(),
            lifo,
            n,
        }
    }

    /// Builds the free list on first use: every slot free, in a
    /// fixed-seed shuffled order. Long-running pools interleave frees
    /// from many paths, so the allocation order is not a prefetchable
    /// stream; a deterministic shuffle models that.
    #[cold]
    fn build_free_list(&mut self) {
        let mut order: Vec<u32> = (0..self.n).collect();
        let mut rng = pm_sim::SplitMix64::new(0x9001);
        for i in (1..order.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        self.free = order.into();
        self.is_free = vec![true; self.n as usize];
    }

    /// Pool capacity.
    pub fn capacity(&self) -> u32 {
        self.n
    }

    /// Free objects.
    pub fn available(&self) -> usize {
        if self.is_free.is_empty() {
            self.n as usize
        } else {
            self.free.len()
        }
    }

    /// Object stride in bytes (whole cache lines).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Fraction of a pool-object miss's latency the core actually stalls
    /// for: object headers of different packets are independent loads, so
    /// memory-level parallelism across the burst hides part of it.
    const MLP_EXPOSURE: f64 = 0.30;

    fn scaled(c: Cost) -> Cost {
        Cost {
            instructions: c.instructions,
            cycles: c.cycles * Self::MLP_EXPOSURE,
            uncore_ns: c.uncore_ns * Self::MLP_EXPOSURE,
        }
    }

    /// Allocates an object: returns its base address, charging the
    /// free-list load (the object's header line — cold after a full pool
    /// cycle, which is the Copying model's hidden per-packet LLC load).
    pub fn alloc(&mut self, core: usize, mem: &mut MemoryHierarchy) -> (Option<u64>, Cost) {
        if self.is_free.is_empty() {
            self.build_free_list();
        }
        match self.free.pop_front() {
            Some(slot) => {
                self.is_free[slot as usize] = false;
                let addr = self.region.base + u64::from(slot) * self.stride;
                let cost =
                    Self::scaled(mem.access(core, addr, 8, AccessKind::Load)) + Cost::compute(4);
                (Some(addr), cost)
            }
            None => (None, Cost::compute(4)),
        }
    }

    /// Frees an object by address, charging the free-list store.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not an object base from this pool, or on
    /// double free.
    pub fn free(&mut self, core: usize, mem: &mut MemoryHierarchy, addr: u64) -> Cost {
        assert!(
            self.region.contains(addr) && (addr - self.region.base).is_multiple_of(self.stride),
            "not a pool object address: {addr:#x}"
        );
        let slot = ((addr - self.region.base) / self.stride) as u32;
        if self.is_free.is_empty() {
            self.build_free_list();
        }
        assert!(
            !std::mem::replace(&mut self.is_free[slot as usize], true),
            "double free of packet object {addr:#x}"
        );
        if self.lifo {
            self.free.push_front(slot);
        } else {
            self.free.push_back(slot);
        }
        Self::scaled(mem.access(core, addr, 8, AccessKind::Store)) + Cost::compute(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_shape() {
        let l = default_packet_layout();
        // Three cache lines: the C++ class is ~170 bytes.
        assert!(l.size() > 128 && l.size() <= 192, "size {}", l.size());
        assert_eq!(l.size_lines(), 192);
        // The copy fields exist.
        for f in COPY_FIELDS {
            assert!(l.field(f).is_some(), "{f} missing");
        }
        // The router's hot set spans more than one line by default.
        assert!(
            l.lines_touched(&["data_ptr", "net_hdr", "dst_ip_anno", "paint_anno"]) >= 2,
            "hot set should straddle lines pre-reorder"
        );
    }

    #[test]
    fn reordering_collapses_hot_set() {
        let l = default_packet_layout();
        let r = l.reordered(&["data_ptr", "net_hdr", "dst_ip_anno", "paint_anno"]);
        assert_eq!(
            r.lines_touched(&["data_ptr", "net_hdr", "dst_ip_anno", "paint_anno"]),
            1
        );
    }

    #[test]
    fn pool_fifo_cycles_addresses() {
        let mut space = AddressSpace::new();
        let mut mem = MemoryHierarchy::skylake(1);
        let layout = default_packet_layout();
        let mut pool = ClickPool::new(&mut space, 4, &layout);
        let (a, _) = pool.alloc(0, &mut mem);
        let a = a.unwrap();
        pool.free(0, &mut mem, a);
        // FIFO: the freed object is reused only after the others.
        let mut seen = vec![a];
        for _ in 0..3 {
            let (x, _) = pool.alloc(0, &mut mem);
            let x = x.unwrap();
            assert!(!seen.contains(&x), "FIFO must not reuse immediately");
            seen.push(x);
        }
        let (again, _) = pool.alloc(0, &mut mem);
        assert_eq!(again.unwrap(), a, "full cycle returns to the first object");
    }

    #[test]
    fn pool_exhaustion() {
        let mut space = AddressSpace::new();
        let mut mem = MemoryHierarchy::skylake(1);
        let layout = default_packet_layout();
        let mut pool = ClickPool::new(&mut space, 2, &layout);
        assert!(pool.alloc(0, &mut mem).0.is_some());
        assert!(pool.alloc(0, &mut mem).0.is_some());
        assert!(pool.alloc(0, &mut mem).0.is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_caught() {
        let mut space = AddressSpace::new();
        let mut mem = MemoryHierarchy::skylake(1);
        let layout = default_packet_layout();
        let mut pool = ClickPool::new(&mut space, 2, &layout);
        let (a, _) = pool.alloc(0, &mut mem);
        pool.free(0, &mut mem, a.unwrap());
        pool.free(0, &mut mem, a.unwrap());
    }

    #[test]
    fn untouched_pool_reserves_its_region_and_holds_no_free_list() {
        let mut space = AddressSpace::new();
        let layout = default_packet_layout();
        let pool = ClickPool::new(&mut space, 1 << 17, &layout);
        assert_eq!(pool.available(), 1 << 17);
        assert_eq!((pool.free.capacity(), pool.is_free.capacity()), (0, 0));
        // The region is reserved anyway: the next allocation lands after it.
        let next = space.alloc_pages(1).base;
        assert!(next >= pool.region.base + (1 << 17) * pool.stride());
    }

    #[test]
    #[should_panic(expected = "not a pool object address")]
    fn foreign_address_rejected() {
        let mut space = AddressSpace::new();
        let mut mem = MemoryHierarchy::skylake(1);
        let layout = default_packet_layout();
        let mut pool = ClickPool::new(&mut space, 2, &layout);
        pool.free(0, &mut mem, 0xDEAD_0000);
    }
}
