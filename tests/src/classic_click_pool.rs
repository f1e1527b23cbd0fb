//! The original eager packet-object pool, kept as a differential-testing
//! reference.
//!
//! [`ClickPool`](pm_click::ClickPool) used to build its shuffled free
//! list and its free flags (640 KiB at the runtime's 131 072 objects)
//! at construction; it now builds them on the first alloc or free, so a
//! plan that never takes an object holds neither. The two must hand out
//! the same addresses in the same order, report the same free count and
//! panic alike, because the simulator charges a cache access at every
//! object address, so any drift moves the goldens.
//! `properties.rs::click_pool_lockstep` drives both through arbitrary
//! alloc/free scripts to prove it. Keep this model faithful to the
//! original: the shuffle seed and the recycling below are the production
//! pool's.

use pm_click::StructLayout;
use pm_mem::{AccessKind, AddressSpace, Cost, MemoryHierarchy, Region};
use std::collections::VecDeque;

/// A FIFO-cycling (or, with `lifo`, stack-recycling) pool of `Packet`
/// objects whose free list is built up front (the reference model; use
/// [`ClickPool`](pm_click::ClickPool) in real code).
#[derive(Debug)]
pub struct ClassicClickPool {
    region: Region,
    stride: u64,
    free: VecDeque<u32>,
    is_free: Vec<bool>,
    lifo: bool,
}

impl ClassicClickPool {
    /// Creates a pool of `n` objects shaped like `layout`, FIFO unless
    /// `lifo`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_order(space: &mut AddressSpace, n: u32, layout: &StructLayout, lifo: bool) -> Self {
        assert!(n > 0, "empty packet pool");
        let stride = u64::from(layout.size_lines());
        let mut order: Vec<u32> = (0..n).collect();
        let mut rng = pm_sim::SplitMix64::new(0x9001);
        for i in (1..order.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        ClassicClickPool {
            region: space.alloc_pages(stride * u64::from(n)),
            stride,
            free: order.into(),
            is_free: vec![true; n as usize],
            lifo,
        }
    }

    /// Free objects.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    fn scaled(c: Cost) -> Cost {
        const MLP_EXPOSURE: f64 = 0.30;
        Cost {
            instructions: c.instructions,
            cycles: c.cycles * MLP_EXPOSURE,
            uncore_ns: c.uncore_ns * MLP_EXPOSURE,
        }
    }

    /// Allocates an object: its base address and the free-list load.
    pub fn alloc(&mut self, core: usize, mem: &mut MemoryHierarchy) -> (Option<u64>, Cost) {
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
