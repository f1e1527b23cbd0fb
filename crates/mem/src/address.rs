//! Simulated virtual-address-space management.
//!
//! Every simulated object (mbuf pools, packet data buffers, descriptor
//! rings, element state, the WorkPackage array) is assigned a region of a
//! synthetic virtual address space; the cache and TLB models then operate
//! on those addresses. Two placement policies matter to the paper:
//!
//! * [`AddressSpace::alloc`] — contiguous bump allocation (the *static
//!   graph* arena: element state packed into a few pages);
//! * [`ScatterAlloc`] — allocations spread pseudo-randomly across a large
//!   heap span with per-allocation jitter, emulating the fragmented
//!   layout of a long-running `malloc` heap (the *dynamic graph* case).

use pm_sim::SplitMix64;

/// A named, contiguous region of simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

impl Region {
    /// Address of byte `off` within the region.
    ///
    /// # Panics
    ///
    /// Panics if `off >= size`.
    #[inline]
    pub fn at(&self, off: u64) -> u64 {
        assert!(
            off < self.size,
            "offset {off} out of region (size {})",
            self.size
        );
        self.base + off
    }

    /// Splits the region into `n` equal chunks.
    ///
    /// # Panics
    ///
    /// Panics if the region does not divide evenly.
    pub fn chunks(&self, n: u64) -> Vec<Region> {
        assert!(
            n > 0 && self.size.is_multiple_of(n),
            "region does not split into {n}"
        );
        let sz = self.size / n;
        (0..n)
            .map(|i| Region {
                base: self.base + i * sz,
                size: sz,
            })
            .collect()
    }

    /// True if `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }
}

/// A bump allocator over the simulated address space.
///
/// Regions never overlap; alignment is respected; a guard gap separates
/// regions so off-by-one charging bugs surface as distinct lines.
#[derive(Debug)]
pub struct AddressSpace {
    next: u64,
}

/// Exclusive upper bound on simulated byte addresses (32 GiB).
///
/// The cache model packs a line's set-local tag into 28 bits and the TLB
/// keeps 4-KiB page keys clear of its hugepage marker bit; both hold for
/// every address below this limit on any geometry
/// [`crate::MemoryHierarchy::new`] accepts. [`AddressSpace`] never mints
/// an address at or above it, so the per-access paths carry no range
/// check of their own in release builds.
pub const ADDR_LIMIT: u64 = 1 << 35;

/// Default alignment for allocated regions (one cache line).
pub const DEFAULT_ALIGN: u64 = 64;
const GUARD: u64 = 4096;

impl AddressSpace {
    /// Creates an address space starting at a non-zero base (so address 0
    /// never aliases a real object).
    pub fn new() -> Self {
        AddressSpace { next: 0x1_0000 }
    }

    /// Allocates `size` bytes aligned to `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two, `size` is zero, or the
    /// region would reach [`ADDR_LIMIT`].
    pub fn alloc_aligned(&mut self, size: u64, align: u64) -> Region {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(size > 0, "zero-sized region");
        let base = (self.next + align - 1) & !(align - 1);
        assert!(
            base.checked_add(size).is_some_and(|end| end <= ADDR_LIMIT),
            "simulated address space exhausted: {size} bytes at {base:#x} passes ADDR_LIMIT"
        );
        self.next = base + size + GUARD;
        Region { base, size }
    }

    /// Allocates `size` bytes with cache-line alignment.
    pub fn alloc(&mut self, size: u64) -> Region {
        self.alloc_aligned(size, DEFAULT_ALIGN)
    }

    /// Allocates a page-aligned region (4 KiB).
    pub fn alloc_pages(&mut self, size: u64) -> Region {
        self.alloc_aligned(size, 4096)
    }

    /// Reserves a large span for use by a [`ScatterAlloc`].
    pub fn reserve_heap(&mut self, size: u64) -> Region {
        self.alloc_aligned(size, 4096)
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

/// A fragmented-heap allocator: each allocation is placed at a
/// pseudo-random, cache-line-aligned offset progressing through a large
/// span, with random gaps between allocations.
///
/// This reproduces the access-pattern consequences of `malloc`-ing
/// element objects one by one on a long-lived heap: objects land on many
/// distinct pages, do not share cache lines, and have no spatial locality
/// with their graph neighbours.
#[derive(Debug)]
pub struct ScatterAlloc {
    span: Region,
    cursor: u64,
    rng: SplitMix64,
    /// Maximum random gap inserted between consecutive allocations.
    max_gap: u64,
}

impl ScatterAlloc {
    /// Creates a scatter allocator over `span` with the default gap
    /// distribution (0–16 KiB between objects).
    pub fn new(span: Region, seed: u64) -> Self {
        ScatterAlloc {
            span,
            cursor: 0,
            rng: SplitMix64::new(seed),
            max_gap: 16 * 1024,
        }
    }

    /// Allocates `size` bytes somewhere in the span.
    ///
    /// # Panics
    ///
    /// Panics if the span is exhausted.
    pub fn alloc(&mut self, size: u64) -> Region {
        let gap = self.rng.next_below(self.max_gap + 1) & !(DEFAULT_ALIGN - 1);
        let base_off = (self.cursor + gap + DEFAULT_ALIGN - 1) & !(DEFAULT_ALIGN - 1);
        assert!(
            base_off + size <= self.span.size,
            "scatter heap exhausted ({} + {} > {})",
            base_off,
            size,
            self.span.size
        );
        self.cursor = base_off + size;
        Region {
            base: self.span.base + base_off,
            size,
        }
    }

    /// Bytes remaining before exhaustion (ignoring future gaps).
    pub fn remaining(&self) -> u64 {
        self.span.size - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut a = AddressSpace::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc(100);
        assert!(r1.base + r1.size <= r2.base);
    }

    #[test]
    fn alignment_respected() {
        let mut a = AddressSpace::new();
        let r = a.alloc_aligned(10, 4096);
        assert_eq!(r.base % 4096, 0);
        let r = a.alloc(10);
        assert_eq!(r.base % 64, 0);
    }

    #[test]
    fn allocation_up_to_the_limit_succeeds() {
        let mut a = AddressSpace::new();
        let r = a.alloc_aligned(ADDR_LIMIT - 0x1_0000, 64);
        assert_eq!(r.base + r.size, ADDR_LIMIT);
    }

    #[test]
    #[should_panic(expected = "ADDR_LIMIT")]
    fn over_limit_allocation_panics() {
        let mut a = AddressSpace::new();
        let _ = a.alloc(ADDR_LIMIT / 2);
        let _ = a.alloc(ADDR_LIMIT / 2);
    }

    #[test]
    fn region_at_and_contains() {
        let r = Region {
            base: 0x1000,
            size: 64,
        };
        assert_eq!(r.at(0), 0x1000);
        assert_eq!(r.at(63), 0x103f);
        assert!(r.contains(0x1000));
        assert!(!r.contains(0x1040));
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn region_at_bounds_checked() {
        let r = Region { base: 0, size: 8 };
        let _ = r.at(8);
    }

    #[test]
    fn chunks_partition() {
        let r = Region {
            base: 0x2000,
            size: 256,
        };
        let cs = r.chunks(4);
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0].base, 0x2000);
        assert_eq!(cs[3].base, 0x2000 + 192);
        assert!(cs.iter().all(|c| c.size == 64));
    }

    #[test]
    fn scatter_spreads_allocations() {
        let mut a = AddressSpace::new();
        let heap = a.reserve_heap(64 * 1024 * 1024);
        let mut s = ScatterAlloc::new(heap, 42);
        let regions: Vec<Region> = (0..64).map(|_| s.alloc(128)).collect();
        // No overlaps, all within the span.
        for w in regions.windows(2) {
            assert!(w[0].base + w[0].size <= w[1].base);
        }
        assert!(regions.iter().all(|r| heap.contains(r.base)));
        // Spread across many pages (that's the point).
        let pages: std::collections::HashSet<u64> = regions.iter().map(|r| r.base >> 12).collect();
        assert!(
            pages.len() > 32,
            "expected scattered pages, got {}",
            pages.len()
        );
    }

    #[test]
    fn scatter_deterministic() {
        let heap = Region {
            base: 0,
            size: 1 << 20,
        };
        let mut a = ScatterAlloc::new(heap, 7);
        let mut b = ScatterAlloc::new(heap, 7);
        for _ in 0..16 {
            assert_eq!(a.alloc(64).base, b.alloc(64).base);
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn scatter_exhaustion_detected() {
        let heap = Region {
            base: 0,
            size: 4096,
        };
        let mut s = ScatterAlloc::new(heap, 1);
        for _ in 0..1000 {
            let _ = s.alloc(512);
        }
    }
}
