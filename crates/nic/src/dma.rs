//! DMA-able packet-buffer geometry.
//!
//! One contiguous simulated region holding `n` fixed-size buffers: the
//! simulated addresses are what the cache model sees, the mempool in
//! `pm-dpdk` hands buffer ids out, and the headroom offset models DPDK's
//! `RTE_PKTMBUF_HEADROOM`. The pool holds no bytes. Packet bytes live
//! once, in the trace: a completion's bytes are the first `len` bytes of
//! the trace's frame `seq`, which the engine copies out for the
//! dataplane.

use pm_mem::{AddressSpace, Region};

/// Geometry of `n` fixed-size DMA buffers.
#[derive(Debug)]
pub struct DmaMemory {
    region: Region,
    buf_size: u32,
    headroom: u32,
}

impl DmaMemory {
    /// Places `n_bufs` buffers of `buf_size` bytes each, with `headroom`
    /// bytes reserved at the front of every buffer, in `space`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `headroom >= buf_size`.
    pub fn new(space: &mut AddressSpace, n_bufs: u32, buf_size: u32, headroom: u32) -> Self {
        assert!(n_bufs > 0 && buf_size > 0, "empty pool");
        assert!(headroom < buf_size, "headroom exceeds buffer");
        DmaMemory {
            region: space.alloc_pages(n_bufs as u64 * buf_size as u64),
            buf_size,
            headroom,
        }
    }

    /// Number of buffers.
    pub fn buf_count(&self) -> u32 {
        (self.region.size / self.buf_size as u64) as u32
    }

    /// Usable data capacity of one buffer (after headroom).
    pub fn data_capacity(&self) -> u32 {
        self.buf_size - self.headroom
    }

    /// Simulated address of the data area (post-headroom) of buffer `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn data_addr(&self, id: u32) -> u64 {
        assert!(id < self.buf_count(), "buffer id out of range");
        self.region.base + id as u64 * self.buf_size as u64 + self.headroom as u64
    }

    /// The whole pool's region.
    pub fn region(&self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> DmaMemory {
        DmaMemory::new(&mut AddressSpace::new(), 8, 2048, 128)
    }

    #[test]
    fn geometry() {
        let m = mem();
        assert_eq!(m.buf_count(), 8);
        assert_eq!(m.data_capacity(), 1920);
    }

    #[test]
    fn addresses_distinct_and_ordered() {
        let m = mem();
        for i in 0..7 {
            assert_eq!(m.data_addr(i + 1) - m.data_addr(i), 2048);
        }
        assert!(m.region().contains(m.data_addr(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_id_panics() {
        let _ = mem().data_addr(8);
    }
}
