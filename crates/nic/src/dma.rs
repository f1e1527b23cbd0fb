//! DMA-able packet-buffer memory.
//!
//! One contiguous simulated region holding `n` fixed-size buffers. The
//! NIC writes real packet bytes into these buffers (so elements can parse
//! them) and the simulated addresses are what the cache model sees. The
//! mempool in `pm-dpdk` hands buffer ids out; the headroom offset models
//! DPDK's `RTE_PKTMBUF_HEADROOM`.

use pm_mem::{AddressSpace, Region};
use std::cell::RefCell;

/// Backing store for `n` fixed-size DMA buffers.
#[derive(Debug)]
pub struct DmaMemory {
    data: Vec<u8>,
    region: Region,
    buf_size: u32,
    headroom: u32,
}

impl DmaMemory {
    /// Allocates `n_bufs` buffers of `buf_size` bytes each, with
    /// `headroom` bytes reserved at the front of every buffer, placing
    /// the whole pool in `space`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `headroom >= buf_size`.
    pub fn new(space: &mut AddressSpace, n_bufs: u32, buf_size: u32, headroom: u32) -> Self {
        assert!(n_bufs > 0 && buf_size > 0, "empty pool");
        assert!(headroom < buf_size, "headroom exceeds buffer");
        let total = n_bufs as u64 * buf_size as u64;
        DmaMemory {
            data: zeroed_backing(total as usize),
            region: space.alloc_pages(total),
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

    /// Read access to the data area of buffer `id`.
    pub fn data(&self, id: u32) -> &[u8] {
        let start = id as usize * self.buf_size as usize + self.headroom as usize;
        &self.data[start..start + self.data_capacity() as usize]
    }

    /// Write access to the data area of buffer `id`.
    pub fn data_mut(&mut self, id: u32) -> &mut [u8] {
        let cap = self.data_capacity() as usize;
        let start = id as usize * self.buf_size as usize + self.headroom as usize;
        &mut self.data[start..start + cap]
    }

    /// Copies `bytes` into buffer `id` (the DMA write's functional half).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the buffer's data capacity.
    pub fn write_packet(&mut self, id: u32, bytes: &[u8]) {
        assert!(
            bytes.len() <= self.data_capacity() as usize,
            "packet larger than buffer"
        );
        self.data_mut(id)[..bytes.len()].copy_from_slice(bytes);
    }
}

thread_local! {
    /// Backing stores of the pools dropped on this thread while a
    /// [`BackingReuse`] scope is open; `None` outside one.
    static SPARES: RefCell<Option<Vec<Vec<u8>>>> = const { RefCell::new(None) };
}

/// While one of these is alive, a pool built on this thread takes over
/// the backing store of a pool dropped before it instead of asking the
/// system allocator. Dropping the scope frees whatever is still held.
///
/// A sweep worker builds and drops one engine per run, and the pool
/// image (11–23 MB) is by far the largest buffer of a run. Freed and
/// requested again every run, it is placed by glibc wherever it fits
/// once the allocations that outlive a run — a newly cached trace, a
/// run report — have been carved out of the hole it left, so over the
/// 22 runs of the benchmark's `paper_grid` the images came to cover 20
/// to 26 MB of heap depending on the trace seed, and the process's peak
/// RSS ranged over 50.8–57.0 MiB. Held across runs the image cannot
/// move: 50.3–50.6 MiB. Taking over a spare costs what the allocator's
/// own recycling does, one `memset` of the image.
#[derive(Debug)]
pub struct BackingReuse(());

impl BackingReuse {
    /// Opens the scope on the calling thread.
    pub fn open() -> Self {
        SPARES.with(|s| {
            s.borrow_mut().get_or_insert_with(Vec::new);
        });
        BackingReuse(())
    }
}

impl Drop for BackingReuse {
    fn drop(&mut self) {
        SPARES.with(|s| *s.borrow_mut() = None);
    }
}

/// `len` zero bytes: a spare that is large enough, else a fresh
/// allocation. Spares that are all too small are freed first, so a
/// sweep that steps up to a larger pool never holds both.
fn zeroed_backing(len: usize) -> Vec<u8> {
    let spare = SPARES.with(|s| {
        let mut s = s.borrow_mut();
        let spares = s.as_mut()?;
        let fit = spares.iter().position(|v| v.capacity() >= len);
        if fit.is_none() {
            spares.clear();
        }
        fit.map(|i| spares.swap_remove(i))
    });
    match spare {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0);
            v
        }
        None => vec![0u8; len],
    }
}

impl Drop for DmaMemory {
    fn drop(&mut self) {
        // `try_with`: a pool may be dropped during thread teardown.
        let _ = SPARES.try_with(|s| {
            if let Some(spares) = s.borrow_mut().as_mut() {
                spares.push(std::mem::take(&mut self.data));
            }
        });
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
    fn write_read_round_trip() {
        let mut m = mem();
        m.write_packet(3, b"hello packet");
        assert_eq!(&m.data(3)[..12], b"hello packet");
        // Other buffers untouched.
        assert_eq!(&m.data(2)[..12], &[0u8; 12]);
    }

    #[test]
    fn reused_backing_is_zeroed_and_scoped() {
        let held = || SPARES.with(|s| s.borrow().as_ref().map(Vec::len));
        assert_eq!(held(), None, "no scope, nothing kept");
        drop(mem());
        assert_eq!(held(), None);
        {
            let _scope = BackingReuse::open();
            let mut m = mem();
            m.write_packet(3, b"stale bytes");
            let image = m.data.as_ptr();
            drop(m);
            assert_eq!(held(), Some(1));
            // Same image, smaller pool: every byte reads zero.
            let m = DmaMemory::new(&mut AddressSpace::new(), 4, 2048, 128);
            assert_eq!(m.data.as_ptr(), image);
            assert_eq!(held(), Some(0));
            assert!(m.data.iter().all(|&b| b == 0));
            assert_eq!(m.buf_count(), 4);
            drop(m);
            // A larger pool cannot take it over; the small spare is freed.
            let big = DmaMemory::new(&mut AddressSpace::new(), 64, 2048, 128);
            assert_eq!(held(), Some(0));
            assert_eq!(big.data.len(), 64 * 2048);
        }
        assert_eq!(held(), None, "closing the scope frees the spares");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_id_panics() {
        let _ = mem().data_addr(8);
    }

    #[test]
    #[should_panic(expected = "larger than buffer")]
    fn oversize_packet_rejected() {
        mem().write_packet(0, &[0u8; 4096]);
    }
}
