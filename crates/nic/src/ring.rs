//! RX/TX descriptor rings.
//!
//! The PMD posts empty receive buffers onto an [`RxRing`]; the device
//! consumes one per arriving packet, DMA-writes data + a completion
//! descriptor, and the PMD later reaps [`Completion`]s in order. The ring
//! size bounds in-flight packets: when no posted buffer is available the
//! packet is dropped — that queue build-up + drop point is what shapes the
//! tail-latency knee in Fig. 1.
//!
//! Descriptor memory is a real simulated region: the device DMA-writes
//! the completion entry's cache line and the PMD's poll loop reads it, so
//! descriptor traffic shows up in the cache model exactly as it does on
//! real hardware (via DDIO).

use pm_mem::{AddressSpace, Region};
use pm_sim::SimTime;
use std::collections::VecDeque;

/// Size of one completion descriptor in simulated memory. ConnectX-5
/// CQEs are 64 B.
pub const DESC_BYTES: u64 = 64;

/// A receive buffer posted by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostedBuffer {
    /// Pool buffer id the data will land in.
    pub buf_id: u32,
    /// Simulated address of the buffer's data area.
    pub data_addr: u64,
}

/// A receive completion written by the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Buffer holding the packet.
    pub buf_id: u32,
    /// Simulated address of the packet data.
    pub data_addr: u64,
    /// Frame length in bytes.
    pub len: u32,
    /// RSS hash computed by the device.
    pub rss_hash: u32,
    /// Arrival timestamp (end of DMA; the completion becomes visible to
    /// the driver at this instant).
    pub arrival: SimTime,
    /// Wire-arrival (generation) timestamp — the latency baseline.
    pub gen: SimTime,
    /// Monotonic packet sequence number (for latency bookkeeping).
    pub seq: u64,
    /// Simulated address of this completion's descriptor (CQE) slot.
    pub desc_addr: u64,
}

/// An RX descriptor ring plus its completion queue.
#[derive(Debug)]
pub struct RxRing {
    size: usize,
    posted: VecDeque<PostedBuffer>,
    completions: VecDeque<Completion>,
    desc_region: Region,
    wqe_region: Region,
    next_wqe_slot: u64,
    /// Packets dropped because no posted buffer was available.
    pub drops_no_buffer: u64,
    next_cq_slot: u64,
}

impl RxRing {
    /// Creates a ring of `size` descriptors with descriptor memory
    /// allocated from `space`.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two.
    pub fn new(space: &mut AddressSpace, size: usize) -> Self {
        assert!(size.is_power_of_two(), "ring size must be a power of two");
        RxRing {
            size,
            posted: VecDeque::with_capacity(size),
            completions: VecDeque::with_capacity(size),
            desc_region: space.alloc_pages(size as u64 * DESC_BYTES),
            wqe_region: space.alloc_pages(size as u64 * 16),
            next_wqe_slot: 0,
            drops_no_buffer: 0,
            next_cq_slot: 0,
        }
    }

    /// Ring capacity.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Posts an empty buffer for the device to fill. Returns `false`
    /// (and ignores the buffer) if the ring is already full.
    pub fn post(&mut self, buf: PostedBuffer) -> bool {
        if self.posted.len() + self.completions.len() >= self.size {
            return false;
        }
        self.posted.push_back(buf);
        true
    }

    /// Number of posted (free) descriptors.
    pub fn posted_count(&self) -> usize {
        self.posted.len()
    }

    /// Number of completions waiting to be reaped.
    pub fn pending_completions(&self) -> usize {
        self.completions.len()
    }

    /// Device side: consumes a posted buffer for an arriving packet.
    /// Returns `None` — and counts a drop — if none is available.
    pub fn take_posted(&mut self) -> Option<PostedBuffer> {
        let b = self.posted.pop_front();
        if b.is_none() {
            self.drops_no_buffer += 1;
        }
        b
    }

    /// Device side: publishes a completion and returns the simulated
    /// address of the completion descriptor slot (for the DMA write).
    /// The same address is recorded in the completion for the driver's
    /// read.
    ///
    /// # Panics
    ///
    /// Panics if the ring has no room for it: a completion fills the
    /// buffer [`Self::take_posted`] consumed, so posted buffers plus
    /// completions never exceed the ring size.
    pub fn push_completion(&mut self, mut c: Completion) -> u64 {
        assert!(
            self.posted.len() + self.completions.len() < self.size,
            "RxRing: posted + completions would exceed the ring size {} \
             (a completion must fill a taken posted buffer)",
            self.size
        );
        let slot = self.next_cq_slot % self.size as u64;
        self.next_cq_slot += 1;
        let addr = self.desc_region.base + slot * DESC_BYTES;
        c.desc_addr = addr;
        self.completions.push_back(c);
        addr
    }

    /// Driver side: address of the next receive WQE slot (charged as a
    /// store when the driver posts/replenishes a buffer).
    pub fn next_post_addr(&mut self) -> u64 {
        let slot = self.next_wqe_slot % self.size as u64;
        self.next_wqe_slot += 1;
        self.wqe_region.base + slot * 16
    }

    /// Driver side: address of the completion descriptor the PMD will
    /// poll next (read even when empty — that's the poll loop).
    ///
    /// # Panics
    ///
    /// Panics if more completions are pending than were ever pushed,
    /// which [`Self::push_completion`] and the reaps rule out.
    pub fn poll_addr(&self) -> u64 {
        // Each pending completion took the next CQ slot, so the oldest
        // sits `completions.len()` slots behind the producer.
        let oldest = self
            .next_cq_slot
            .checked_sub(self.completions.len() as u64)
            .expect("RxRing: pending completions never exceed the CQ slots written");
        self.desc_region.base + (oldest % self.size as u64) * DESC_BYTES
    }

    /// Driver side: reaps up to `max` completions.
    pub fn reap(&mut self, max: usize) -> Vec<Completion> {
        self.reap_until(max, SimTime::MAX)
    }

    /// Driver side: reaps up to `max` completions whose DMA finished at
    /// or before `now` (the device publishes a CQE only once the write
    /// has landed).
    pub fn reap_until(&mut self, max: usize, now: SimTime) -> Vec<Completion> {
        let mut out = Vec::new();
        self.reap_until_into(max, now, &mut out);
        out
    }

    /// [`Self::reap_until`] into a caller-provided buffer (cleared
    /// first), so a poll loop can reap without allocating per burst.
    pub fn reap_until_into(&mut self, max: usize, now: SimTime, out: &mut Vec<Completion>) {
        out.clear();
        let mut n = 0;
        while n < max && n < self.completions.len() && self.completions[n].arrival <= now {
            n += 1;
        }
        out.extend(self.completions.drain(..n));
    }

    /// Driver side: peeks the arrival time of the oldest completion.
    pub fn oldest_arrival(&self) -> Option<SimTime> {
        self.completions.front().map(|c| c.arrival)
    }

    /// The CQE and WQE regions (hugepage-backed in DPDK).
    pub fn regions(&self) -> (Region, Region) {
        (self.desc_region, self.wqe_region)
    }
}

/// A transmit request handed to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRequest {
    /// Buffer holding the frame.
    pub buf_id: u32,
    /// Simulated address of the frame data.
    pub data_addr: u64,
    /// Frame length.
    pub len: u32,
    /// Packet sequence number (latency bookkeeping).
    pub seq: u64,
    /// Arrival timestamp of the original packet.
    pub arrival: SimTime,
}

/// A completed transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxDone {
    /// The original request.
    pub req: TxRequest,
    /// Time the last bit left the wire.
    pub departed: SimTime,
}

/// A TX descriptor ring: requests queue until the link serializes them.
#[derive(Debug)]
pub struct TxRing {
    size: usize,
    in_flight: VecDeque<TxDone>,
    desc_region: Region,
    /// Frames dropped because the TX ring was full.
    pub drops_full: u64,
}

impl TxRing {
    /// Creates a TX ring of `size` descriptors.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two.
    pub fn new(space: &mut AddressSpace, size: usize) -> Self {
        assert!(size.is_power_of_two(), "ring size must be a power of two");
        TxRing {
            size,
            in_flight: VecDeque::with_capacity(size),
            desc_region: space.alloc_pages(size as u64 * DESC_BYTES),
            drops_full: 0,
        }
    }

    /// Ring capacity.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Enqueues a send whose wire departure the device has computed.
    /// Returns the descriptor slot address for charging the doorbell
    /// write, or `None` if the ring is full (frame dropped).
    pub fn push(&mut self, done: TxDone) -> Option<u64> {
        if self.in_flight.len() >= self.size {
            self.drops_full += 1;
            return None;
        }
        let slot = self.in_flight.len() as u64 % self.size as u64;
        self.in_flight.push_back(done);
        Some(self.desc_region.base + slot * DESC_BYTES)
    }

    /// Reaps transmissions that completed at or before `now`, freeing
    /// their buffers for reuse.
    pub fn reap_completed(&mut self, now: SimTime) -> Vec<TxDone> {
        let mut out = Vec::new();
        while let Some(front) = self.in_flight.front() {
            if front.departed <= now {
                out.push(self.in_flight.pop_front().expect("front checked"));
            } else {
                break;
            }
        }
        out
    }

    /// Number of frames not yet reaped.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Departure time of the oldest unreaped frame.
    pub fn oldest_departure(&self) -> Option<SimTime> {
        self.in_flight.front().map(|d| d.departed)
    }

    /// The descriptor region (hugepage-backed in DPDK).
    pub fn region(&self) -> Region {
        self.desc_region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx() -> RxRing {
        RxRing::new(&mut AddressSpace::new(), 8)
    }

    fn completion(seq: u64) -> Completion {
        Completion {
            buf_id: seq as u32,
            data_addr: 0x1000 + seq * 2048,
            len: 64,
            rss_hash: 0,
            arrival: SimTime::from_ns(seq as f64),
            gen: SimTime::from_ns(seq as f64),
            seq,
            desc_addr: 0,
        }
    }

    #[test]
    fn post_take_cycle() {
        let mut r = rx();
        assert!(r.post(PostedBuffer {
            buf_id: 1,
            data_addr: 0x1000
        }));
        assert_eq!(r.posted_count(), 1);
        let b = r.take_posted().unwrap();
        assert_eq!(b.buf_id, 1);
        assert_eq!(r.posted_count(), 0);
    }

    #[test]
    fn empty_take_counts_drop() {
        let mut r = rx();
        assert!(r.take_posted().is_none());
        assert_eq!(r.drops_no_buffer, 1);
    }

    #[test]
    fn capacity_includes_unreaped_completions() {
        let mut r = rx();
        for i in 0..8 {
            assert!(r.post(PostedBuffer {
                buf_id: i,
                data_addr: 0
            }));
        }
        assert!(
            !r.post(PostedBuffer {
                buf_id: 9,
                data_addr: 0
            }),
            "full"
        );
        // Consume all and complete them; ring stays full until reaped.
        for i in 0..8 {
            r.take_posted().unwrap();
            r.push_completion(completion(i));
        }
        assert!(!r.post(PostedBuffer {
            buf_id: 10,
            data_addr: 0
        }));
        r.reap(4);
        assert!(r.post(PostedBuffer {
            buf_id: 11,
            data_addr: 0
        }));
    }

    #[test]
    fn completions_fifo() {
        let mut r = rx();
        for i in 0..3 {
            r.post(PostedBuffer {
                buf_id: i,
                data_addr: 0,
            });
            r.take_posted();
            r.push_completion(completion(i as u64));
        }
        assert_eq!(r.oldest_arrival(), Some(SimTime::from_ns(0.0)));
        let got = r.reap(2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 0);
        assert_eq!(got[1].seq, 1);
        assert_eq!(r.pending_completions(), 1);
    }

    #[test]
    fn desc_slot_addresses_cycle() {
        let mut r = rx();
        let mut addrs = Vec::new();
        for i in 0..16 {
            r.post(PostedBuffer {
                buf_id: i,
                data_addr: 0,
            });
            r.take_posted();
            addrs.push(r.push_completion(completion(i as u64)));
            r.reap(1);
        }
        assert_eq!(addrs[0], addrs[8], "slots wrap at ring size");
        assert_ne!(addrs[0], addrs[1]);
    }

    #[test]
    fn tx_reap_respects_time() {
        let mut t = TxRing::new(&mut AddressSpace::new(), 8);
        for i in 0..3u64 {
            let req = TxRequest {
                buf_id: i as u32,
                data_addr: 0,
                len: 64,
                seq: i,
                arrival: SimTime::ZERO,
            };
            assert!(t
                .push(TxDone {
                    req,
                    departed: SimTime::from_ns(100.0 * (i + 1) as f64),
                })
                .is_some());
        }
        assert_eq!(t.reap_completed(SimTime::from_ns(150.0)).len(), 1);
        assert_eq!(t.reap_completed(SimTime::from_ns(400.0)).len(), 2);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn tx_full_drops() {
        let mut t = TxRing::new(&mut AddressSpace::new(), 2);
        let mk = |i: u64| TxDone {
            req: TxRequest {
                buf_id: i as u32,
                data_addr: 0,
                len: 64,
                seq: i,
                arrival: SimTime::ZERO,
            },
            departed: SimTime::MAX,
        };
        assert!(t.push(mk(0)).is_some());
        assert!(t.push(mk(1)).is_some());
        assert!(t.push(mk(2)).is_none());
        assert_eq!(t.drops_full, 1);
    }

    #[test]
    fn poll_addr_follows_the_oldest_completion() {
        let mut r = rx();
        for i in 0..10 {
            r.post(PostedBuffer {
                buf_id: i,
                data_addr: 0,
            });
            r.take_posted();
            r.push_completion(completion(u64::from(i)));
            r.reap(usize::from(i % 2 == 1));
        }
        // Ten pushed, five reaped: the oldest pending one took slot 5.
        assert_eq!(r.poll_addr(), r.regions().0.base + 5 * DESC_BYTES);
    }

    #[test]
    #[should_panic(expected = "never exceed the CQ slots written")]
    fn poll_addr_checks_the_cq_producer() {
        let mut r = rx();
        r.post(PostedBuffer {
            buf_id: 0,
            data_addr: 0,
        });
        r.take_posted();
        r.push_completion(completion(0));
        r.next_cq_slot = 0; // a producer index behind its own completions
        let _ = r.poll_addr();
    }

    #[test]
    #[should_panic(expected = "would exceed the ring size 8")]
    fn completion_without_a_taken_buffer_panics() {
        let mut r = rx();
        for i in 0..8 {
            assert!(r.post(PostedBuffer {
                buf_id: i,
                data_addr: 0,
            }));
        }
        // Every descriptor is posted; a completion with no buffer taken
        // would make nine.
        r.push_completion(completion(0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_ring_size() {
        let _ = RxRing::new(&mut AddressSpace::new(), 7);
    }
}
