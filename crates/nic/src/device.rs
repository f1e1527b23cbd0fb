//! The NIC device model: RSS steering, PCIe pacing, DMA into the cache
//! hierarchy, and link-rate TX serialization.
//!
//! The NIC moves no bytes. Delivering a frame charges its DMA write to
//! the cache model and publishes a completion that names the frame by
//! `seq`; the completion's bytes are the first `len` bytes of the
//! trace's frame `seq`.

use crate::dma::DmaMemory;
use crate::link::LinkModel;
use crate::pcie::PcieModel;
use crate::ring::{Completion, RxRing, TxDone, TxRequest, TxRing, DESC_BYTES};
use crate::rss::{IndirectionTable, Toeplitz};
use pm_mem::{AddressSpace, MemoryHierarchy};
use pm_sim::{DropCause, SimTime, WireFault};

/// NIC construction parameters.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Number of RX/TX queue pairs.
    pub queues: usize,
    /// RX descriptor ring size (power of two).
    pub rx_ring_size: usize,
    /// TX descriptor ring size (power of two).
    pub tx_ring_size: usize,
    /// Link model.
    pub link: LinkModel,
    /// PCIe model.
    pub pcie: PcieModel,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            queues: 1,
            rx_ring_size: 4096,
            tx_ring_size: 1024,
            link: LinkModel::new(100.0),
            pcie: PcieModel::gen3_x16(),
        }
    }
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames delivered to a completion queue.
    pub rx_packets: u64,
    /// Bytes in those frames.
    pub rx_bytes: u64,
    /// Frames dropped for lack of a posted buffer (ring overflow).
    pub rx_dropped: u64,
    /// Frames serialized onto the wire.
    pub tx_packets: u64,
    /// Bytes in those frames.
    pub tx_bytes: u64,
    /// Frames dropped because the TX ring was full.
    pub tx_dropped: u64,
    /// Frames that failed the FCS check (injected wire corruption),
    /// dropped before consuming a posted buffer — like `rx_crc_errors`.
    pub rx_fcs_errors: u64,
    /// Frames lost because they arrived while the link was down.
    pub rx_link_down: u64,
    /// Frames lost to an injected descriptor-drop episode.
    pub rx_desc_drops: u64,
    /// Frames delivered short (injected truncation with a valid FCS).
    pub rx_truncated: u64,
}

/// Per-queue statistics, for the per-queue conservation ledger: frames
/// dropped before RSS steering picks a queue (FCS errors, link-down
/// losses, descriptor drops) appear only in the aggregate [`NicStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Frames delivered to this queue's completion queue.
    pub rx_packets: u64,
    /// Frames steered here but dropped for lack of a posted buffer.
    pub rx_dropped: u64,
    /// Frames serialized onto the wire from this queue.
    pub tx_packets: u64,
    /// Frames dropped because this TX ring was full.
    pub tx_dropped: u64,
}

/// A simulated ConnectX-5-like device.
#[derive(Debug)]
pub struct Nic {
    link: LinkModel,
    pcie: PcieModel,
    rx: Vec<RxRing>,
    tx: Vec<TxRing>,
    toeplitz: Toeplitz,
    indirection: IndirectionTable,
    rx_pcie_free: SimTime,
    tx_pcie_free: SimTime,
    tx_link_free: SimTime,
    link_down: Vec<(SimTime, SimTime)>,
    stats: NicStats,
    /// Frames delivered per queue (the rings count their own drops).
    rx_q_packets: Vec<u64>,
    /// Frames transmitted per queue.
    tx_q_packets: Vec<u64>,
    seq: u64,
}

impl Nic {
    /// Builds a NIC, allocating descriptor memory from `space`.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new(cfg: &NicConfig, space: &mut AddressSpace) -> Self {
        assert!(cfg.queues > 0, "need at least one queue");
        Nic {
            link: cfg.link,
            pcie: cfg.pcie,
            rx: (0..cfg.queues)
                .map(|_| RxRing::new(space, cfg.rx_ring_size))
                .collect(),
            tx: (0..cfg.queues)
                .map(|_| TxRing::new(space, cfg.tx_ring_size))
                .collect(),
            toeplitz: Toeplitz::microsoft(),
            indirection: IndirectionTable::round_robin(cfg.queues),
            rx_pcie_free: SimTime::ZERO,
            tx_pcie_free: SimTime::ZERO,
            tx_link_free: SimTime::ZERO,
            link_down: Vec::new(),
            stats: NicStats::default(),
            rx_q_packets: vec![0; cfg.queues],
            tx_q_packets: vec![0; cfg.queues],
            seq: 0,
        }
    }

    /// The link model.
    pub fn link(&self) -> LinkModel {
        self.link
    }

    /// Device statistics (drops include per-ring no-buffer drops).
    pub fn stats(&self) -> NicStats {
        let mut s = self.stats;
        s.rx_dropped += self.rx.iter().map(|r| r.drops_no_buffer).sum::<u64>();
        s.tx_dropped += self.tx.iter().map(|t| t.drops_full).sum::<u64>();
        s
    }

    /// Per-queue statistics for queue `q` (see [`QueueStats`]).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn queue_stats(&self, q: usize) -> QueueStats {
        QueueStats {
            rx_packets: self.rx_q_packets[q],
            rx_dropped: self.rx[q].drops_no_buffer,
            tx_packets: self.tx_q_packets[q],
            tx_dropped: self.tx[q].drops_full,
        }
    }

    /// Installs injected link-flap windows: while `from <= t < until`
    /// the link is down — arriving frames are lost (counted in
    /// [`NicStats::rx_link_down`]) and TX serialization waits for the
    /// window to close. The default (no windows) costs nothing.
    pub fn set_link_flaps(&mut self, windows: Vec<(SimTime, SimTime)>) {
        self.link_down = windows;
    }

    /// If the link is down at `t`, the instant it comes back up.
    fn link_resume(&self, t: SimTime) -> Option<SimTime> {
        self.link_down
            .iter()
            .find(|(from, until)| *from <= t && t < *until)
            .map(|&(_, until)| until)
    }

    /// Driver access to an RX ring.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn rx_ring_mut(&mut self, q: usize) -> &mut RxRing {
        &mut self.rx[q]
    }

    /// Read-only access to an RX ring (occupancy observation for the
    /// flight recorder).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn rx_ring(&self, q: usize) -> &RxRing {
        &self.rx[q]
    }

    /// Read-only access to a TX ring.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn tx_ring(&self, q: usize) -> &TxRing {
        &self.tx[q]
    }

    /// Driver access to a TX ring.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn tx_ring_mut(&mut self, q: usize) -> &mut TxRing {
        &mut self.tx[q]
    }

    /// Computes the RSS hash the device would assign to `frame`.
    ///
    /// IPv4 TCP/UDP hash the 4-tuple; other IPv4 hashes addresses only;
    /// non-IP traffic hashes to 0 (lands on queue 0, like real devices
    /// configured for IPv4 RSS).
    pub fn rss_hash(&self, frame: &[u8]) -> u32 {
        self.toeplitz.hash_frame(frame)
    }

    /// The 40-byte RSS key the device hashes with (what a per-trace
    /// hash memo is keyed by).
    pub fn rss_key(&self) -> &[u8; 40] {
        self.toeplitz.key()
    }

    /// Programs a different RSS key (the Microsoft verification key is
    /// the default, as on most drivers).
    pub fn set_rss_key(&mut self, key: [u8; 40]) {
        self.toeplitz = Toeplitz::with_key(key);
    }

    /// Delivers a frame arriving at `now` with RSS hash `hash`: steers
    /// it, consumes a posted buffer, paces the PCIe write, charges the DMA
    /// write of the data and the completion descriptor, and publishes the
    /// completion.
    /// The caller supplies the generator's packet index as `seq`
    /// (latency/measurement identity — drops must not renumber
    /// survivors) and the hash: a cyclic trace replays the same frames
    /// many times, so a generator can compute each frame's hash once
    /// ([`Self::rss_hash`] is a pure function of the bytes) and skip the
    /// per-delivery Toeplitz work.
    ///
    /// Returns the queue it landed on, or `None` if it was dropped.
    pub fn rx_deliver_hashed(
        &mut self,
        frame: &[u8],
        hash: u32,
        now: SimTime,
        seq: u64,
        mem: &mut MemoryHierarchy,
        dma: &DmaMemory,
    ) -> Option<usize> {
        self.deliver(frame.len(), hash, now, seq, mem, dma).ok()
    }

    /// The delivery itself: the queue the frame landed on, or which
    /// [`NicStats`] counter its loss moved. Only the frame's length
    /// matters: the device moves no bytes, it charges their DMA.
    fn deliver(
        &mut self,
        len: usize,
        hash: u32,
        now: SimTime,
        seq: u64,
        mem: &mut MemoryHierarchy,
        dma: &DmaMemory,
    ) -> Result<usize, DropCause> {
        if self.link_resume(now).is_some() {
            self.stats.rx_link_down += 1;
            return Err(DropCause::LinkDown);
        }
        // `queue_for` is the single steering path: the indirection table
        // is built over exactly `rx.len()` queues, so its entries are
        // already in range (NAT flow affinity depends on this mapping
        // being a pure function of the hash — no rescaling afterwards).
        let q = self.indirection.queue_for(hash);
        let Some(buf) = self.rx[q].take_posted() else {
            return Err(DropCause::RxRing); // ring counted the drop
        };
        assert!(
            len <= dma.data_capacity() as usize,
            "packet larger than buffer"
        );
        // PCIe pacing.
        let delivery = now.max(self.rx_pcie_free) + self.pcie.transfer_time(len as u64);
        self.rx_pcie_free = delivery;

        let desc_addr = self.rx[q].push_completion(Completion {
            buf_id: buf.buf_id,
            data_addr: buf.data_addr,
            len: len as u32,
            rss_hash: hash,
            arrival: delivery,
            gen: now,
            seq,
            desc_addr: 0, // filled by push_completion
        });
        // One NIC event writes payload then completion descriptor: a
        // heterogeneous two-span DDIO charge set, payload lines first.
        mem.dma_write_set(&[(buf.data_addr, len as u64), (desc_addr, DESC_BYTES)]);

        self.stats.rx_packets += 1;
        self.stats.rx_bytes += len as u64;
        self.rx_q_packets[q] += 1;
        Ok(q)
    }

    /// [`Self::rx_deliver_hashed`] with an injected wire fault applied
    /// first, and a lost frame's cause in place of `None` (always one of
    /// `LinkDown` / `Fcs` / `Desc` / `RxRing`, naming the [`NicStats`]
    /// counter that moved). Bit-flipped frames fail the FCS check and
    /// descriptor-drop episodes lose the frame outright — both are
    /// counted and consume **no** posted buffer (the device rejects them
    /// before DMA). Truncated frames carry a valid FCS and are delivered
    /// all the way into the NF, so `hash` is the RSS hash of the bytes
    /// that arrive: for a `Truncate` fault, of the frame's first
    /// `new_len` bytes ([`Self::rss_hash`]). The frame itself is only
    /// its length `len`.
    #[allow(clippy::too_many_arguments)] // rx_deliver_hashed's params + the fault
    pub fn rx_deliver_wire(
        &mut self,
        len: usize,
        hash: u32,
        now: SimTime,
        seq: u64,
        mem: &mut MemoryHierarchy,
        dma: &DmaMemory,
        fault: Option<WireFault>,
    ) -> Result<usize, DropCause> {
        match fault {
            None => self.deliver(len, hash, now, seq, mem, dma),
            Some(WireFault::BitFlip | WireFault::DescDrop) if self.link_resume(now).is_some() => {
                self.stats.rx_link_down += 1;
                Err(DropCause::LinkDown)
            }
            Some(WireFault::BitFlip) => {
                self.stats.rx_fcs_errors += 1;
                Err(DropCause::Fcs)
            }
            Some(WireFault::DescDrop) => {
                self.stats.rx_desc_drops += 1;
                Err(DropCause::Desc)
            }
            Some(WireFault::Truncate { new_len }) => {
                let q = self.deliver(new_len.min(len), hash, now, seq, mem, dma)?;
                self.stats.rx_truncated += 1;
                Ok(q)
            }
        }
    }

    /// [`Self::rx_deliver_hashed`] with the hash computed here and an
    /// internally assigned sequence number (tests and simple drivers).
    pub fn rx_deliver(
        &mut self,
        frame: &[u8],
        now: SimTime,
        mem: &mut MemoryHierarchy,
        dma: &DmaMemory,
    ) -> Option<usize> {
        let seq = self.seq;
        self.seq += 1;
        let hash = self.rss_hash(frame);
        self.rx_deliver_hashed(frame, hash, now, seq, mem, dma)
    }

    /// Accepts a transmit request at `now`; returns the wire-departure
    /// time and the TX descriptor (WQE) slot address the driver wrote, or
    /// `None` if the TX ring was full.
    pub fn tx_send(
        &mut self,
        q: usize,
        req: TxRequest,
        now: SimTime,
        mem: &mut MemoryHierarchy,
    ) -> Option<(SimTime, u64)> {
        // The device fetches the frame over PCIe, then serializes it.
        let fetched = now.max(self.tx_pcie_free) + self.pcie.transfer_time(req.len as u64);
        self.tx_pcie_free = fetched;
        let mut start = fetched.max(self.tx_link_free);
        // An injected link flap pauses serialization until the link is
        // back up (frames already queued in the device wait it out).
        while let Some(resume) = self.link_resume(start) {
            start = resume;
        }
        let departed = start + self.link.frame_time(req.len as u64);

        mem.dma_read(req.data_addr, req.len as u64);
        let len = req.len;
        let desc_addr = self.tx[q].push(TxDone { req, departed })?;
        self.tx_link_free = departed;
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += len as u64;
        self.tx_q_packets[q] += 1;
        Some((departed, desc_addr))
    }

    /// Reaps TX descriptors whose frames have left the wire by `now`.
    pub fn tx_reap(&mut self, q: usize, now: SimTime) -> Vec<TxDone> {
        self.tx[q].reap_completed(now)
    }

    /// Free TX descriptor slots on queue `q` right now.
    pub fn tx_free_slots(&self, q: usize) -> usize {
        self.tx[q].size() - self.tx[q].in_flight()
    }

    /// Departure time of queue `q`'s oldest in-flight frame.
    pub fn tx_oldest_departure(&self, q: usize) -> Option<SimTime> {
        self.tx[q].oldest_departure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::PostedBuffer;
    use pm_packet::builder::PacketBuilder;

    struct Rig {
        nic: Nic,
        mem: MemoryHierarchy,
        dma: DmaMemory,
    }

    fn rig(queues: usize) -> Rig {
        let mut space = AddressSpace::new();
        let cfg = NicConfig {
            queues,
            rx_ring_size: 8,
            tx_ring_size: 8,
            ..NicConfig::default()
        };
        let nic = Nic::new(&cfg, &mut space);
        let dma = DmaMemory::new(&mut space, 32, 2048, 128);
        Rig {
            nic,
            mem: MemoryHierarchy::skylake(1),
            dma,
        }
    }

    fn post(r: &mut Rig, q: usize, ids: std::ops::Range<u32>) {
        for id in ids {
            let addr = r.dma.data_addr(id);
            r.nic.rx_ring_mut(q).post(PostedBuffer {
                buf_id: id,
                data_addr: addr,
            });
        }
    }

    #[test]
    fn rx_delivers_data_and_completion() {
        let mut r = rig(1);
        post(&mut r, 0, 0..4);
        let frames: Vec<Vec<u8>> = [128, 64, 1500]
            .map(|len| PacketBuilder::udp().frame_len(len).build())
            .into();
        for frame in &frames {
            let q = r.nic.rx_deliver(frame, SimTime::ZERO, &mut r.mem, &r.dma);
            assert_eq!(q, Some(0));
        }
        let c = r.nic.rx_ring_mut(0).reap(32);
        assert_eq!(c.iter().map(|d| d.seq).collect::<Vec<_>>(), [0, 1, 2]);
        for d in &c {
            // The NIC moves no bytes: a completion's bytes are
            // `frames[seq][..len]`, here the whole frame.
            assert_eq!(d.len as usize, frames[d.seq as usize].len());
            assert_eq!(d.data_addr, r.dma.data_addr(d.buf_id));
        }
        // Data was DDIO'd into the LLC.
        assert!(r.mem.counters().dma_write_lines >= 2);
        assert!(c[0].arrival > SimTime::ZERO, "PCIe transfer takes time");
    }

    #[test]
    #[should_panic(expected = "larger than buffer")]
    fn oversize_packet_rejected() {
        let mut r = rig(1);
        post(&mut r, 0, 0..1);
        let _ = r
            .nic
            .rx_deliver(&[0u8; 4096], SimTime::ZERO, &mut r.mem, &r.dma);
    }

    #[test]
    fn rx_drops_when_no_buffers() {
        let mut r = rig(1);
        let frame = PacketBuilder::udp().frame_len(64).build();
        assert!(r
            .nic
            .rx_deliver(&frame, SimTime::ZERO, &mut r.mem, &r.dma)
            .is_none());
        assert_eq!(r.nic.stats().rx_dropped, 1);
    }

    #[test]
    fn rss_spreads_flows_across_queues() {
        let mut r = rig(4);
        for q in 0..4 {
            post(&mut r, q, (q as u32 * 8)..(q as u32 * 8 + 8));
        }
        let mut hit = [false; 4];
        for p in 0..64u16 {
            let frame = PacketBuilder::udp()
                .src_port(3000 + p)
                .frame_len(128)
                .build();
            if let Some(q) = r.nic.rx_deliver(&frame, SimTime::ZERO, &mut r.mem, &r.dma) {
                hit[q] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "all queues should receive flows");
    }

    #[test]
    fn same_flow_stays_on_one_queue() {
        let r = rig(4);
        let f1 = PacketBuilder::tcp().src_port(5555).frame_len(64).build();
        let h1 = r.nic.rss_hash(&f1);
        let f2 = PacketBuilder::tcp().src_port(5555).frame_len(1400).build();
        assert_eq!(h1, r.nic.rss_hash(&f2), "hash must ignore length");
    }

    #[test]
    fn tx_serializes_at_link_rate() {
        let mut r = rig(1);
        // Use 64-B frames: at that size the wire (6.72 ns/frame) is slower
        // than PCIe, so back-to-back departures are link-paced.
        let mk = |seq: u64| TxRequest {
            buf_id: 0,
            data_addr: r.dma.data_addr(0),
            len: 64,
            seq,
            arrival: SimTime::ZERO,
        };
        let (d1, _) = r.nic.tx_send(0, mk(0), SimTime::ZERO, &mut r.mem).unwrap();
        let (d2, _) = r.nic.tx_send(0, mk(1), SimTime::ZERO, &mut r.mem).unwrap();
        let gap = d2 - d1;
        assert_eq!(gap, LinkModel::new(100.0).frame_time(64));
    }

    #[test]
    fn tx_reap_frees_after_departure() {
        let mut r = rig(1);
        let req = TxRequest {
            buf_id: 3,
            data_addr: r.dma.data_addr(3),
            len: 64,
            seq: 0,
            arrival: SimTime::ZERO,
        };
        let (departed, _) = r.nic.tx_send(0, req, SimTime::ZERO, &mut r.mem).unwrap();
        assert!(r.nic.tx_reap(0, SimTime::ZERO).is_empty());
        let done = r.nic.tx_reap(0, departed);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].req.buf_id, 3);
    }

    #[test]
    fn wire_faults_are_counted_and_consume_no_buffer() {
        let mut r = rig(1);
        post(&mut r, 0, 0..4);
        let frame = PacketBuilder::udp().frame_len(128).build();
        let h = r.nic.rss_hash(&frame);
        for (fault, cause) in [
            (WireFault::BitFlip, DropCause::Fcs),
            (WireFault::DescDrop, DropCause::Desc),
        ] {
            assert_eq!(
                r.nic
                    .rx_deliver_wire(128, h, SimTime::ZERO, 0, &mut r.mem, &r.dma, Some(fault)),
                Err(cause)
            );
        }
        let s = r.nic.stats();
        assert_eq!((s.rx_fcs_errors, s.rx_desc_drops), (1, 1));
        assert_eq!(s.rx_packets, 0);
        assert_eq!(s.rx_dropped, 0, "rejected frames must not touch the ring");
        // All four posted buffers are still available.
        let q = r.nic.rx_deliver(&frame, SimTime::ZERO, &mut r.mem, &r.dma);
        assert_eq!(q, Some(0));
    }

    #[test]
    fn truncated_frames_deliver_short_and_are_counted() {
        let mut r = rig(1);
        post(&mut r, 0, 0..4);
        let frame = PacketBuilder::udp().frame_len(128).build();
        // The caller hashes the bytes that arrive.
        let h = r.nic.rss_hash(&frame[..17]);
        let q = r
            .nic
            .rx_deliver_wire(
                frame.len(),
                h,
                SimTime::ZERO,
                0,
                &mut r.mem,
                &r.dma,
                Some(WireFault::Truncate { new_len: 17 }),
            )
            .expect("short frame still delivers");
        let c = r.nic.rx_ring_mut(q).reap(32);
        assert_eq!(c[0].len, 17, "completion reports the surviving length");
        assert_eq!(r.nic.stats().rx_truncated, 1);
    }

    #[test]
    fn wire_delivery_names_the_counter_that_moved() {
        let frame = PacketBuilder::udp().frame_len(128).build();
        let (down_at, up_at) = (SimTime::from_us(1.0), SimTime::from_us(2.0));
        let truncate = WireFault::Truncate { new_len: 60 };
        for fault in [
            None,
            Some(WireFault::BitFlip),
            Some(WireFault::DescDrop),
            Some(truncate),
        ] {
            for (down, posted) in [(false, true), (false, false), (true, true), (true, false)] {
                let mut r = rig(1);
                r.nic.set_link_flaps(vec![(down_at, up_at)]);
                if posted {
                    post(&mut r, 0, 0..1);
                }
                let now = if down { down_at } else { SimTime::ZERO };
                let h = r.nic.rss_hash(&frame);
                let got = r
                    .nic
                    .rx_deliver_wire(frame.len(), h, now, 0, &mut r.mem, &r.dma, fault);
                // A down link wins over every injected cause; FCS and
                // descriptor rejects happen before a buffer is needed.
                let want = match fault {
                    _ if down => Err(DropCause::LinkDown),
                    Some(WireFault::BitFlip) => Err(DropCause::Fcs),
                    Some(WireFault::DescDrop) => Err(DropCause::Desc),
                    _ if !posted => Err(DropCause::RxRing),
                    _ => Ok(0),
                };
                let case = format!("{fault:?}, link down: {down}, buffer posted: {posted}");
                assert_eq!(got, want, "{case}");
                let s = r.nic.stats();
                let moved = [
                    s.rx_link_down,
                    s.rx_fcs_errors,
                    s.rx_desc_drops,
                    s.rx_dropped,
                    s.rx_packets,
                    s.rx_truncated,
                ];
                let expect = match got {
                    Err(DropCause::LinkDown) => [1, 0, 0, 0, 0, 0],
                    Err(DropCause::Fcs) => [0, 1, 0, 0, 0, 0],
                    Err(DropCause::Desc) => [0, 0, 1, 0, 0, 0],
                    Err(DropCause::RxRing) => [0, 0, 0, 1, 0, 0],
                    Ok(_) => [0, 0, 0, 0, 1, u64::from(fault == Some(truncate))],
                    Err(other) => panic!("{case}: not a wire-drop cause: {other}"),
                };
                assert_eq!(moved, expect, "{case}");
            }
        }
    }

    #[test]
    fn rss_hash_survives_truncation_anywhere() {
        let r = rig(1);
        let frame = PacketBuilder::udp().frame_len(128).build();
        for len in 0..frame.len() {
            r.nic.rss_hash(&frame[..len]); // must not panic
        }
    }

    #[test]
    fn link_flap_drops_rx_and_defers_tx() {
        let mut r = rig(1);
        post(&mut r, 0, 0..4);
        let down_at = SimTime::from_us(1.0);
        let up_at = SimTime::from_us(2.0);
        r.nic.set_link_flaps(vec![(down_at, up_at)]);

        let frame = PacketBuilder::udp().frame_len(64).build();
        assert!(r
            .nic
            .rx_deliver(&frame, down_at, &mut r.mem, &r.dma)
            .is_none());
        assert_eq!(r.nic.stats().rx_link_down, 1);
        assert!(r
            .nic
            .rx_deliver(&frame, up_at, &mut r.mem, &r.dma)
            .is_some());

        // TX submitted mid-flap serializes only after the link is back.
        let req = TxRequest {
            buf_id: 0,
            data_addr: r.dma.data_addr(0),
            len: 64,
            seq: 0,
            arrival: SimTime::ZERO,
        };
        let (departed, _) = r.nic.tx_send(0, req, down_at, &mut r.mem).unwrap();
        assert_eq!(departed, up_at + LinkModel::new(100.0).frame_time(64));
    }

    #[test]
    fn arp_lands_on_queue_zero() {
        let mut r = rig(4);
        for q in 0..4 {
            post(&mut r, q, (q as u32 * 8)..(q as u32 * 8 + 8));
        }
        let frame = PacketBuilder::arp().build();
        assert_eq!(
            r.nic.rx_deliver(&frame, SimTime::ZERO, &mut r.mem, &r.dma),
            Some(0)
        );
    }
}
