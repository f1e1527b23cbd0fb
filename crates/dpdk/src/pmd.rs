//! The burst poll-mode driver.
//!
//! One [`Pmd`] drives one NIC queue pair from one core. Its RX and TX
//! paths perform — and charge to the cache model — the same sequence of
//! operations a real MLX5 PMD performs, with the metadata-management
//! model deciding *where* per-packet metadata is written:
//!
//! | step | Copying / Overlaying | X-Change |
//! |---|---|---|
//! | poll CQE | load completion descriptor (DDIO-warm) | same |
//! | metadata | store the full `rte_mbuf` RX field set at the buffer's mbuf header (pool-cycling, cold) | store only the NF's [`MetadataSpec`] fields into an [`XchgRing`] slot (bounded, hot) |
//! | replenish | `mempool` alloc (pool-ring load) + WQE store | swap in a TX-completed buffer + WQE store, no pool |
//! | TX convert | load metadata, store WQE | load xchg slot (hot), store WQE |
//! | TX free | `mempool` free (pool-ring store) | buffer joins the swap queue |
//!
//! The *Copying* model's second conversion (mbuf → framework `Packet`)
//! happens in the framework layer (`pm-click`), as it does in FastClick.
//!
//! Like the paper's prototype, there is no vectorized RX/TX path
//! (§4's experiments keep it off everywhere).

use crate::layout::StructLayout;
use crate::mempool::{Mempool, MempoolMode};
use crate::xchg::{MetadataModel, MetadataSpec, XchgRing};
use pm_mem::program::dedup_field_lines;
use pm_mem::{
    AccessProgram, AddressSpace, Cost, MemoryHierarchy, ProgramBuilder, Region, SCOPE_MEMPOOL,
    SCOPE_RX, SCOPE_TX,
};
use pm_nic::{DmaMemory, Nic, PostedBuffer, TxRequest};
use pm_sim::SimTime;
use std::collections::VecDeque;

/// Stride of one buffer's metadata area in the mbuf-header region:
/// 128 B of `rte_mbuf` plus 128 B for overlaid framework annotations.
pub const META_STRIDE: u64 = 256;

/// X-Change application-descriptor ring size **per queue** (≈ 2 bursts
/// suffices, since TX enqueue returns descriptors synchronously).
const XCHG_RING_SIZE: u32 = 64;

/// PMD construction parameters.
#[derive(Debug, Clone)]
pub struct PmdConfig {
    /// RX/TX burst size (the paper's configurations use 32).
    pub burst: usize,
    /// Metadata-management model.
    pub model: MetadataModel,
    /// Fields the NF needs (used by the X-Change write path).
    pub spec: MetadataSpec,
    /// Data-buffer pool size.
    pub pool_size: u32,
    /// Pool recycling order.
    pub pool_mode: MempoolMode,
    /// Queue pairs this port drives (each gets its own X-Change ring and
    /// recycle queue; all share the port's mempool, as in DPDK).
    pub queues: usize,
    /// Cores that may operate on this port's mempool (sizes the per-core
    /// caches when `pool_cache > 0`).
    pub cores: usize,
    /// Per-core mempool cache size in objects; 0 (the default, and the
    /// single-core configuration) disables the caches entirely so the
    /// address-space layout matches the pre-multicore simulator.
    pub pool_cache: u32,
    /// X-Change: the application's descriptor layout. `None` derives a
    /// minimal layout from `spec`; a framework passes its own `Packet`
    /// layout here so the driver writes fields in place (paper §3.1).
    pub xchg_layout: Option<StructLayout>,
}

impl Default for PmdConfig {
    fn default() -> Self {
        PmdConfig {
            burst: 32,
            model: MetadataModel::Copying,
            spec: MetadataSpec::full(),
            pool_size: 8192,
            pool_mode: MempoolMode::Fifo,
            queues: 1,
            cores: 1,
            pool_cache: 0,
            xchg_layout: None,
        }
    }
}

/// Per-PMD statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmdStats {
    /// RX bursts that returned at least one packet.
    pub rx_bursts: u64,
    /// Packets received.
    pub rx_packets: u64,
    /// Polls that found an empty completion queue.
    pub empty_polls: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Replenishments that had to fall back to the mempool in X-Change
    /// mode (no swapped buffer was available).
    pub xchg_pool_fallbacks: u64,
    /// Packets released without transmission (drops by the NF).
    pub released: u64,
    /// Replenish attempts denied by an injected mempool-exhaustion
    /// window (the ring runs a deficit until the window closes).
    pub pool_denials: u64,
}

/// A received packet as handed to the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxDesc {
    /// Data buffer id in the [`DmaMemory`] pool.
    pub buf_id: u32,
    /// Frame length.
    pub len: u32,
    /// RSS hash from the device.
    pub rss_hash: u32,
    /// Arrival time (end of DMA).
    pub arrival: SimTime,
    /// Wire-arrival (generation) time — the latency baseline.
    pub gen: SimTime,
    /// Monotonic sequence number.
    pub seq: u64,
    /// Simulated address of the packet data.
    pub data_addr: u64,
    /// Simulated address of this packet's metadata structure (mbuf header
    /// for Copying/Overlaying, xchg slot for X-Change).
    pub meta_addr: u64,
    /// X-Change descriptor slot, if that model is active.
    pub xslot: Option<u32>,
}

/// A frame the framework wants transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxSend {
    /// Originating RX descriptor (possibly with an updated length).
    pub desc: RxDesc,
    /// Frame length to send (may differ from `desc.len`, e.g. VLAN encap).
    pub len: u32,
}

/// The poll-mode driver for one NIC port (all of its queue pairs share
/// the port's mempool, as in a real DPDK application).
#[derive(Debug)]
pub struct Pmd {
    cfg: PmdConfig,
    /// mbuf-header region: `pool_size` slots of [`META_STRIDE`] bytes.
    meta_region: Region,
    pool: Mempool,
    /// One X-Change descriptor ring per queue (empty unless that model
    /// is active): slots never migrate between queues, so each core's
    /// descriptor working set stays in its own cache.
    xchg: Vec<XchgRing>,
    /// X-Change: per-queue data buffers returned by TX-ring swap, ready
    /// to repost on the same queue.
    recycled: Vec<VecDeque<u32>>,
    /// Injected mempool-exhaustion windows: replenish allocations are
    /// denied while `from <= now < until`.
    pool_denied: Vec<(SimTime, SimTime)>,
    stats: PmdStats,
    /// Reused completion buffer for the RX poll loop (no per-burst
    /// allocation).
    comps_scratch: Vec<pm_nic::Completion>,
    /// Reused base-register rows for the batched per-completion
    /// conversion program (no per-burst allocation).
    rows_scratch: Vec<[u64; 3]>,
    /// Precompiled access programs for the hot per-packet charge sets
    /// (see [`pm_mem::program`]), built in [`Pmd::new`]: CQE poll, the
    /// per-completion conversion the metadata model implies (for
    /// X-Change, from the layout every queue's ring shares), RX WQE
    /// store, TX metadata load, TX WQE store.
    poll_prog: AccessProgram,
    rx_meta_prog: AccessProgram,
    rx_wqe_prog: AccessProgram,
    tx_meta_prog: AccessProgram,
    tx_wqe_prog: AccessProgram,
}

impl Pmd {
    /// Creates a PMD for one port, allocating its pools from `space`.
    ///
    /// # Panics
    ///
    /// Panics if `burst` or `queues` is zero.
    pub fn new(cfg: PmdConfig, space: &mut AddressSpace) -> Self {
        assert!(cfg.burst > 0, "burst must be positive");
        assert!(cfg.queues > 0, "a PMD drives at least one queue pair");
        let (xchg, rx_meta_prog) = if cfg.model == MetadataModel::XChange {
            let layout = cfg
                .xchg_layout
                .clone()
                .unwrap_or_else(|| cfg.spec.to_layout("AppDescriptor"));
            let prog = xchg_program(&cfg.spec, &layout);
            let rings = (0..cfg.queues)
                .map(|_| XchgRing::new(space, XCHG_RING_SIZE, layout.clone()))
                .collect();
            (rings, prog)
        } else {
            // Full rte_mbuf RX field set: all in the first line.
            let prog = ProgramBuilder::new()
                .prefetch(0, 0, 64)
                .load(0, 0, 32)
                .compute(18)
                .prefetch(1, 0, 128)
                .compute(2)
                .store(2, 0, 64)
                .compute(16)
                .build();
            (Vec::new(), prog)
        };
        Pmd {
            meta_region: space.alloc_pages(u64::from(cfg.pool_size) * META_STRIDE),
            pool: Mempool::with_core_caches(
                space,
                cfg.pool_size,
                cfg.pool_mode,
                cfg.cores,
                cfg.pool_cache,
            ),
            xchg,
            recycled: vec![VecDeque::new(); cfg.queues],
            pool_denied: Vec::new(),
            stats: PmdStats::default(),
            comps_scratch: Vec::new(),
            rows_scratch: Vec::new(),
            poll_prog: ProgramBuilder::new().compute(8).load(0, 0, 8).build(),
            rx_meta_prog,
            rx_wqe_prog: ProgramBuilder::new().store(0, 0, 16).compute(7).build(),
            tx_meta_prog: ProgramBuilder::new().load(0, 0, 16).compute(13).build(),
            tx_wqe_prog: ProgramBuilder::new().store(0, 0, 32).compute(10).build(),
            cfg,
        }
    }

    /// Statistics.
    pub fn stats(&self) -> PmdStats {
        self.stats
    }

    /// Always 0: `pm-mem` no longer memoizes access signatures, so no
    /// program is ever replayed. Kept only because the frozen
    /// `benchmark/` crate reads it; retire together with
    /// [`Pmd::steady_bursts`] and the benchmark's
    /// `mem.batch_replay_ratio` / `dpdk.steady_burst_ratio` metrics in
    /// the next `benchmark` PR.
    pub fn batch_replays(&self) -> u64 {
        0
    }

    /// Always 0; see [`Pmd::batch_replays`].
    pub fn steady_bursts(&self) -> u64 {
        0
    }

    /// Free buffers in the port's mempool right now (an observation
    /// point for the flight recorder; reads no simulated memory and
    /// charges nothing).
    pub fn pool_available(&self) -> usize {
        self.pool.available()
    }

    /// Installs injected mempool-exhaustion windows: while one is
    /// active, RX replenish allocations are denied (counted in
    /// [`PmdStats::pool_denials`]) and the ring runs a deficit; the
    /// driver's retry-next-burst logic refills it once the window ends.
    /// No window (the default) costs nothing.
    pub fn set_pool_denial_windows(&mut self, windows: Vec<(SimTime, SimTime)>) {
        self.pool_denied = windows;
    }

    fn pool_denied_at(&self, t: SimTime) -> bool {
        self.pool_denied
            .iter()
            .any(|(from, until)| *from <= t && t < *until)
    }

    /// Queue 0's X-Change descriptor ring, when that model is active.
    pub fn xchg_ring(&self) -> Option<&XchgRing> {
        self.xchg.first()
    }

    /// Address of buffer `id`'s mbuf header.
    pub fn mbuf_addr(&self, id: u32) -> u64 {
        self.meta_region.base + u64::from(id) * META_STRIDE
    }

    /// All regions DPDK would back with 2-MiB hugepages (mbuf headers,
    /// the mempool ring, the X-Change descriptor ring).
    pub fn hugepage_regions(&self) -> Vec<Region> {
        let mut v = vec![self.meta_region, self.pool.ring_region()];
        v.extend(self.pool.cache_regions());
        for x in &self.xchg {
            v.push(x.region());
        }
        v
    }

    /// Initialization: fills queue `q`'s RX ring with pool buffers
    /// (uncharged — this models `rte_eth_rx_queue_setup` at startup).
    /// `core` is the core that owns queue `q` and runs its setup: only
    /// *its* private cache/TLB state is warmed, never another core's.
    ///
    /// # Panics
    ///
    /// Panics if the pool cannot fill the ring.
    pub fn setup(
        &mut self,
        core: usize,
        nic: &mut Nic,
        q: usize,
        dma: &DmaMemory,
        mem: &mut MemoryHierarchy,
    ) {
        let ring = nic.rx_ring_mut(q);
        let want = ring.size();
        for _ in 0..want {
            let (id, _) = self.pool.alloc(core, mem);
            let id = id.expect("pool too small to fill the RX ring");
            let posted = ring.post(PostedBuffer {
                buf_id: id,
                data_addr: dma.data_addr(id),
            });
            assert!(posted, "ring refused a buffer during setup");
        }
    }

    /// Receives up to one burst from queue `q` as `core`, seeing only
    /// completions whose DMA finished by `now`. Returns the packets and
    /// the charged cost.
    pub fn rx_burst(
        &mut self,
        core: usize,
        nic: &mut Nic,
        q: usize,
        dma: &DmaMemory,
        mem: &mut MemoryHierarchy,
        now: SimTime,
    ) -> (Vec<RxDesc>, Cost) {
        let lat = *mem.latency_model();
        // Attribution: everything in here is the RX stage except
        // pool-ring traffic, which belongs to the mempool stage.
        let outer_scope = mem.set_scope(SCOPE_RX);
        let mut pool_cost = Cost::ZERO;
        let mut cost = Cost::ZERO;
        // Poll-loop entry + the next CQE slot read (happens even when
        // empty), as one program.
        mem.run_program(
            core,
            &self.poll_prog,
            &[nic.rx_ring_mut(q).poll_addr()],
            &mut cost,
        );

        let mut comps = std::mem::take(&mut self.comps_scratch);
        nic.rx_ring_mut(q)
            .reap_until_into(self.cfg.burst, now, &mut comps);
        if comps.is_empty() {
            self.stats.empty_polls += 1;
        } else {
            self.stats.rx_bursts += 1;
        }

        let mut out = Vec::with_capacity(comps.len());
        let mut rows = std::mem::take(&mut self.rows_scratch);
        rows.clear();
        for &c in &comps {
            let (meta_addr, xslot) = match self.cfg.model {
                MetadataModel::Copying | MetadataModel::Overlaying => {
                    (self.mbuf_addr(c.buf_id), None)
                }
                MetadataModel::XChange => {
                    let ring = self
                        .xchg
                        .get_mut(q)
                        .expect("xchg ring exists per queue in XChange mode");
                    let slot = ring
                        .take()
                        .expect("xchg ring exhausted: sized >= 2 bursts by construction");
                    (ring.slot_addr(slot), Some(slot))
                }
            };
            rows.push([c.desc_addr, c.data_addr, meta_addr]);
            self.stats.rx_packets += 1;
            out.push(RxDesc {
                buf_id: c.buf_id,
                len: c.len,
                rss_hash: c.rss_hash,
                arrival: c.arrival,
                gen: c.gen,
                seq: c.seq,
                data_addr: c.data_addr,
                meta_addr,
                xslot,
            });
        }
        // Per-completion charge set: parse the completion descriptor
        // (the CQE array is scanned sequentially, so beyond the polled
        // entry the stream prefetcher has the rest of the burst's CQEs
        // in L1), rte_prefetch0 the packet headers so the demand reads
        // downstream hit L1, then write metadata per model — one
        // precompiled program over bases `[cqe, headers, metadata]`,
        // resolved for the whole burst in one batched call (row order
        // identical to the former per-completion runs, one attribution
        // window for the burst).
        if !rows.is_empty() {
            mem.run_program_batch(core, &self.rx_meta_prog, &rows, &mut cost);
        }
        self.rows_scratch = rows;
        // Replenish the ring back to full (covers this burst plus any
        // deficit left by earlier pool exhaustion — drivers retry).
        loop {
            let ring = nic.rx_ring_mut(q);
            if ring.posted_count() + ring.pending_completions() >= ring.size() {
                break;
            }
            let new_buf = match self.cfg.model {
                MetadataModel::XChange => match self.recycled[q].pop_front() {
                    Some(b) => Some(b),
                    None if self.pool_denied_at(now) => {
                        self.stats.pool_denials += 1;
                        None
                    }
                    None => {
                        self.stats.xchg_pool_fallbacks += 1;
                        let (b, c2) = Self::pool_alloc(&mut self.pool, core, mem);
                        pool_cost += c2;
                        cost += c2;
                        b
                    }
                },
                _ if self.pool_denied_at(now) => {
                    self.stats.pool_denials += 1;
                    None
                }
                _ => {
                    let (b, c2) = Self::pool_alloc(&mut self.pool, core, mem);
                    pool_cost += c2;
                    cost += c2;
                    b
                }
            };
            let Some(b) = new_buf else { break };
            let ring = nic.rx_ring_mut(q);
            let wqe = ring.next_post_addr();
            ring.post(PostedBuffer {
                buf_id: b,
                data_addr: dma.data_addr(b),
            });
            mem.run_program(core, &self.rx_wqe_prog, &[wqe], &mut cost);
        }

        if !out.is_empty() {
            // RX doorbell for the replenished descriptors (posted MMIO
            // write, amortized over the burst).
            cost += Cost::compute(22);
            cost += Cost::stall_ns(lat.llc_hit_ns * 0.25);
            // Attribute only non-empty bursts: the engine discards the
            // cost of empty polls, and the profile must match what is
            // actually measured.
            mem.profile_charge_at(SCOPE_RX, cost - pool_cost);
            mem.profile_charge_at(SCOPE_MEMPOOL, pool_cost);
            mem.profile_packets_at(SCOPE_RX, out.len() as u64);
        }
        mem.set_scope(outer_scope);
        self.comps_scratch = comps;
        (out, cost)
    }

    /// Pool allocation with its ring traffic tagged to the mempool stage.
    fn pool_alloc(
        pool: &mut Mempool,
        core: usize,
        mem: &mut MemoryHierarchy,
    ) -> (Option<u32>, Cost) {
        let prev = mem.set_scope(SCOPE_MEMPOOL);
        let out = pool.alloc(core, mem);
        mem.set_scope(prev);
        out
    }

    /// Pool free with its ring traffic tagged to the mempool stage.
    fn pool_free(pool: &mut Mempool, core: usize, mem: &mut MemoryHierarchy, id: u32) -> Cost {
        let prev = mem.set_scope(SCOPE_MEMPOOL);
        let c = pool.free(core, mem, id);
        mem.set_scope(prev);
        c
    }

    /// Transmits a burst on queue `q`. Returns per-packet wire-departure
    /// times (in input order; `None` if the TX ring was full) and the
    /// charged cost.
    pub fn tx_burst(
        &mut self,
        core: usize,
        nic: &mut Nic,
        q: usize,
        mem: &mut MemoryHierarchy,
        now: SimTime,
        sends: &[TxSend],
    ) -> (Vec<Option<SimTime>>, Cost) {
        let lat = *mem.latency_model();
        let outer_scope = mem.set_scope(SCOPE_TX);
        let mut pool_cost = Cost::ZERO;
        let mut cost = Cost::ZERO;
        let mut departures = Vec::with_capacity(sends.len());

        for s in sends {
            // Convert metadata to the TX descriptor: load the metadata
            // structure (hot for X-Change, pool-cycled otherwise).
            mem.run_program(core, &self.tx_meta_prog, &[s.desc.meta_addr], &mut cost);

            let req = TxRequest {
                buf_id: s.desc.buf_id,
                data_addr: s.desc.data_addr,
                len: s.len,
                seq: s.desc.seq,
                arrival: s.desc.arrival,
            };
            match nic.tx_send(q, req, now, mem) {
                Some((departed, wqe_addr)) => {
                    mem.run_program(core, &self.tx_wqe_prog, &[wqe_addr], &mut cost);
                    self.stats.tx_packets += 1;
                    departures.push(Some(departed));
                }
                None => {
                    // TX ring full: the frame is dropped; recycle its
                    // buffer so the pool does not leak.
                    match self.cfg.model {
                        MetadataModel::XChange => self.recycled[q].push_back(s.desc.buf_id),
                        _ => {
                            let c = Self::pool_free(&mut self.pool, core, mem, s.desc.buf_id);
                            pool_cost += c;
                            cost += c;
                        }
                    }
                    departures.push(None);
                }
            }

            // X-Change: the descriptor slot returns to the application at
            // enqueue time (the TX swap), keeping the live set bounded.
            if let Some(slot) = s.desc.xslot {
                self.xchg
                    .get_mut(q)
                    .expect("xslot implies XChange mode")
                    .give_back(slot);
            }
        }

        // Reap TX completions: recycle their data buffers.
        for done in nic.tx_reap(q, now) {
            match self.cfg.model {
                MetadataModel::XChange => self.recycled[q].push_back(done.req.buf_id),
                _ => {
                    let c = Self::pool_free(&mut self.pool, core, mem, done.req.buf_id);
                    pool_cost += c;
                    cost += c;
                }
            }
        }

        // TX doorbell, once per burst.
        cost += Cost::compute(22);
        cost += Cost::stall_ns(lat.llc_hit_ns * 0.25);
        let sent = departures.iter().filter(|d| d.is_some()).count() as u64;
        mem.profile_charge_at(SCOPE_TX, cost - pool_cost);
        mem.profile_charge_at(SCOPE_MEMPOOL, pool_cost);
        mem.profile_packets_at(SCOPE_TX, sent);
        mem.set_scope(outer_scope);
        (departures, cost)
    }

    /// Releases a packet the NF dropped (frees its buffer + descriptor
    /// back to queue `q`, the queue it arrived on).
    pub fn release(
        &mut self,
        core: usize,
        q: usize,
        mem: &mut MemoryHierarchy,
        desc: &RxDesc,
    ) -> Cost {
        self.stats.released += 1;
        let cost = if let Some(slot) = desc.xslot {
            self.xchg
                .get_mut(q)
                .expect("xslot implies XChange mode")
                .give_back(slot);
            self.recycled[q].push_back(desc.buf_id);
            Cost::compute(2)
        } else {
            Self::pool_free(&mut self.pool, core, mem, desc.buf_id)
        };
        mem.profile_charge_at(SCOPE_MEMPOOL, cost);
        cost
    }
}

/// The X-Change per-completion conversion: the mbuf program's CQE parse
/// and header prefetch, then the conversion functions — one store per
/// distinct descriptor line holding a field of `spec` (slots are
/// line-aligned, so offset-relative dedup equals the per-packet
/// absolute-address dedup) — and one work unit per field.
fn xchg_program(spec: &MetadataSpec, layout: &StructLayout) -> AccessProgram {
    let fields: Vec<(u32, u32)> = spec
        .fields()
        .iter()
        .filter_map(|f| layout.field(f.name()))
        .map(|fl| (fl.offset, fl.size))
        .collect();
    let mut b = ProgramBuilder::new()
        .prefetch(0, 0, 64)
        .load(0, 0, 32)
        .compute(18)
        .prefetch(1, 0, 128)
        .compute(2);
    for l in dedup_field_lines(&fields) {
        b = b.store(2, l * 64, 64);
    }
    b.compute(spec.len() as u32).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_nic::NicConfig;
    use pm_packet::builder::PacketBuilder;

    struct Rig {
        pmd: Pmd,
        nic: Nic,
        dma: DmaMemory,
        mem: MemoryHierarchy,
    }

    fn rig(model: MetadataModel) -> Rig {
        let mut space = AddressSpace::new();
        let nic_cfg = NicConfig {
            queues: 1,
            rx_ring_size: 256,
            tx_ring_size: 256,
            ..NicConfig::default()
        };
        let mut nic = Nic::new(&nic_cfg, &mut space);
        let dma = DmaMemory::new(&mut space, 1024, 2176, 128);
        let mut mem = MemoryHierarchy::skylake(1);
        let cfg = PmdConfig {
            model,
            spec: MetadataSpec::minimal(),
            pool_size: 1024,
            ..PmdConfig::default()
        };
        let mut pmd = Pmd::new(cfg, &mut space);
        pmd.setup(0, &mut nic, 0, &dma, &mut mem);
        Rig { pmd, nic, dma, mem }
    }

    fn deliver(r: &mut Rig, n: usize) {
        let frame = PacketBuilder::udp().frame_len(128).build();
        for _ in 0..n {
            r.nic
                .rx_deliver(&frame, SimTime::ZERO, &mut r.mem, &mut r.dma)
                .expect("delivery");
        }
    }

    #[test]
    fn rx_burst_returns_packets_with_data() {
        let mut r = rig(MetadataModel::Copying);
        deliver(&mut r, 5);
        let (pkts, cost) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        assert_eq!(pkts.len(), 5);
        assert!(cost.instructions > 0);
        for p in &pkts {
            assert_eq!(p.len, 128);
            assert!(r.dma.data(p.buf_id).len() >= 128);
            assert!(p.xslot.is_none());
        }
    }

    #[test]
    fn empty_poll_counted_and_cheap() {
        let mut r = rig(MetadataModel::Copying);
        let (pkts, cost) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        assert!(pkts.is_empty());
        assert_eq!(r.pmd.stats().empty_polls, 1);
        assert!(cost.instructions < 20, "empty poll must be cheap");
    }

    #[test]
    fn pool_exhaustion_denies_replenish_without_panicking() {
        let mut r = rig(MetadataModel::Copying);
        let window_end = SimTime::from_ms(50.0);
        r.pmd
            .set_pool_denial_windows(vec![(SimTime::ZERO, window_end)]);
        deliver(&mut r, 5);
        let (pkts, _) = r
            .pmd
            .rx_burst(0, &mut r.nic, 0, &r.dma, &mut r.mem, SimTime::from_ms(1.0));
        assert_eq!(pkts.len(), 5, "already-DMA'd packets still arrive");
        assert!(r.pmd.stats().pool_denials > 0);
        let ring = r.nic.rx_ring_mut(0);
        let deficit = ring.size() - (ring.posted_count() + ring.pending_completions());
        assert_eq!(deficit, 5, "denied replenish leaves a ring deficit");

        // After the window the next burst repairs the deficit.
        deliver(&mut r, 1);
        let (_, _) = r
            .pmd
            .rx_burst(0, &mut r.nic, 0, &r.dma, &mut r.mem, window_end);
        let ring = r.nic.rx_ring_mut(0);
        assert_eq!(
            ring.posted_count() + ring.pending_completions(),
            ring.size(),
            "driver retry refills the ring once the pool recovers"
        );
    }

    #[test]
    fn burst_size_respected() {
        let mut r = rig(MetadataModel::Copying);
        deliver(&mut r, 40);
        let (pkts, _) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        assert_eq!(pkts.len(), 32);
        let (pkts, _) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        assert_eq!(pkts.len(), 8);
    }

    #[test]
    fn xchange_assigns_slots_and_returns_them_at_tx() {
        let mut r = rig(MetadataModel::XChange);
        deliver(&mut r, 32);
        let (pkts, _) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        assert!(pkts.iter().all(|p| p.xslot.is_some()));
        let avail_before = r.pmd.xchg_ring().unwrap().available();
        let sends: Vec<TxSend> = pkts
            .iter()
            .map(|&desc| TxSend {
                desc,
                len: desc.len,
            })
            .collect();
        let (deps, _) =
            r.pmd
                .tx_burst(0, &mut r.nic, 0, &mut r.mem, SimTime::from_us(10.0), &sends);
        assert!(deps.iter().all(|d| d.is_some()));
        assert_eq!(
            r.pmd.xchg_ring().unwrap().available(),
            avail_before + 32,
            "descriptors return at enqueue (the TX swap)"
        );
    }

    #[test]
    fn xchange_metadata_stays_in_small_ring() {
        let mut r = rig(MetadataModel::XChange);
        // Two full cycles: the same slot addresses must be reused.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            deliver(&mut r, 32);
            let (pkts, _) = r.pmd.rx_burst(
                0,
                &mut r.nic,
                0,
                &r.dma,
                &mut r.mem,
                SimTime::from_ms(100.0),
            );
            for p in &pkts {
                seen.insert(p.meta_addr);
            }
            let sends: Vec<TxSend> = pkts
                .iter()
                .map(|&desc| TxSend {
                    desc,
                    len: desc.len,
                })
                .collect();
            let now = SimTime::from_ms(1.0);
            r.pmd.tx_burst(0, &mut r.nic, 0, &mut r.mem, now, &sends);
        }
        assert!(
            seen.len() <= 64,
            "metadata addresses must stay within the xchg ring, saw {}",
            seen.len()
        );
    }

    #[test]
    fn copying_metadata_cycles_the_pool() {
        let mut r = rig(MetadataModel::Copying);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            deliver(&mut r, 32);
            let (pkts, _) = r.pmd.rx_burst(
                0,
                &mut r.nic,
                0,
                &r.dma,
                &mut r.mem,
                SimTime::from_ms(100.0),
            );
            for p in &pkts {
                seen.insert(p.meta_addr);
            }
            let sends: Vec<TxSend> = pkts
                .iter()
                .map(|&desc| TxSend {
                    desc,
                    len: desc.len,
                })
                .collect();
            r.pmd
                .tx_burst(0, &mut r.nic, 0, &mut r.mem, SimTime::from_ms(1.0), &sends);
        }
        assert!(
            seen.len() > 64,
            "mbuf headers should cycle through many pool slots, saw {}",
            seen.len()
        );
    }

    #[test]
    fn tx_free_returns_buffers_to_pool() {
        let mut r = rig(MetadataModel::Copying);
        deliver(&mut r, 8);
        let (pkts, _) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        let sends: Vec<TxSend> = pkts
            .iter()
            .map(|&desc| TxSend {
                desc,
                len: desc.len,
            })
            .collect();
        r.pmd
            .tx_burst(0, &mut r.nic, 0, &mut r.mem, SimTime::ZERO, &sends);
        // Frames depart quickly; a later burst reaps them back to the pool.
        deliver(&mut r, 1);
        let (pkts, _) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        let sends: Vec<TxSend> = pkts
            .iter()
            .map(|&desc| TxSend {
                desc,
                len: desc.len,
            })
            .collect();
        r.pmd
            .tx_burst(0, &mut r.nic, 0, &mut r.mem, SimTime::from_ms(5.0), &sends);
        assert!(r.pmd.pool.stats().frees >= 8);
    }

    #[test]
    fn release_frees_dropped_packets() {
        let mut r = rig(MetadataModel::XChange);
        deliver(&mut r, 2);
        let (pkts, _) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        let avail = r.pmd.xchg_ring().unwrap().available();
        r.pmd.release(0, 0, &mut r.mem, &pkts[0]);
        assert_eq!(r.pmd.xchg_ring().unwrap().available(), avail + 1);
        assert_eq!(r.pmd.stats().released, 1);
    }

    #[test]
    fn xchange_cheaper_than_copying_per_packet() {
        // Steady-state per-packet cost comparison after warmup.
        let run = |model| {
            let mut r = rig(model);
            let mut total = Cost::ZERO;
            let mut n = 0u64;
            for round in 0..64 {
                deliver(&mut r, 32);
                let (pkts, c1) = r.pmd.rx_burst(
                    0,
                    &mut r.nic,
                    0,
                    &r.dma,
                    &mut r.mem,
                    SimTime::from_ms(100.0),
                );
                let sends: Vec<TxSend> = pkts
                    .iter()
                    .map(|&desc| TxSend {
                        desc,
                        len: desc.len,
                    })
                    .collect();
                let now = SimTime::from_us(10.0 * (round + 1) as f64);
                let (_, c2) = r.pmd.tx_burst(0, &mut r.nic, 0, &mut r.mem, now, &sends);
                if round >= 16 {
                    total += c1 + c2;
                    n += pkts.len() as u64;
                }
            }
            total.time(pm_sim::Frequency::from_ghz(2.3)).as_ns() / n as f64
        };
        let copying = run(MetadataModel::Copying);
        let xchange = run(MetadataModel::XChange);
        assert!(
            xchange < copying,
            "x-change {xchange:.1} ns/pkt should beat copying {copying:.1} ns/pkt"
        );
    }

    #[test]
    fn stage_attribution_splits_rx_tx_mempool() {
        let mut r = rig(MetadataModel::Copying);
        r.mem.enable_attribution();
        deliver(&mut r, 32);
        let (pkts, rx_cost) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        let sends: Vec<TxSend> = pkts
            .iter()
            .map(|&desc| TxSend {
                desc,
                len: desc.len,
            })
            .collect();
        let (_, tx_cost) =
            r.pmd
                .tx_burst(0, &mut r.nic, 0, &mut r.mem, SimTime::from_ms(1.0), &sends);
        let recs = r.mem.profile_records();
        let get = |name: &str| {
            recs.iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| *p)
                .unwrap()
        };
        let (rx, tx, pool) = (get("rx/pmd"), get("tx"), get("mempool"));
        assert_eq!(rx.packets, 32);
        assert_eq!(tx.packets, 32);
        assert!(rx.cost.instructions > 0 && tx.cost.instructions > 0);
        assert!(
            pool.cost.instructions > 0,
            "replenish allocs must be tagged mempool"
        );
        assert!(pool.counters.loads > 0, "pool-ring events tagged mempool");
        // The three stages account for exactly what the PMD charged.
        let sum = rx.cost + tx.cost + pool.cost;
        let total = rx_cost + tx_cost;
        assert_eq!(sum.instructions, total.instructions);
        assert!((sum.cycles - total.cycles).abs() < 1e-6);
        assert!((sum.uncore_ns - total.uncore_ns).abs() < 1e-6);
        // Empty polls are charged to the caller but never attributed.
        let before = get("rx/pmd");
        let (empty, _) = r.pmd.rx_burst(
            0,
            &mut r.nic,
            0,
            &r.dma,
            &mut r.mem,
            SimTime::from_ms(100.0),
        );
        assert!(empty.is_empty());
        assert_eq!(get("rx/pmd").cost, before.cost);
    }

    /// Regression for the core-0 hardcode: queue setup must warm only the
    /// *owning* core's private cache state, never core 0's.
    #[test]
    fn setup_warms_only_the_owning_core() {
        use pm_mem::Level;
        let mut space = AddressSpace::new();
        let nic_cfg = NicConfig {
            queues: 2,
            rx_ring_size: 64,
            tx_ring_size: 64,
            ..NicConfig::default()
        };
        let mut nic = Nic::new(&nic_cfg, &mut space);
        let dma = DmaMemory::new(&mut space, 1024, 2176, 128);
        let mut mem = MemoryHierarchy::skylake(2);
        let cfg = PmdConfig {
            spec: MetadataSpec::minimal(),
            pool_size: 1024,
            queues: 2,
            cores: 2,
            ..PmdConfig::default()
        };
        let mut pmd = Pmd::new(cfg, &mut space);
        pmd.setup(0, &mut nic, 0, &dma, &mut mem);
        pmd.setup(1, &mut nic, 1, &dma, &mut mem);
        // The last pool-ring slot touched belongs to queue 1's fill, run
        // by core 1: its line must sit in core 1's private caches and be
        // absent from core 0's (probe_level never mutates state).
        let n = u64::from(pmd.pool.capacity());
        let last = pmd.pool.ring_region().base + ((2 * 64 - 1) % n) * 8;
        assert_eq!(mem.probe_level(1, last), Level::L1);
        assert_eq!(
            mem.probe_level(0, last),
            Level::Llc,
            "core 0 must not be warmed by core 1's queue setup"
        );
    }
}
