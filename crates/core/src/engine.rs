//! The closed-loop experiment engine: traffic generator → NIC (DMA/DDIO,
//! rings, RSS) → poll-mode driver → dataplane → TX — with per-core clocks
//! advanced by the charged costs, producing the metrics the paper
//! reports.
//!
//! The simulation is event-driven in a single loop: the core with the
//! earliest clock runs next; before it polls, every generator arrival up
//! to that instant is delivered (possibly dropping on full rings — the
//! mechanism behind the tail-latency knee of Fig. 1).

use pm_dpdk::{MetadataModel, MetadataSpec, Pmd, PmdConfig, RxDesc, TxSend};
use pm_frameworks::Dataplane;
use pm_mem::{AddressSpace, Cost, MemCounters, MemoryHierarchy, SCOPE_SCHEDULER};
use pm_nic::{DmaMemory, Nic, NicConfig};
use pm_sim::{DropCause, FaultPlan, Frequency, Ledger, SimTime, WireFault};
use pm_telemetry::{
    LatencyHistogram, ProfileRecord, ProfileReport, TimelineRecorder, TimelineReport,
    TraceRecorder, TraceReport, TraceSpec,
};
use pm_traffic::{wire_gap, Trace};
use std::collections::BTreeMap;
use std::sync::Arc;

/// TX descriptor ring size.
const TX_RING: usize = 1024;

/// Fixed latency outside the DUT (generator + PHYs + cabling).
const BASE_LATENCY: SimTime = SimTime::from_ps(4_000_000);

/// How far past the next event an idle core's clock lands: busy-polling
/// an empty ring is not simulated poll by poll but coarsened into one
/// 30-ns step.
const IDLE_POLL_STEP: SimTime = SimTime::from_ps(30_000);

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Processing cores.
    pub cores: usize,
    /// NIC ports (1, or 2 for the dual-NIC experiment of Fig. 5b).
    pub nics: usize,
    /// Core clock frequency.
    pub freq: Frequency,
    /// RX descriptor ring size.
    pub rx_ring: usize,
    /// RX/TX burst size.
    pub burst: usize,
    /// Metadata-management model the PMD runs.
    pub model: MetadataModel,
    /// Fields the NF needs (X-Change write set).
    pub spec: MetadataSpec,
    /// Application descriptor layout for X-Change (the framework's
    /// `Packet` layout), if any.
    pub xchg_layout: Option<pm_dpdk::StructLayout>,
    /// Offered load per NIC, Gbps.
    pub offered_gbps: f64,
    /// Packets to generate per NIC.
    pub packets: usize,
    /// Packets (per NIC) excluded from measurement as warm-up.
    pub warmup: usize,
    /// Override the number of LLC ways DDIO may fill (None = default 4).
    pub ddio_ways: Option<usize>,
    /// Override the mempool recycling order (None = FIFO).
    pub pool_mode: Option<pm_dpdk::MempoolMode>,
    /// Attribute every charged cost and cache event to the executing
    /// element/stage and collect a per-element [`ProfileReport`].
    pub profile: bool,
    /// Deterministic fault plan, if any. `None` (and an empty plan,
    /// which callers normalize to `None`) leaves every path untouched —
    /// the zero-cost invariant the golden fixtures enforce.
    pub faults: Option<FaultPlan>,
    /// Flight-recorder time-series window (virtual time), if any.
    /// Recording is measurement-neutral: it reads engine state, charges
    /// no cost, and performs no simulated memory accesses.
    pub timeline: Option<SimTime>,
    /// Sampled per-packet lifecycle tracing, if any. The sample set is a
    /// pure function of `(spec.seed, nic, seq)` — independent of thread
    /// count and of the timeline window.
    pub trace: Option<TraceSpec>,
    /// Resolve every access program through the reference per-call walk
    /// (no resident filter, no invalidation-scan elision, no batched
    /// attribution). Bit-identical to the default resolver by
    /// construction — the regression tests run both and assert
    /// byte-equal artifacts.
    pub reference_walk: bool,
    /// Back element-owned lookup tables (flow tables, route tries)
    /// with 2-MiB hugepages, like DPDK's `rte_hash` on hugepage
    /// memory. Off by default: the 4-KiB baseline is what the
    /// flow-scale sweep compares against.
    pub hugepage_tables: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cores: 1,
            nics: 1,
            freq: Frequency::from_ghz(2.3),
            rx_ring: 4096,
            burst: 32,
            model: MetadataModel::Copying,
            spec: MetadataSpec::full(),
            xchg_layout: None,
            offered_gbps: 100.0,
            packets: 100_000,
            warmup: 20_000,
            ddio_ways: None,
            pool_mode: None,
            profile: false,
            faults: None,
            timeline: None,
            trace: None,
            reference_walk: false,
            hugepage_tables: false,
        }
    }
}

/// The metrics one experiment run produces (the paper's measurement set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Delivered throughput, Gbps (frame bytes on the TX side).
    pub throughput_gbps: f64,
    /// Delivered packets per second, millions.
    pub mpps: f64,
    /// Median end-to-end latency, µs.
    pub median_latency_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_latency_us: f64,
    /// Mean latency, µs.
    pub mean_latency_us: f64,
    /// Instructions per cycle over the measured window.
    pub ipc: f64,
    /// `LLC-loads` per 100 ms (the paper's Table 1 unit).
    pub llc_loads_per_100ms: f64,
    /// `LLC-load-misses` per 100 ms.
    pub llc_misses_per_100ms: f64,
    /// LLC load-miss ratio, percent.
    pub llc_miss_pct: f64,
    /// Packets dropped by the NIC (ring overflow), whole run.
    pub rx_dropped: u64,
    /// Packets the NF dropped in the measured window (post-warm-up
    /// sequence numbers only, unlike `rx_dropped` and `tx_dropped`).
    pub nf_dropped: u64,
    /// Frames dropped at the TX ring, whole run.
    pub tx_dropped: u64,
    /// Packets transmitted in the measured window.
    pub tx_packets: u64,
    /// Simulated measured time, ms.
    pub elapsed_ms: f64,
    /// Mean retired instructions per processed packet.
    pub instr_per_packet: f64,
    /// Mean core-domain cycles per processed packet.
    pub cycles_per_packet: f64,
    /// Mean uncore stall per processed packet, ns.
    pub uncore_ns_per_packet: f64,
}

/// Per-queue packet conservation for one (nic, queue) pair and the core
/// it is pinned to. Frames rejected before RSS steering (FCS errors,
/// link-down losses, descriptor drops) have no queue and appear only in
/// the aggregate [`Ledger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLedger {
    /// Core this queue pair is pinned to.
    pub core: usize,
    /// NIC port index.
    pub nic: usize,
    /// Queue index on that port.
    pub queue: usize,
    /// Frames DMA'd into this queue's completion ring.
    pub delivered: u64,
    /// Frames steered here but dropped for lack of a posted buffer
    /// (informational: they never became `delivered`).
    pub rx_ring_dropped: u64,
    /// Delivered frames the NF dropped.
    pub nf_dropped: u64,
    /// Delivered frames dropped at this queue's full TX ring.
    pub tx_ring_dropped: u64,
    /// Delivered frames serialized onto the wire.
    pub tx_sent: u64,
}

impl QueueLedger {
    /// Every delivered frame ends as exactly one of: NF drop, TX-ring
    /// drop, or transmission.
    pub fn balances(&self) -> bool {
        self.delivered == self.nf_dropped + self.tx_ring_dropped + self.tx_sent
    }
}

/// The one pair → core rule. Pairs are numbered in `(nic, queue)` order
/// and dealt out to the cores round-robin.
fn core_of(pair: usize, cores: usize) -> usize {
    pair % cores
}

/// Per-core virtual clocks. The core with the earliest clock runs next;
/// ties rotate from a cursor instead of always favoring the lowest index,
/// so the interleave — and every artifact byte — is a pure function of
/// the configuration.
struct Clocks {
    at: Vec<SimTime>,
    tie: usize,
}

impl Clocks {
    fn new(cores: usize) -> Self {
        let at = vec![SimTime::ZERO; cores];
        Clocks { at, tie: 0 }
    }

    fn next(&mut self) -> usize {
        let n = self.at.len();
        let min = *self.at.iter().min().expect("at least one core");
        let core = (0..n)
            .map(|i| (self.tie + i) % n)
            .find(|&c| self.at[c] == min)
            .expect("a core holds the minimum clock");
        self.tie = (core + 1) % n;
        core
    }
}

/// The measured window's accumulators. It opens at the first burst that
/// carries a post-warm-up sequence number.
#[derive(Default)]
struct Window {
    hist: LatencyHistogram,
    tx_packets: u64,
    tx_bytes: u64,
    nf_dropped: u64,
    first_departure: Option<SimTime>,
    /// Last wire departure of any packet, warm-up included.
    last_departure: SimTime,
    cost: Cost,
    counters_at_start: Option<MemCounters>,
}

struct NicState {
    dev: Nic,
    /// Buffer geometry; the bytes are the trace's.
    dma: DmaMemory,
    pmd: Pmd,
    /// Replay cursor.
    next_idx: usize,
    next_time: SimTime,
    /// Per-trace-frame RSS hash: the trace replays cyclically, so one
    /// hash per distinct frame replaces a Toeplitz evaluation per
    /// delivered packet — and the trace keeps them per RSS key, so only
    /// the first engine built on a cached trace hashes at all.
    frame_hashes: Arc<[u32]>,
}

/// The closed-loop engine.
pub struct Engine {
    cfg: EngineConfig,
    mem: MemoryHierarchy,
    nics: Vec<NicState>,
    /// One dataplane instance per (nic, queue) pair.
    dataplanes: Vec<Box<dyn Dataplane>>,
    /// `(nic, queue)` per pair index.
    pairs: Vec<(usize, usize)>,
    traces: Vec<Trace>,
    /// Generation timestamp of the first post-warmup packet.
    measure_gen_start: Option<SimTime>,
    /// Whole-run NF drops per (nic, queue) pair: the `nf` count of the
    /// conservation ledgers ([`Measurement::nf_dropped`] counts only the
    /// measured window).
    nf_dropped_pairs: Vec<u64>,
    /// RX batch-size histogram over the measured window (profiled runs).
    batches: BTreeMap<u64, u64>,
    /// Per-(nic, queue) conservation ledgers, filled in by [`Engine::run`].
    queue_ledgers: Option<Vec<QueueLedger>>,
    /// Flight-recorder time series; finished by [`Engine::take_timeline`].
    timeline: Option<TimelineRecorder>,
    /// Sampled lifecycle traces; finished by [`Engine::take_trace`].
    trace: Option<TraceRecorder>,
    /// The last instant the run touched, set by [`Engine::run`].
    end: Option<SimTime>,
    // Per-burst buffers, reused to keep the poll loop allocation-free.
    sends: Vec<TxSend>,
    spans: Vec<(String, Cost)>,
    /// The one buffer the dataplane sees every packet in: the NIC moves
    /// no bytes, so a packet's bytes are copied out of the trace just
    /// before it is processed.
    scratch: Vec<u8>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cores", &self.cfg.cores)
            .field("nics", &self.nics.len())
            .field("pairs", &self.pairs)
            .finish()
    }
}

impl Engine {
    /// Queues per NIC implied by a configuration.
    pub fn queues_per_nic(cfg: &EngineConfig) -> usize {
        (cfg.cores / cfg.nics).max(1)
    }

    /// Builds the engine. `dataplanes` must hold one instance per
    /// (nic, queue) pair — `nics * queues_per_nic` — and `traces` one
    /// trace per NIC.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions.
    pub fn new(
        cfg: EngineConfig,
        mut dataplanes: Vec<Box<dyn Dataplane>>,
        traces: Vec<Trace>,
        space: &mut AddressSpace,
    ) -> Self {
        assert!(cfg.cores > 0 && cfg.nics > 0, "need cores and nics");
        let qpn = Self::queues_per_nic(&cfg);
        let pairs: Vec<(usize, usize)> = (0..cfg.nics)
            .flat_map(|n| (0..qpn).map(move |q| (n, q)))
            .collect();
        assert_eq!(
            dataplanes.len(),
            pairs.len(),
            "need one dataplane per (nic, queue) pair"
        );
        assert_eq!(traces.len(), cfg.nics, "need one trace per NIC");

        let mut hier_params = pm_mem::HierarchyParams::skylake(cfg.cores);
        if let Some(w) = cfg.ddio_ways {
            hier_params.ddio_ways = w;
        }
        let mut mem = if cfg.reference_walk {
            MemoryHierarchy::with_reference_walk(&hier_params)
        } else {
            MemoryHierarchy::new(&hier_params)
        };
        let nic_cfg = NicConfig {
            queues: qpn,
            rx_ring_size: cfg.rx_ring,
            tx_ring_size: TX_RING,
            ..NicConfig::default()
        };
        let nics: Vec<NicState> = (0..cfg.nics)
            .map(|n| {
                let mut dev = Nic::new(&nic_cfg, space);
                // Pool covers posted descriptors + TX in-flight + bursts
                // per queue (DPDK pools are sized to the rings; oversizing
                // inflates the DMA working set past the DDIO ways for no
                // benefit). At qpn == 1 this matches the single-core pool
                // exactly.
                let n_bufs = ((cfg.rx_ring + TX_RING + 4 * cfg.burst) * qpn) as u32;
                let dma = DmaMemory::new(space, n_bufs, 2176, 128);
                let pmd_cfg = PmdConfig {
                    burst: cfg.burst,
                    model: cfg.model,
                    spec: cfg.spec.clone(),
                    pool_size: n_bufs,
                    queues: qpn,
                    cores: cfg.cores,
                    // Per-core mempool caches only help (and only exist)
                    // when cores contend on the shared ring; keeping them
                    // off at cores == 1 pins the single-core layout the
                    // golden fixtures cover.
                    pool_cache: if cfg.cores > 1 { 256 } else { 0 },
                    xchg_layout: cfg.xchg_layout.clone(),
                    pool_mode: cfg.pool_mode.unwrap_or(pm_dpdk::MempoolMode::Fifo),
                };
                let mut pmd = Pmd::new(pmd_cfg, space);
                for q in 0..qpn {
                    // Queue setup warms the owning core's caches.
                    pmd.setup(core_of(n * qpn + q, cfg.cores), &mut dev, q, &dma, &mut mem);
                }
                // DPDK backs its memory with 2-MiB hugepages.
                mem.mark_hugepages(dma.region());
                for r in pmd.hugepage_regions() {
                    mem.mark_hugepages(r);
                }
                for q in 0..qpn {
                    let (cq, wq) = dev.rx_ring_mut(q).regions();
                    mem.mark_hugepages(cq);
                    mem.mark_hugepages(wq);
                    let txr = dev.tx_ring_mut(q).region();
                    mem.mark_hugepages(txr);
                }
                let frame_hashes = traces[n].frame_hashes(dev.rss_key());
                if let Some(plan) = cfg.faults.as_ref().filter(|p| !p.is_empty()) {
                    dev.set_link_flaps(plan.link_down_windows());
                    pmd.set_pool_denial_windows(plan.pool_exhaust_windows());
                }
                NicState {
                    dev,
                    dma,
                    pmd,
                    next_idx: 0,
                    next_time: SimTime::ZERO,
                    frame_hashes,
                }
            })
            .collect();

        if cfg.profile {
            mem.enable_attribution();
        }

        if cfg.hugepage_tables {
            // Element tables (NAT flow table, conntrack, route trie)
            // are allocated by the dataplanes' setup; remap them onto
            // hugepages so table walks stop paying 4-KiB DTLB misses.
            for d in &dataplanes {
                for r in d.table_regions() {
                    mem.mark_hugepages(r);
                }
            }
        }

        let timeline = cfg.timeline.map(|w| {
            TimelineRecorder::new(
                w.as_ps(),
                cfg.cores,
                DropCause::ALL.iter().map(|c| c.as_str()).collect(),
            )
        });
        let trace = cfg.trace.map(TraceRecorder::new);
        if trace.is_some() {
            for d in &mut dataplanes {
                d.set_span_recording(true);
            }
        }
        let scratch = vec![0u8; nics[0].dma.data_capacity() as usize];

        Engine {
            cfg,
            mem,
            nics,
            dataplanes,
            nf_dropped_pairs: vec![0; pairs.len()],
            pairs,
            traces,
            measure_gen_start: None,
            batches: BTreeMap::new(),
            queue_ledgers: None,
            timeline,
            trace,
            end: None,
            sends: Vec::new(),
            spans: Vec::new(),
            scratch,
        }
    }

    fn deliver_up_to(&mut self, now: SimTime) {
        let warmup = self.cfg.warmup;
        let plan = self.cfg.faults.as_ref().filter(|p| !p.is_empty());
        let qpn = Self::queues_per_nic(&self.cfg);
        let cores = self.cfg.cores;
        for (n, st) in self.nics.iter_mut().enumerate() {
            while st.next_idx < self.cfg.packets && st.next_time <= now {
                if st.next_idx == warmup && self.measure_gen_start.is_none() {
                    self.measure_gen_start = Some(st.next_time);
                }
                let trace = &self.traces[n];
                let len = trace.frame_len(st.next_idx);
                let seq = st.next_idx as u64;
                let at = st.next_time;
                let fault = plan.and_then(|p| p.wire_fault(n as u64, seq, at, len));
                let hash = match fault {
                    // The device hashes the bytes that arrive; only a
                    // truncated frame's differ from the memoized ones.
                    Some(WireFault::Truncate { new_len }) => {
                        let full = trace.copy_frame(st.next_idx, &mut self.scratch);
                        st.dev.rss_hash(&self.scratch[..new_len.min(full)])
                    }
                    _ => st.frame_hashes[st.next_idx % st.frame_hashes.len()],
                };
                let delivered =
                    st.dev
                        .rx_deliver_wire(len, hash, at, seq, &mut self.mem, &st.dma, fault);
                if let (Some(tl), Ok(q)) = (self.timeline.as_mut(), delivered) {
                    tl.on_rx(core_of(n * qpn + q, cores), at.as_ps(), 1);
                }
                if let Some(tr) = self.trace.as_mut() {
                    if tr.wants(n as u32, seq) && tr.begin(n as u32, seq, at.as_ps()) {
                        if let Err(cause) = delivered {
                            tr.on_fate(n as u32, seq, at.as_ps(), cause.as_str());
                        }
                    }
                }
                // Pacing always follows the frame as generated: faults
                // change what arrives, never when the next frame does.
                st.next_time += wire_gap(len, self.cfg.offered_gbps);
                st.next_idx += 1;
            }
        }
    }

    /// Runs the experiment to completion and returns the measurements.
    pub fn run(&mut self) -> Measurement {
        let cores = self.cfg.cores;
        let pairs_of = |c| (0..self.pairs.len()).filter(move |&p| core_of(p, cores) == c);
        let core_pairs: Vec<Vec<usize>> = (0..cores).map(|c| pairs_of(c).collect()).collect();
        // Round-robin cursor over each core's pairs.
        let mut rr = vec![0usize; cores];
        let mut clocks = Clocks::new(cores);
        let mut w = Window::default();
        loop {
            let core = clocks.next();
            let now = clocks.at[core];
            self.deliver_up_to(now);
            if self.timeline.is_some() {
                self.observe_recorder(now);
            }
            let my_pairs = &core_pairs[core];
            if my_pairs.is_empty() {
                clocks.at[core] = SimTime::MAX;
                continue;
            }
            let pair = my_pairs[rr[core] % my_pairs.len()];
            rr[core] += 1;
            let (pkts, rx_cost) = self.poll(core, pair, now);
            if pkts.is_empty() {
                match self.next_event() {
                    Some(t) => clocks.at[core] = now.max(t) + IDLE_POLL_STEP,
                    None => break,
                }
                continue;
            }
            let measured = pkts.iter().any(|p| p.seq >= self.cfg.warmup as u64);
            if measured {
                self.open_window(&mut w, pkts.len());
            }
            let cost = self.process(core, pair, now, &pkts, rx_cost, &mut w);
            clocks.at[core] =
                self.transmit(core, pair, now + cost.time(self.cfg.freq), measured, &mut w);
            if measured {
                w.cost += cost;
            }
        }
        // The recorders close at the last instant the run touched: the
        // final core clocks and the last wire departure.
        let end = clocks.at.iter().filter(|&&c| c != SimTime::MAX);
        self.end = Some(end.fold(w.last_departure, |e, &c| e.max(c)));
        self.check_ledgers();
        self.measurement(&w)
    }

    /// The next instant a poll can find work: a generator arrival or a
    /// queued completion whose DMA is still in flight. `None` once the
    /// run has drained.
    fn next_event(&self) -> Option<SimTime> {
        let qpn = Self::queues_per_nic(&self.cfg);
        let arrivals = self.nics.iter().filter(|s| s.next_idx < self.cfg.packets);
        let pending = self
            .nics
            .iter()
            .flat_map(|s| (0..qpn).map(move |q| s.dev.rx_ring(q)));
        arrivals
            .map(|s| s.next_time)
            .chain(pending.filter_map(|r| r.oldest_arrival()))
            .min()
    }

    /// Polls `pair` once as `core`. Occupancy is sampled at every poll —
    /// empty ones included — so idle stretches still produce samples.
    fn poll(&mut self, core: usize, pair: usize, now: SimTime) -> (Vec<RxDesc>, Cost) {
        let (n, q) = self.pairs[pair];
        let st = &mut self.nics[n];
        if let Some(tl) = self.timeline.as_mut() {
            tl.on_occupancy(
                core,
                now.as_ps(),
                st.dev.rx_ring(q).pending_completions() as u64,
                st.dev.tx_ring(q).in_flight() as u64,
                st.pmd.pool_available() as u64,
            );
        }
        st.pmd
            .rx_burst(core, &mut st.dev, q, &st.dma, &mut self.mem, now)
    }

    /// Called for every burst that carries a measured packet. The first
    /// one opens the window and aligns the profile with it: its RX cost
    /// stays in [`Window::cost`] but its attribution is wiped — a
    /// one-burst edge, well under the 1% tolerance the profile is
    /// reported at — and the batch histogram skips it to stay consistent
    /// with the attributed `rx/pmd` packet count.
    fn open_window(&mut self, w: &mut Window, burst: usize) {
        if w.counters_at_start.is_none() {
            w.counters_at_start = Some(self.mem.counters());
            self.mem.profile_reset();
            self.batches.clear();
        } else if self.cfg.profile {
            *self.batches.entry(burst as u64).or_insert(0) += 1;
        }
    }

    /// Runs a burst through `pair`'s dataplane, queueing survivors in
    /// `self.sends` and releasing NF drops, and charges the scheduler.
    /// Returns the burst's cost so far, starting from `cost`.
    fn process(
        &mut self,
        core: usize,
        pair: usize,
        now: SimTime,
        pkts: &[RxDesc],
        mut cost: Cost,
        w: &mut Window,
    ) -> Cost {
        let (n, q) = self.pairs[pair];
        let (nic, freq) = (n as u32, self.cfg.freq);
        if let Some(tr) = self.trace.as_mut() {
            for p in pkts {
                if tr.wants(nic, p.seq) {
                    tr.on_delivered(nic, p.seq, q as u32, p.arrival.as_ps());
                    tr.on_poll(nic, p.seq, core as u32, now.as_ps());
                }
            }
        }
        let dp = &mut self.dataplanes[pair];
        self.sends.clear();
        for desc in pkts {
            // The whole frame: a truncated one's delivered `len` is
            // shorter, and the NF reads only that prefix.
            self.traces[n].copy_frame(desc.seq as usize, &mut self.scratch);
            let sampled = self.trace.as_ref().is_some_and(|t| t.wants(nic, desc.seq));
            // Spans are laid out in virtual time from the charge the
            // burst has accumulated so far — reads only, no charges.
            let span_start = sampled.then(|| now + cost.time(freq));
            let r = dp.process(core, &mut self.mem, desc, &mut self.scratch);
            cost += r.cost;
            if let (Some(mut t), Some(tr)) = (span_start, self.trace.as_mut()) {
                self.spans.clear();
                dp.take_spans(&mut self.spans);
                for (label, c) in self.spans.drain(..) {
                    let end = t + c.time(freq);
                    tr.on_span(nic, desc.seq, label, t.as_ps(), end.as_ps());
                    t = end;
                }
            }
            match r.tx_len {
                Some(len) => self.sends.push(TxSend { desc: *desc, len }),
                None => {
                    cost += self.nics[n].pmd.release(core, q, &mut self.mem, desc);
                    self.nf_dropped_pairs[pair] += 1;
                    w.nf_dropped += u64::from(desc.seq >= self.cfg.warmup as u64);
                    if let Some(tr) = self.trace.as_mut().filter(|_| sampled) {
                        let at = (now + cost.time(freq)).as_ps();
                        tr.on_fate(nic, desc.seq, at, DropCause::Nf.as_str());
                    }
                }
            }
        }
        let batch_cost = dp.per_batch_cost(pkts.len());
        self.mem.profile_charge_at(SCOPE_SCHEDULER, batch_cost);
        cost + batch_cost
    }

    /// Hands `self.sends` to `pair`'s TX ring from `clock`, the instant
    /// processing finished, and returns the core's clock after the last
    /// send. ToDPDKDevice applies backpressure: when the ring is full the
    /// core spins until the wire frees a slot, rather than dropping.
    fn transmit(
        &mut self,
        core: usize,
        pair: usize,
        mut clock: SimTime,
        measured: bool,
        w: &mut Window,
    ) -> SimTime {
        let (n, q) = self.pairs[pair];
        let nic = n as u32;
        let st = &mut self.nics[n];
        let mut offset = 0;
        while offset < self.sends.len() {
            let free = st.dev.tx_free_slots(q);
            if free == 0 {
                let t = st.dev.tx_oldest_departure(q);
                clock = clock.max(t.expect("a full TX ring holds frames"));
            }
            // With no free slot the burst is empty: it still reaps
            // completions.
            let chunk = &self.sends[offset..offset + free.min(self.sends.len() - offset)];
            let tx_at = clock;
            let (departures, tx_cost) =
                st.pmd
                    .tx_burst(core, &mut st.dev, q, &mut self.mem, tx_at, chunk);
            clock += tx_cost.time(self.cfg.freq);
            if measured {
                w.cost += tx_cost;
            }
            for (send, dep) in chunk.iter().zip(&departures) {
                let seq = send.desc.seq;
                if let Some(d) = *dep {
                    w.last_departure = w.last_departure.max(d);
                    let lat_ns = (d.saturating_sub(send.desc.gen) + BASE_LATENCY).as_ns() as u64;
                    if seq >= self.cfg.warmup as u64 {
                        w.first_departure.get_or_insert(d);
                        w.tx_packets += 1;
                        w.tx_bytes += send.len as u64;
                        w.hist.record(lat_ns);
                    }
                    if let Some(tl) = self.timeline.as_mut() {
                        tl.on_tx(core, d.as_ps(), send.len as u64, lat_ns);
                    }
                }
                if let Some(tr) = self.trace.as_mut().filter(|t| t.wants(nic, seq)) {
                    tr.on_tx_enqueue(nic, seq, tx_at.as_ps());
                    match dep {
                        Some(d) => tr.on_fate(nic, seq, d.as_ps(), "tx"),
                        None => tr.on_fate(nic, seq, tx_at.as_ps(), DropCause::TxRing.as_str()),
                    }
                }
            }
            offset += chunk.len();
        }
        clock
    }

    /// Always-on packet conservation. Every generated packet must be
    /// explained by exactly one categorized outcome, and each queue's
    /// delivered packets by that queue's own NF drops, TX-ring drops and
    /// transmissions — a queue cannot balance by borrowing from a
    /// sibling. An imbalance means a layer lost or double-counted
    /// packets: a bug, faulted or not.
    fn check_ledgers(&mut self) {
        let ledger = self.tally();
        assert!(
            ledger.balances(),
            "packet-conservation ledger unbalanced: {ledger}"
        );
        let queue_ledgers: Vec<QueueLedger> = self
            .pairs
            .iter()
            .enumerate()
            .map(|(p, &(n, q))| {
                let qs = self.nics[n].dev.queue_stats(q);
                QueueLedger {
                    core: core_of(p, self.cfg.cores),
                    nic: n,
                    queue: q,
                    delivered: qs.rx_packets,
                    rx_ring_dropped: qs.rx_dropped,
                    nf_dropped: self.nf_dropped_pairs[p],
                    tx_ring_dropped: qs.tx_dropped,
                    tx_sent: qs.tx_packets,
                }
            })
            .collect();
        for ql in &queue_ledgers {
            assert!(ql.balances(), "per-queue ledger unbalanced: {ql:?}");
        }
        self.queue_ledgers = Some(queue_ledgers);
    }

    fn measurement(&self, w: &Window) -> Measurement {
        // The window runs from the first measured TX departure to the
        // last departure. Under saturation this yields the true service
        // rate; unsaturated it converges to the offered rate (both ends
        // shift by the same latency). Only when no measured packet
        // departs does it start at the generation time of sequence
        // number `warmup` instead.
        let start = w
            .first_departure
            .or(self.measure_gen_start)
            .unwrap_or(SimTime::ZERO);
        let elapsed = w.last_departure.saturating_sub(start);
        let elapsed_s = elapsed.as_secs().max(1e-9);
        let deltas = self
            .mem
            .counters()
            .delta_since(&w.counters_at_start.unwrap_or_default());
        let windows_per_run = elapsed_s / 0.1;
        let per_packet = w.tx_packets.max(1) as f64;
        Measurement {
            throughput_gbps: w.tx_bytes as f64 * 8.0 / elapsed_s / 1e9,
            mpps: w.tx_packets as f64 / elapsed_s / 1e6,
            median_latency_us: w.hist.median() as f64 / 1e3,
            p99_latency_us: w.hist.p99() as f64 / 1e3,
            mean_latency_us: w.hist.mean() / 1e3,
            ipc: w.cost.ipc(self.cfg.freq),
            llc_loads_per_100ms: deltas.llc_loads as f64 / windows_per_run,
            llc_misses_per_100ms: deltas.llc_load_misses as f64 / windows_per_run,
            llc_miss_pct: if deltas.llc_loads == 0 {
                0.0
            } else {
                deltas.llc_load_misses as f64 / deltas.llc_loads as f64 * 100.0
            },
            rx_dropped: self.nics.iter().map(|s| s.dev.stats().rx_dropped).sum(),
            nf_dropped: w.nf_dropped,
            tx_dropped: self.nics.iter().map(|s| s.dev.stats().tx_dropped).sum(),
            tx_packets: w.tx_packets,
            elapsed_ms: elapsed.as_ms(),
            instr_per_packet: w.cost.instructions as f64 / per_packet,
            cycles_per_packet: w.cost.cycles / per_packet,
            uncore_ns_per_packet: w.cost.uncore_ns / per_packet,
        }
    }

    /// The packet-conservation ledger of the run so far, from the NIC
    /// and PMD counters and the per-pair NF drops: the end-of-run check
    /// and the timeline's drop series read the same counters.
    fn tally(&self) -> Ledger {
        let mut l = Ledger {
            nf_dropped: self.nf_dropped_pairs.iter().sum(),
            ..Ledger::default()
        };
        for st in &self.nics {
            let s = st.dev.stats();
            l.generated += st.next_idx as u64;
            l.fcs_dropped += s.rx_fcs_errors;
            l.link_down_dropped += s.rx_link_down;
            l.desc_dropped += s.rx_desc_drops;
            l.rx_ring_dropped += s.rx_dropped;
            l.tx_ring_dropped += s.tx_dropped;
            l.tx_sent += s.tx_packets;
            l.truncated_delivered += s.rx_truncated;
            l.pool_denials += st.pmd.stats().pool_denials;
        }
        l
    }

    /// Feeds the timeline's cumulative counter series at `now`. Pure
    /// reads of engine state — the recorder charges nothing.
    fn observe_recorder(&mut self, now: SimTime) {
        let ledger = self.tally();
        let llc_misses = self.mem.counters().llc_load_misses;
        if let Some(tl) = self.timeline.as_mut() {
            tl.observe_llc(now.as_ps(), llc_misses);
            tl.observe_drops(now.as_ps(), &DropCause::ALL.map(|c| ledger.count(c)));
        }
    }

    /// Takes the finished flight-recorder timeline (`None` unless the
    /// engine was built with [`EngineConfig::timeline`] and has run).
    pub fn take_timeline(&mut self) -> Option<TimelineReport> {
        let end = self.end?;
        self.timeline.take().map(|tl| tl.finish(end.as_ps()))
    }

    /// Takes the finished sampled lifecycle traces (`None` unless the
    /// engine was built with [`EngineConfig::trace`] and has run).
    pub fn take_trace(&mut self) -> Option<TraceReport> {
        self.end?;
        self.trace.take().map(TraceRecorder::finish)
    }

    /// The packet-conservation ledger of the completed run (`None`
    /// before [`Engine::run`]). Always balanced — `run` asserts it.
    pub fn ledger(&self) -> Option<Ledger> {
        self.queue_ledgers.is_some().then(|| self.tally())
    }

    /// The per-(nic, queue) conservation ledgers of the completed run
    /// (`None` before [`Engine::run`]). Each is balanced — `run` asserts
    /// it. Ordered by pair index, i.e. by `(nic, queue)`.
    pub fn queue_ledgers(&self) -> Option<&[QueueLedger]> {
        self.queue_ledgers.as_deref()
    }

    /// The active fault plan, if a non-empty one was configured.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.cfg.faults.as_ref().filter(|p| !p.is_empty())
    }

    /// Per-element `(name, packets, drops)` statistics aggregated over
    /// all dataplane instances (Click read handlers).
    pub fn element_stats(&self) -> Vec<(String, u64, u64)> {
        let mut agg: Vec<(String, u64, u64)> = Vec::new();
        for dp in &self.dataplanes {
            for (name, seen, dropped) in dp.element_stats() {
                match agg.iter_mut().find(|(n, _, _)| *n == name) {
                    Some(row) => {
                        row.1 += seen;
                        row.2 += dropped;
                    }
                    None => agg.push((name, seen, dropped)),
                }
            }
        }
        agg
    }

    /// Per-table occupancy/policy counters aggregated over all
    /// dataplane instances, keyed by element name: counters sum, the
    /// chain/capacity/occupancy fields combine so the row reads as one
    /// logical table sharded across queues.
    pub fn table_stats(&self) -> Vec<pm_click::TableStats> {
        let mut agg: Vec<pm_click::TableStats> = Vec::new();
        for dp in &self.dataplanes {
            for t in dp.table_stats() {
                match agg.iter_mut().find(|a| a.name == t.name) {
                    Some(a) => {
                        a.capacity += t.capacity;
                        a.occupancy += t.occupancy;
                        a.lookups += t.lookups;
                        a.hits += t.hits;
                        a.insertions += t.insertions;
                        a.expiries += t.expiries;
                        a.evictions += t.evictions;
                        a.displacements += t.displacements;
                        a.max_chain = a.max_chain.max(t.max_chain);
                    }
                    None => agg.push(t),
                }
            }
        }
        agg
    }

    /// Takes the first dataplane's field profile (profiling runs).
    pub fn take_profile(&mut self) -> Option<pm_click::FieldProfile> {
        self.dataplanes.first_mut().and_then(|d| d.take_profile())
    }

    /// Enables profiling on every dataplane.
    pub fn set_profiling(&mut self, on: bool) {
        for d in &mut self.dataplanes {
            d.set_profiling(on);
        }
    }

    /// The per-element profile accumulated over the measured window, or
    /// `None` unless the engine was built with [`EngineConfig::profile`].
    ///
    /// Scopes that saw no work are dropped; the RX batch-size histogram
    /// is attached to the `rx/pmd` stage record.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        if !self.cfg.profile {
            return None;
        }
        let records = self
            .mem
            .profile_records()
            .into_iter()
            .filter(|(_, p)| *p != pm_mem::ScopeProfile::default())
            .map(|(name, p)| {
                let batches = if name == "rx/pmd" {
                    self.batches.iter().map(|(&k, &v)| (k, v)).collect()
                } else {
                    Vec::new()
                };
                ProfileRecord {
                    name,
                    cycles: p.cost.cycles,
                    stall_ns: p.cost.uncore_ns,
                    instructions: p.cost.instructions,
                    loads: p.counters.loads,
                    stores: p.counters.stores,
                    l2_loads: p.counters.l1d_load_misses,
                    llc_loads: p.counters.llc_loads,
                    llc_load_misses: p.counters.llc_load_misses,
                    llc_stores: p.counters.llc_stores,
                    dtlb_misses: p.counters.dtlb_misses,
                    packets: p.packets,
                    batches,
                }
            })
            .collect();
        Some(ProfileReport {
            freq_ghz: self.cfg.freq.as_ghz(),
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queues_per_nic_rules() {
        let mut cfg = EngineConfig::default();
        assert_eq!(Engine::queues_per_nic(&cfg), 1);
        cfg.cores = 4;
        assert_eq!(Engine::queues_per_nic(&cfg), 4);
        cfg.nics = 2;
        assert_eq!(Engine::queues_per_nic(&cfg), 2);
        cfg.cores = 1;
        assert_eq!(Engine::queues_per_nic(&cfg), 1, "two NICs, one core");
    }

    #[test]
    #[should_panic(expected = "one dataplane per")]
    fn dimension_mismatch_caught() {
        let cfg = EngineConfig {
            cores: 2,
            ..EngineConfig::default()
        };
        let mut space = pm_mem::AddressSpace::new();
        let traces = vec![Trace::synthesize(&pm_traffic::TraceConfig {
            packets: 16,
            ..Default::default()
        })];
        let _ = Engine::new(cfg, Vec::new(), traces, &mut space);
    }

    /// Two NICs × four cores: pairs span both NICs, so every pair's core
    /// comes from the one rule, and the run's ledgers must agree with it.
    #[test]
    fn multi_nic_multi_core_run_keeps_ledgers_and_recorders_consistent() {
        let cfg = EngineConfig {
            cores: 4,
            nics: 2,
            model: pm_frameworks::L2Fwd::plain().metadata_model(),
            spec: MetadataSpec::minimal(),
            packets: 1_000,
            warmup: 200,
            timeline: Some(SimTime::from_ps(10_000_000)),
            ..EngineConfig::default()
        };
        let pairs = 2 * Engine::queues_per_nic(&cfg);
        let dataplanes: Vec<Box<dyn Dataplane>> = (0..pairs)
            .map(|_| Box::new(pm_frameworks::L2Fwd::plain()) as Box<dyn Dataplane>)
            .collect();
        let trace = |seed| {
            Trace::synthesize(&pm_traffic::TraceConfig {
                packets: 256,
                seed,
                ..Default::default()
            })
        };
        let mut space = pm_mem::AddressSpace::new();
        let mut engine = Engine::new(cfg, dataplanes, vec![trace(1), trace(2)], &mut space);
        assert!(engine.take_timeline().is_none(), "no timeline before run");

        let m = engine.run();
        let queues = engine.queue_ledgers().expect("ledgers after run");
        assert_eq!(queues.len(), 4);
        for (p, ql) in queues.iter().enumerate() {
            assert_eq!(ql.core, p % 4, "pair {p}");
            assert!(ql.delivered > 0 && ql.balances(), "{ql:?}");
        }
        let sent: u64 = queues.iter().map(|ql| ql.tx_sent).sum();
        assert_eq!(sent, engine.ledger().expect("ledger after run").tx_sent);
        assert!(m.tx_packets > 0 && m.p99_latency_us >= m.median_latency_us);
        assert!(engine.take_timeline().is_some(), "timeline after run");
        assert!(engine.take_timeline().is_none(), "taken once");
    }
}
