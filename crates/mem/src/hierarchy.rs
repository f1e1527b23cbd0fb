//! The full memory hierarchy: per-core L1D/L2 + shared inclusive LLC with
//! DDIO, per-core TLBs, DRAM, and `perf`-style counters.
//!
//! Counter semantics follow the paper's `perf` events:
//!
//! * `llc-loads` — demand **loads** that miss L2 and reach the LLC;
//! * `llc-load-misses` — the subset that miss the LLC and go to DRAM;
//! * stores are tracked separately (`llc-stores`), matching the fact that
//!   Table 1 counts only load events.
//!
//! DMA writes model DDIO: they allocate directly into a restricted subset
//! of LLC ways without costing core time, invalidating any stale copies
//! in core-private caches.
//!
//! # Core-index invariant
//!
//! Every method that takes a `core` argument charges **that** core's
//! private L1/L2/TLB state: the `core` argument is always the executing
//! core, never a constant. Callers that run work on behalf of core `c`
//! (a PMD polling queue `q`, a dataplane element, mempool cache traffic)
//! must thread `c` all the way down — hardcoding core 0 silently warms
//! the wrong private caches and only shows up as a perf skew, not a
//! functional failure. The multicore battery pins this with a regression
//! test that a queue set up on core 1 leaves core 0's L1 untouched.

use crate::cache::{CacheParams, SetAssocCache};
use crate::cost::{Cost, LatencyModel};
use crate::profile::{Attribution, ScopeId, ScopeProfile};
use crate::program::{AccessProgram, StepOp};
use crate::resident::ResidentFilter;
use crate::tlb::{Tlb, TlbOutcome};
use crate::{lines_spanned, ADDR_LIMIT, LINE};

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand data load.
    Load,
    /// A store (write-allocate, RFO on miss).
    Store,
}

/// The level that satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// L1 data cache.
    L1,
    /// Unified per-core L2.
    L2,
    /// Shared last-level cache.
    Llc,
    /// Main memory.
    Dram,
}

/// Geometry and latencies of the whole hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyParams {
    /// Number of cores sharing the LLC.
    pub cores: usize,
    /// L1D geometry.
    pub l1: CacheParams,
    /// L2 geometry.
    pub l2: CacheParams,
    /// Shared LLC geometry.
    pub llc: CacheParams,
    /// LLC ways DMA fills may allocate into (DDIO). Must be
    /// `1..=llc.assoc`.
    pub ddio_ways: usize,
    /// Stall model.
    pub lat: LatencyModel,
}

impl HierarchyParams {
    /// Skylake Xeon Gold 6140-like geometry (the paper's DUT):
    /// 32-KiB 8-way L1D, 1-MiB 16-way L2, ~23-MiB 11-way shared LLC
    /// (32768 sets; the real part has 24.75 MiB but a power-of-two set
    /// count keeps the model fast), DDIO limited to 8 ways as in the
    /// paper's `IIO LLC WAYS = 0x7F8` configuration.
    pub fn skylake(cores: usize) -> Self {
        HierarchyParams {
            cores,
            l1: CacheParams::new(32 * 1024, 8, 64),
            l2: CacheParams::new(1024 * 1024, 16, 64),
            llc: CacheParams::new(32768 * 11 * 64, 11, 64),
            // DMA fills take 4 ways (~8.4 MiB — comfortably holds the
            // in-flight buffer stream, so DDIO is not a bottleneck, the
            // paper's §4 configuration goal); demand data keeps 7 ways
            // (~14.7 MiB), which is where Fig. 9's "out of LLC"
            // threshold comes from.
            ddio_ways: 4,
            lat: LatencyModel::default(),
        }
    }
}

/// Aggregate event counts, named after their `perf` equivalents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Demand loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Loads missing L1D.
    pub l1d_load_misses: u64,
    /// Loads reaching the LLC (i.e., missing L2) — `perf`'s `LLC-loads`.
    pub llc_loads: u64,
    /// Loads missing the LLC — `perf`'s `LLC-load-misses`.
    pub llc_load_misses: u64,
    /// Stores reaching the LLC (RFO after L2 miss).
    pub llc_stores: u64,
    /// Stores missing the LLC.
    pub llc_store_misses: u64,
    /// Cache lines written by DMA (DDIO fills).
    pub dma_write_lines: u64,
    /// Cache lines read by DMA (TX path).
    pub dma_read_lines: u64,
    /// DTLB misses (STLB hits + walks).
    pub dtlb_misses: u64,
    /// Full page walks.
    pub page_walks: u64,
    /// Prefetches that had to go to DRAM (DDIO overflow).
    pub prefetch_misses: u64,
}

impl MemCounters {
    /// Difference `self - earlier`, for windowed sampling.
    pub fn delta_since(&self, earlier: &MemCounters) -> MemCounters {
        MemCounters {
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            l1d_load_misses: self.l1d_load_misses - earlier.l1d_load_misses,
            llc_loads: self.llc_loads - earlier.llc_loads,
            llc_load_misses: self.llc_load_misses - earlier.llc_load_misses,
            llc_stores: self.llc_stores - earlier.llc_stores,
            llc_store_misses: self.llc_store_misses - earlier.llc_store_misses,
            dma_write_lines: self.dma_write_lines - earlier.dma_write_lines,
            dma_read_lines: self.dma_read_lines - earlier.dma_read_lines,
            dtlb_misses: self.dtlb_misses - earlier.dtlb_misses,
            page_walks: self.page_walks - earlier.page_walks,
            prefetch_misses: self.prefetch_misses - earlier.prefetch_misses,
        }
    }
}

/// Sentinel for the per-core last-line / last-page memo slots. Never a
/// real line or page identifier.
const NONE64: u64 = u64::MAX;

/// The `[load, store] × [L1, L2, Llc, Dram]` stall table. The store row
/// is the load row scaled by `store_stall_factor` (store buffers hide
/// most of a store miss's latency) — the same `f64` products the walk
/// used to compute per access, so indexing it is bit-exact.
fn stall_table(lat: &LatencyModel) -> [[Cost; 4]; 2] {
    let load = [
        Cost::stall_cycles(lat.l1_hit_cy),
        Cost::stall_cycles(lat.l2_hit_cy),
        Cost::stall_ns(lat.llc_hit_ns),
        Cost::stall_ns(lat.dram_ns),
    ];
    [load, load.map(|c| c.scaled(lat.store_stall_factor))]
}

/// Translation cost indexed by `TlbOutcome as usize`.
fn tlb_cost_table(lat: &LatencyModel) -> [Cost; 3] {
    let walk = Cost {
        instructions: 0,
        cycles: lat.walk_cy,
        uncore_ns: lat.walk_ns,
    };
    [Cost::ZERO, Cost::stall_cycles(lat.stlb_hit_cy), walk]
}

struct CoreCaches {
    l1: SetAssocCache,
    l2: SetAssocCache,
    tlb: Tlb,
    /// Line address of this core's most recent demand touch. Invariant:
    /// when set, that line is L1-resident and the MRU of its set, and its
    /// page is the TLB's last-page slot — so a repeat access collapses to
    /// counter bumps plus the L1-hit cost. Cleared whenever the line is
    /// invalidated out from under the core (DMA write, LLC
    /// back-invalidation).
    last_line: u64,
    /// 4-KiB virtual page number of this core's most recent translation
    /// (pre-`page_key`, so a hugepage remapping must clear it).
    last_vpage: u64,
}

/// The simulated memory hierarchy shared by all cores of the DUT.
pub struct MemoryHierarchy {
    cores: Vec<CoreCaches>,
    llc: SetAssocCache,
    llc_assoc: usize,
    ddio_ways: usize,
    lat: LatencyModel,
    /// Exposed stall by `[AccessKind][Level]`, built once from `lat`: the
    /// per-line walk carries a one-byte [`Level`] in a register and looks
    /// the `Cost` up here. See [`stall_table`].
    stall: [[Cost; 4]; 2],
    /// Translation cost by [`TlbOutcome`], likewise.
    tlb_cost: [Cost; 3],
    counters: MemCounters,
    /// Sorted, disjoint `(start, end)` ranges backed by 2-MiB hugepages
    /// (DPDK mempools, rings, and DMA memory — as in a real deployment).
    huge_ranges: Vec<(u64, u64)>,
    /// Most recent hugepage range matched by `page_key`. Ranges are only
    /// ever added, so a previously matched range stays valid; the memo
    /// skips the binary search for the common case of successive
    /// translations inside one DPDK region.
    last_huge: (u64, u64),
    /// Host-side direct-mapped memo of `page_key` results, indexed by
    /// `vpage & (len - 1)`: (vpage, key) pairs, invalidated wholesale
    /// when a hugepage range is added. Purely a lookup cache — the
    /// mapping itself is deterministic per hugepage configuration.
    key_memo: Box<[(u64, u64)]>,
    /// Per-scope attribution table; `None` unless profiling is enabled.
    attribution: Option<Attribution>,
    /// Over-approximation of all lines held by any core's L1/L2 — lets
    /// the DMA/back-invalidation paths skip per-core scans for lines no
    /// core ever touched. See [`crate::resident`].
    resident: ResidentFilter,
    /// False in reference mode: every program resolves through the
    /// original per-call sequence and invalidation scans always run.
    /// The lock-step oracle for the default resolver.
    fast: bool,
}

impl std::fmt::Debug for MemoryHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryHierarchy")
            .field("cores", &self.cores.len())
            .field("ddio_ways", &self.ddio_ways)
            .field("counters", &self.counters)
            .finish()
    }
}

impl MemoryHierarchy {
    /// Builds the hierarchy from parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, `ddio_ways` is out of range, or a cache
    /// level has too few sets to tag every address below
    /// [`ADDR_LIMIT`].
    pub fn new(p: &HierarchyParams) -> Self {
        assert!(p.cores > 0, "need at least one core");
        assert!(
            p.ddio_ways >= 1 && p.ddio_ways < p.llc.assoc,
            "ddio_ways out of range (cores need at least one way)"
        );
        MemoryHierarchy {
            cores: (0..p.cores)
                .map(|_| CoreCaches {
                    l1: SetAssocCache::covering(p.l1, ADDR_LIMIT),
                    l2: SetAssocCache::covering(p.l2, ADDR_LIMIT),
                    tlb: Tlb::skylake(),
                    last_line: NONE64,
                    last_vpage: NONE64,
                })
                .collect(),
            llc: SetAssocCache::covering(p.llc, ADDR_LIMIT),
            llc_assoc: p.llc.assoc,
            ddio_ways: p.ddio_ways,
            lat: p.lat,
            stall: stall_table(&p.lat),
            tlb_cost: tlb_cost_table(&p.lat),
            counters: MemCounters::default(),
            huge_ranges: Vec::new(),
            last_huge: (NONE64, 0),
            key_memo: vec![(NONE64, 0); 4096].into_boxed_slice(),
            attribution: None,
            resident: ResidentFilter::new(),
            fast: true,
        }
    }

    /// Builds a hierarchy that resolves every access program through the
    /// original per-call sequence (`access_range`/`prefetch` per step),
    /// with no resident filter and no invalidation-scan elision.
    /// Semantically identical to the default resolver — the lock-step
    /// property tests drive both and assert exactly that.
    pub fn with_reference_walk(p: &HierarchyParams) -> Self {
        let mut m = Self::new(p);
        m.fast = false;
        m
    }

    /// Marks a region as 2-MiB-hugepage-backed for TLB purposes (DPDK
    /// allocates its mempools, rings, and DMA memory from hugepages).
    pub fn mark_hugepages(&mut self, region: crate::Region) {
        self.huge_ranges
            .push((region.base, region.base + region.size));
        self.huge_ranges.sort_unstable();
        // The vpage → page-key mapping just changed; drop the memos.
        for c in &mut self.cores {
            c.last_vpage = NONE64;
        }
        self.key_memo.fill((NONE64, 0));
    }

    #[inline]
    fn page_key(&mut self, addr: u64) -> u64 {
        let vpage = addr >> 12;
        let slot = (vpage & (self.key_memo.len() as u64 - 1)) as usize;
        let (v, k) = self.key_memo[slot];
        if v == vpage {
            return k;
        }
        let k = self.page_key_slow(addr);
        self.key_memo[slot] = (vpage, k);
        k
    }

    #[cold]
    fn page_key_slow(&mut self, addr: u64) -> u64 {
        // The huge-page marker (bit 30) must stay clear of any real
        // 4-KiB key, and keys under 2^31 are what `Tlb::new` sized its
        // tag words for. The bump allocator mints nothing at or above
        // `ADDR_LIMIT`, which the const assertion ties to this bound;
        // the debug check covers raw addresses that bypass it.
        const _: () = assert!(ADDR_LIMIT >> 12 <= 1 << 30);
        debug_assert!(addr >> 12 < 1 << 30, "simulated address out of range");
        if addr >= self.last_huge.0 && addr < self.last_huge.1 {
            return (addr >> 21) | (1 << 30);
        }
        if self.huge_ranges.is_empty() {
            return addr >> 12;
        }
        let i = self.huge_ranges.partition_point(|&(s, _)| s <= addr);
        if i > 0 && addr < self.huge_ranges[i - 1].1 {
            self.last_huge = self.huge_ranges[i - 1];
            (addr >> 21) | (1 << 30)
        } else {
            addr >> 12
        }
    }

    /// Convenience constructor with Skylake defaults.
    pub fn skylake(cores: usize) -> Self {
        Self::new(&HierarchyParams::skylake(cores))
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The current latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.lat
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> MemCounters {
        self.counters
    }

    /// Performs one data access of `len` bytes at `addr` from `core`.
    ///
    /// Returns the exposed stall cost. Every cache line spanned is
    /// accessed; the TLB is consulted per line (same-page lines hit).
    /// Equivalent to [`Self::access_range`].
    ///
    /// Addresses are ones an [`crate::AddressSpace`] can mint, i.e.
    /// below [`ADDR_LIMIT`]: the caches and TLB are sized to cover that
    /// span at construction, and the resident filter grows its bitmap to
    /// the highest line ever seen.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn access(&mut self, core: usize, addr: u64, len: u64, kind: AccessKind) -> Cost {
        self.access_range(core, addr, len, kind)
    }

    /// Charges a multi-line sequential touch in one batched call: every
    /// spanned line is accessed exactly as [`Self::access_line`] would,
    /// but the page-key lookup and TLB structure are consulted only once
    /// per 4-KiB page (subsequent same-page lines take the free MRU-slot
    /// hit they are guaranteed to be), and the attribution ledger is
    /// updated once per call instead of once per line. Access-for-access
    /// identical to a loop of single-line accesses: same costs, same
    /// counters, same cache and TLB state.
    pub fn access_range(&mut self, core: usize, addr: u64, len: u64, kind: AccessKind) -> Cost {
        let n = lines_spanned(addr, len);
        if n == 0 {
            return Cost::ZERO;
        }
        let before = self.snapshot();
        let mut cost = Cost::ZERO;
        let mut line_addr = addr & !(LINE - 1);
        for _ in 0..n {
            cost += self.access_line_raw(core, line_addr, kind);
            line_addr += LINE;
        }
        self.attribute_since(before);
        cost
    }

    /// Accesses a single line. Prefer [`Self::access`] for ranged data.
    pub fn access_line(&mut self, core: usize, addr: u64, kind: AccessKind) -> Cost {
        let before = self.snapshot();
        let cost = self.access_line_raw(core, addr, kind);
        self.attribute_since(before);
        cost
    }

    /// The counter block, copied only when attribution is on (96 bytes;
    /// `bool::then_some` would copy them eagerly on every call).
    #[inline(always)]
    fn snapshot(&self) -> Option<MemCounters> {
        self.attribution.as_ref().map(|_| self.counters)
    }

    /// Attributes the counter delta since [`Self::snapshot`] to the
    /// current scope.
    #[inline(always)]
    fn attribute_since(&mut self, before: Option<MemCounters>) {
        if let (Some(before), Some(attr)) = (before, &mut self.attribution) {
            attr.add_counters(&self.counters.delta_since(&before));
        }
    }

    /// One line access without the attribution snapshot (callers batch
    /// it). The last-line filter short-circuits the dominant pattern —
    /// re-touching the line the core touched last — to two counter bumps
    /// and the L1-hit cost; see the invariant on [`CoreCaches::last_line`].
    ///
    /// The whole hit path (this, [`Self::translate`], [`Self::touch`]) is
    /// forced into the callers' per-line loops: outcomes travel as
    /// one-byte codes in registers, the `Cost` comes from the tables, and
    /// whatever the memos and the L1 front slots do not settle is one
    /// out-of-line call per structure.
    #[inline(always)]
    fn access_line_raw(&mut self, core: usize, addr: u64, kind: AccessKind) -> Cost {
        let line = addr & !(LINE - 1);
        let c = &mut self.cores[core];
        if c.last_line == line {
            c.tlb.repeat_last();
            if kind == AccessKind::Load {
                self.counters.loads += 1;
            } else {
                self.counters.stores += 1;
            }
            return self.stall[kind as usize][Level::L1 as usize];
        }
        let tlb = self.translate::<true>(core, addr);
        let level = self.touch::<true>(core, line, kind == AccessKind::Load);
        self.cores[core].last_line = line;
        self.tlb_cost[tlb as usize] + self.stall[kind as usize][level as usize]
    }

    /// Returns which level served a hypothetical access (no state change).
    pub fn probe_level(&self, core: usize, addr: u64) -> Level {
        let c = &self.cores[core];
        if c.l1.probe(addr) {
            Level::L1
        } else if c.l2.probe(addr) {
            Level::L2
        } else if self.llc.probe(addr) {
            Level::Llc
        } else {
            Level::Dram
        }
    }

    #[inline(always)]
    fn translate<const COUNT: bool>(&mut self, core: usize, addr: u64) -> TlbOutcome {
        // Same 4-KiB vpage as the previous translation ⇒ same page key ⇒
        // a guaranteed free DTLB hit: skip the range search entirely.
        let c = &mut self.cores[core];
        if c.last_vpage == addr >> 12 {
            c.tlb.repeat_last();
            return TlbOutcome::Dtlb;
        }
        self.translate_new_page::<COUNT>(core, addr)
    }

    /// A translation off the last vpage — nine in ten on a real packet
    /// mix. Most still end here, call-free: per-packet accesses hop between
    /// a handful of pages (buffer, metadata, element state), each the MRU
    /// entry of its own DTLB set.
    #[inline(never)]
    fn translate_new_page<const COUNT: bool>(&mut self, core: usize, addr: u64) -> TlbOutcome {
        let vpage = addr >> 12;
        let (v, key) = self.key_memo[(vpage & (self.key_memo.len() as u64 - 1)) as usize];
        let c = &mut self.cores[core];
        c.last_vpage = vpage;
        if v == vpage && c.tlb.translate_page_mru(key) {
            return TlbOutcome::Dtlb;
        }
        self.translate_walk::<COUNT>(core, addr)
    }

    #[inline(never)]
    fn translate_walk<const COUNT: bool>(&mut self, core: usize, addr: u64) -> TlbOutcome {
        let key = self.page_key(addr);
        let out = self.cores[core].tlb.translate_page(key);
        if COUNT {
            self.counters.dtlb_misses += u64::from(out != TlbOutcome::Dtlb);
            self.counters.page_walks += u64::from(out == TlbOutcome::Walk);
        }
        out
    }

    /// Demand-touches `line` and returns the level that served it; the
    /// stall is `self.stall[kind][level]`.
    #[inline(always)]
    fn touch<const COUNT: bool>(&mut self, core: usize, line: u64, is_load: bool) -> Level {
        if COUNT {
            if is_load {
                self.counters.loads += 1;
            } else {
                self.counters.stores += 1;
            }
        }
        if self.cores[core].l1.access_mru(line) {
            return Level::L1;
        }
        self.touch_slow::<COUNT>(core, line, is_load)
    }

    /// A touch that is not an L1-MRU hit: the line is deeper in its L1
    /// row, or misses L1 — provably so, with no hit scan to run, when the
    /// resident filter has never seen it (every private fill inserts its
    /// line; streaming lines — fresh DMA payload, wrapped ring slots —
    /// come through here every packet).
    #[inline(never)]
    fn touch_slow<const COUNT: bool>(&mut self, core: usize, line: u64, is_load: bool) -> Level {
        let absent = self.fast && !self.resident.contains(line);
        if !absent && self.cores[core].l1.access(line).hit {
            return Level::L1;
        }
        if COUNT && is_load {
            self.counters.l1d_load_misses += 1;
        }
        // The line is now in this core's L1 (`access` allocates on miss)
        // or about to be: record it as possibly-core-resident so future
        // DMA/back-invalidations know to scan.
        if self.fast {
            self.resident.insert(line);
        }
        let c = &mut self.cores[core];
        if absent {
            // L1/L2 victims vanish silently (the inclusive LLC still
            // holds them), exactly as on the scan path.
            c.l1.alloc_absent(line);
            c.l2.alloc_absent(line);
        } else if c.l2.access(line).hit {
            return Level::L2;
        }
        self.touch_llc::<COUNT>(line, is_load)
    }

    /// The shared tail of a demand touch that missed both private
    /// levels: LLC lookup in the demand ways, then DRAM.
    fn touch_llc<const COUNT: bool>(&mut self, addr: u64, is_load: bool) -> Level {
        if COUNT {
            if is_load {
                self.counters.llc_loads += 1;
            } else {
                self.counters.llc_stores += 1;
            }
        }

        // Demand fills take the non-DDIO ways: the NIC's write stream
        // cannot evict the application's reused lines (way partition).
        let out = self
            .llc
            .access_way_range(addr, self.ddio_ways, self.llc_assoc);
        if out.hit {
            return Level::Llc;
        }

        // DRAM. Fill all levels; back-invalidate on LLC eviction.
        if COUNT {
            if is_load {
                self.counters.llc_load_misses += 1;
            } else {
                self.counters.llc_store_misses += 1;
            }
        }
        if let Some(evicted) = out.evicted {
            self.back_invalidate(evicted);
        }
        Level::Dram
    }

    fn back_invalidate(&mut self, line: u64) {
        // A line absent from the resident filter is provably in no
        // core's L1/L2 and matches no last-line memo (memo lines are
        // L1-resident by invariant) — the scan would be a no-op, so skip
        // it. Present lines are removed: the scan below purges every
        // private copy.
        if self.fast && !self.resident.remove(line) {
            return;
        }
        self.purge_private(line);
    }

    /// Drops `line` from every core's L1/L2 and last-line memo.
    fn purge_private(&mut self, line: u64) {
        for c in &mut self.cores {
            c.l1.invalidate(line);
            c.l2.invalidate(line);
            if c.last_line == line {
                c.last_line = NONE64;
            }
        }
    }

    /// Models a NIC DMA write of `len` bytes at `addr` (RX path).
    ///
    /// Lines are allocated into the LLC restricted to the DDIO ways; any
    /// stale copies in core caches are invalidated. Costs no core time.
    pub fn dma_write(&mut self, addr: u64, len: u64) {
        let n = lines_spanned(addr, len);
        self.counters.dma_write_lines += n;
        let mut line = addr & !(LINE - 1);
        for _ in 0..n {
            let out = self.llc.access_ways(line, self.ddio_ways);
            if out.hit {
                // Core caches are inclusive in the LLC (every fill goes
                // through it, every LLC eviction back-invalidates), so
                // stale core copies can exist only when the LLC held the
                // line — and only when some core actually demand-filled
                // it (resident filter). Skip the per-core scans
                // otherwise.
                if !self.fast || self.resident.remove(line) {
                    self.purge_private(line);
                }
            } else if let Some(evicted) = out.evicted {
                self.back_invalidate(evicted);
            }
            line += LINE;
        }
    }

    /// Charges a heterogeneous DMA-write charge set — several disjoint
    /// spans delivered by one NIC event (payload plus descriptor) — in
    /// one call. Exactly equivalent to calling [`Self::dma_write`] on
    /// each span in order.
    pub fn dma_write_set(&mut self, spans: &[(u64, u64)]) {
        for &(addr, len) in spans {
            self.dma_write(addr, len);
        }
    }

    /// Models a NIC DMA read of `len` bytes at `addr` (TX path).
    ///
    /// Reads are served from the LLC when resident and do not allocate.
    pub fn dma_read(&mut self, addr: u64, len: u64) {
        self.counters.dma_read_lines += lines_spanned(addr, len);
    }

    /// Software/hardware prefetch: brings a range into this core's caches
    /// without counting demand events. A prefetch that finds its line in
    /// the LLC (the DDIO-resident case) is fully hidden; one that must go
    /// to DRAM (DDIO overflow) cannot be issued early enough and exposes
    /// part of the memory latency.
    pub fn prefetch(&mut self, core: usize, addr: u64, len: u64) -> Cost {
        let before = self.snapshot();
        let cost = self.prefetch_raw(core, addr, len);
        self.attribute_since(before);
        cost
    }

    /// [`Self::prefetch`] without the attribution update (program
    /// resolution batches one update over the whole charge set). The only
    /// counter a prefetch can move is `prefetch_misses`, so the caller's
    /// windowed delta attributes exactly what the inline update did.
    fn prefetch_raw(&mut self, core: usize, addr: u64, len: u64) -> Cost {
        let mut cost = Cost::ZERO;
        let n = lines_spanned(addr, len);
        let mut line = addr & !(LINE - 1);
        if n <= 8 {
            // Small-range fast path (the common shapes: descriptor and
            // packet-header prefetches). Probing every level and then
            // warming would scan each cache row twice; instead do the
            // warm touch directly — it reports where the line was found,
            // and "filled from DRAM" is exactly "resident nowhere", the
            // probes' miss condition. Interleaving warm and probe per
            // line is sound for short runs: consecutive lines index
            // distinct sets in every cache (n ≤ 8 < the smallest set
            // count), so warming line i can neither insert nor evict a
            // later line j — allocations land in other sets, and any
            // back-invalidated LLC victim shares its set with line i,
            // not j. The later probe therefore sees exactly the state
            // the probe-first ordering would.
            for _ in 0..n {
                // Quiet variants: a prefetch moves cache/TLB state but
                // counts no demand events.
                let level = self.touch::<false>(core, line, true);
                let _ = self.translate::<false>(core, line);
                self.cores[core].last_line = line;
                if level == Level::Dram {
                    cost += Cost::stall_ns(self.lat.dram_ns * 0.3);
                    self.counters.prefetch_misses += 1;
                }
                line += LINE;
            }
            return cost;
        }
        for _ in 0..n {
            if !self.llc.probe(line)
                && !self.cores[core].l2.probe(line)
                && !self.cores[core].l1.probe(line)
            {
                cost += Cost::stall_ns(self.lat.dram_ns * 0.3);
                self.counters.prefetch_misses += 1;
            }
            line += LINE;
        }
        self.warm(core, addr, len);
        cost
    }

    /// Warms a range into the LLC + core caches without counting events
    /// (used for initialization state like routing tables).
    pub fn warm(&mut self, core: usize, addr: u64, len: u64) {
        let saved = self.counters;
        let n = lines_spanned(addr, len);
        let mut line = addr & !(LINE - 1);
        for _ in 0..n {
            let _ = self.touch::<true>(core, line, true);
            let _ = self.translate::<true>(core, line);
            // Maintain the last-line invariant: `line` is now this
            // core's most recent touch and sits MRU in its L1 set.
            self.cores[core].last_line = line;
            line += LINE;
        }
        self.counters = saved;
    }

    // ----- batched access programs --------------------------------------

    /// Resolves a precompiled [`AccessProgram`] against the hierarchy:
    /// the whole heterogeneous charge set of one touch site in one call.
    ///
    /// Semantically **identical** to executing the program's step
    /// sequence through [`Self::access_range`] / [`Self::prefetch`] /
    /// [`Cost::compute`] one call at a time — same costs to the same
    /// `f64` bit, same counters, same cache/TLB state — but resolved in
    /// one tight loop with a single attribution update.
    ///
    /// `bases` supplies the program's base registers; cost is
    /// accumulated into `acc` step by step (the caller's accumulation
    /// order is part of the contract — `f64` addition is not
    /// associative).
    pub fn run_program(
        &mut self,
        core: usize,
        prog: &AccessProgram,
        bases: &[u64],
        acc: &mut Cost,
    ) {
        debug_assert!(bases.len() >= prog.base_count(), "missing base registers");
        if !self.fast {
            self.run_program_reference(core, prog, bases, acc);
            return;
        }
        let before = self.snapshot();
        self.walk_program(core, prog, bases, acc);
        self.attribute_since(before);
    }

    /// Resolves one program for each row of `rows` (a batch sharing one
    /// program — the PMD's 32-packet rx loop), with a **single**
    /// attribution update for the whole batch. Bit-identical to calling
    /// [`Self::run_program`] once per row: per-row costs still
    /// accumulate into `acc` in row order (`f64` order is part of the
    /// contract), and hoisting the attribution snapshot is sound because
    /// counter deltas are `u64` sums — associative — and every row
    /// charges the same current scope.
    ///
    /// Deliberately not folded into one generic body with
    /// [`Self::run_program`]: that measured 2 % slower on
    /// `io_line_rate` (0 of 8 alternating pairs won).
    pub fn run_program_batch<const N: usize>(
        &mut self,
        core: usize,
        prog: &AccessProgram,
        rows: &[[u64; N]],
        acc: &mut Cost,
    ) {
        debug_assert!(N >= prog.base_count(), "missing base registers");
        if !self.fast {
            for row in rows {
                self.run_program_reference(core, prog, row, acc);
            }
            return;
        }
        let before = self.snapshot();
        for row in rows {
            self.walk_program(core, prog, row, acc);
        }
        self.attribute_since(before);
    }

    /// The default resolver: one tight step walk, without per-call
    /// attribution (callers batch it).
    fn walk_program(&mut self, core: usize, prog: &AccessProgram, bases: &[u64], acc: &mut Cost) {
        for step in &prog.steps {
            match step.op {
                StepOp::Compute(n) => *acc += Cost::compute(u64::from(n)),
                StepOp::Charge(c) => *acc += c,
                StepOp::Prefetch => {
                    let a = step.addr(bases);
                    *acc += self.prefetch_raw(core, a, u64::from(step.len));
                }
                StepOp::Load | StepOp::Store => {
                    let kind = if matches!(step.op, StepOp::Load) {
                        AccessKind::Load
                    } else {
                        AccessKind::Store
                    };
                    let a = step.addr(bases);
                    let n = lines_spanned(a, u64::from(step.len));
                    let mut span = Cost::ZERO;
                    let mut line = a & !(LINE - 1);
                    for _ in 0..n {
                        span += self.access_line_raw(core, line, kind);
                        line += LINE;
                    }
                    *acc += span;
                }
            }
        }
    }

    /// Reference resolver: the original unbatched per-call sequence.
    fn run_program_reference(
        &mut self,
        core: usize,
        prog: &AccessProgram,
        bases: &[u64],
        acc: &mut Cost,
    ) {
        for step in &prog.steps {
            match step.op {
                StepOp::Compute(n) => *acc += Cost::compute(u64::from(n)),
                StepOp::Charge(c) => *acc += c,
                StepOp::Prefetch => {
                    *acc += self.prefetch(core, step.addr(bases), u64::from(step.len));
                }
                StepOp::Load => {
                    *acc += self.access_range(
                        core,
                        step.addr(bases),
                        u64::from(step.len),
                        AccessKind::Load,
                    );
                }
                StepOp::Store => {
                    *acc += self.access_range(
                        core,
                        step.addr(bases),
                        u64::from(step.len),
                        AccessKind::Store,
                    );
                }
            }
        }
    }

    /// Flushes this core's private L1/L2 (the shared LLC and the TLB are
    /// untouched) and drops the core's memos.
    pub fn flush_private(&mut self, core: usize) {
        let c = &mut self.cores[core];
        c.l1.flush();
        c.l2.flush();
        c.last_line = NONE64;
        c.last_vpage = NONE64;
    }

    /// Always 0: signature memoization is gone. Kept only because the
    /// frozen `benchmark/` crate reads it; retire together with
    /// [`Self::signature_replays`] and the benchmark's
    /// `mem.signature_*_per_pkt` metrics in the next `benchmark` PR.
    pub fn signature_kills(&self) -> u64 {
        0
    }

    /// Always 0; see [`Self::signature_kills`].
    pub fn signature_replays(&self) -> u64 {
        0
    }

    // ----- scoped attribution (profiling) -------------------------------
    //
    // All methods below are cheap no-ops until `enable_attribution` is
    // called; enabling them changes bookkeeping only, never cache state or
    // charged costs, so measurements are identical with or without
    // profiling.

    /// Turns on per-scope attribution. The built-in pipeline-stage scopes
    /// ([`crate::SCOPE_RX`], [`crate::SCOPE_TX`], [`crate::SCOPE_MEMPOOL`],
    /// [`crate::SCOPE_METADATA`], [`crate::SCOPE_SCHEDULER`]) are
    /// registered immediately; element scopes are added via
    /// [`Self::register_scope`]. Idempotent.
    pub fn enable_attribution(&mut self) {
        if self.attribution.is_none() {
            self.attribution = Some(Attribution::new());
        }
    }

    /// Whether attribution is currently enabled.
    pub fn attribution_enabled(&self) -> bool {
        self.attribution.is_some()
    }

    /// Registers (or looks up) a named scope. Idempotent by name, so
    /// several dataplanes sharing element names aggregate into the same
    /// record. Returns [`crate::SCOPE_SCHEDULER`] when attribution is off.
    pub fn register_scope(&mut self, name: &str) -> ScopeId {
        match &mut self.attribution {
            Some(attr) => attr.register(name),
            None => crate::SCOPE_SCHEDULER,
        }
    }

    /// Makes `id` the current scope for subsequent cache/TLB events and
    /// returns the previous scope (restore it when the scoped section
    /// ends). No-op returning `id` when attribution is off.
    pub fn set_scope(&mut self, id: ScopeId) -> ScopeId {
        match &mut self.attribution {
            Some(attr) => attr.set_current(id),
            None => id,
        }
    }

    /// Attributes `cost` to scope `id`.
    pub fn profile_charge_at(&mut self, id: ScopeId, cost: Cost) {
        if let Some(attr) = &mut self.attribution {
            attr.charge(id, cost);
        }
    }

    /// Adds `n` to scope `id`'s packet count.
    pub fn profile_packets_at(&mut self, id: ScopeId, n: u64) {
        if let Some(attr) = &mut self.attribution {
            attr.add_packets(id, n);
        }
    }

    /// Zeroes every scope's accumulated profile (start of the measured
    /// window). Registered scopes are kept.
    pub fn profile_reset(&mut self) {
        if let Some(attr) = &mut self.attribution {
            attr.reset();
        }
    }

    /// Snapshot of `(scope name, profile)` in registration order: the
    /// built-in stages first, then element scopes in the order they were
    /// registered. Empty when attribution is off.
    pub fn profile_records(&self) -> Vec<(String, ScopeProfile)> {
        self.attribution
            .as_ref()
            .map(|a| a.records())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small geometry so eviction paths are easy to exercise:
    // L1 512 B/2w, L2 2 KiB/2w, LLC 8 KiB/4w.
    fn tiny_params() -> HierarchyParams {
        HierarchyParams {
            cores: 2,
            l1: CacheParams::new(512, 2, 64),
            l2: CacheParams::new(2048, 2, 64),
            llc: CacheParams::new(8192, 4, 64),
            ddio_ways: 2,
            lat: LatencyModel::default(),
        }
    }

    fn tiny() -> MemoryHierarchy {
        MemoryHierarchy::new(&tiny_params())
    }

    #[test]
    fn first_access_goes_to_dram_then_l1() {
        let mut m = tiny();
        let c1 = m.access(0, 0x10_000, 8, AccessKind::Load);
        assert!(c1.uncore_ns >= LatencyModel::default().dram_ns);
        assert_eq!(m.probe_level(0, 0x10_000), Level::L1);
        let c2 = m.access(0, 0x10_000, 8, AccessKind::Load);
        assert!(c2.uncore_ns == 0.0, "second access is an L1 hit");
        assert_eq!(m.counters().llc_load_misses, 1);
        assert_eq!(m.counters().llc_loads, 1);
    }

    #[test]
    fn loads_and_stores_counted_separately() {
        let mut m = tiny();
        m.access(0, 0, 8, AccessKind::Store);
        assert_eq!(m.counters().llc_stores, 1);
        assert_eq!(m.counters().llc_loads, 0);
        assert_eq!(m.counters().stores, 1);
    }

    #[test]
    fn range_touches_every_line() {
        let mut m = tiny();
        m.access(0, 0, 256, AccessKind::Load);
        assert_eq!(m.counters().loads, 4);
    }

    #[test]
    fn dma_write_lands_in_llc_not_core_caches() {
        let mut m = tiny();
        // Warm the TLB for the page so the later cost is purely cache stall.
        m.access(0, 0x2fc0, 8, AccessKind::Load);
        m.dma_write(0x2000, 128);
        assert_eq!(m.counters().dma_write_lines, 2);
        assert_eq!(m.probe_level(0, 0x2000), Level::Llc);
        // Core read of DMA'd data: an LLC hit, not DRAM.
        let misses_before = m.counters().llc_load_misses;
        let c = m.access(0, 0x2000, 8, AccessKind::Load);
        assert_eq!(c.uncore_ns, LatencyModel::default().llc_hit_ns);
        assert_eq!(m.counters().llc_load_misses, misses_before);
    }

    #[test]
    fn dma_write_invalidates_core_copies() {
        let mut m = tiny();
        m.access(0, 0x3000, 8, AccessKind::Load); // line now in L1
        m.dma_write(0x3000, 64); // NIC overwrites the buffer
        assert_eq!(
            m.probe_level(0, 0x3000),
            Level::Llc,
            "stale L1 copy must be gone"
        );
    }

    #[test]
    fn ddio_way_restriction_limits_footprint() {
        let mut m = tiny();
        // LLC: 32 sets x 4 ways. DMA may only use 2 ways => 64 lines max.
        for i in 0..1024u64 {
            m.dma_write(0x100_000 + i * 64, 64);
        }
        // Count how many DMA'd lines are still resident.
        let resident = (0..1024u64)
            .filter(|i| m.probe_level(0, 0x100_000 + i * 64) == Level::Llc)
            .count();
        assert!(
            resident <= 64,
            "DDIO lines exceed restricted ways: {resident}"
        );
    }

    #[test]
    fn llc_eviction_back_invalidates() {
        let mut m = tiny();
        // Load a line on core 1, then stream enough lines through the same
        // LLC set to evict it.
        m.access(1, 0x0, 8, AccessKind::Load);
        // LLC has 32 sets (8192/4/64) => set stride 32*64 = 2048.
        for i in 1..=8u64 {
            m.access(0, i * 2048, 8, AccessKind::Load);
        }
        assert_eq!(
            m.probe_level(1, 0x0),
            Level::Dram,
            "inclusive LLC eviction must purge L1/L2 copies"
        );
    }

    #[test]
    fn per_core_privacy() {
        let mut m = tiny();
        m.access(0, 0x4000, 8, AccessKind::Load);
        // Core 1 sees it only in the shared LLC.
        assert_eq!(m.probe_level(1, 0x4000), Level::Llc);
    }

    #[test]
    fn warm_does_not_count() {
        let mut m = tiny();
        m.warm(0, 0x8000, 4096);
        assert_eq!(m.counters(), MemCounters::default());
        // But data is resident.
        assert_ne!(m.probe_level(0, 0x8000), Level::Dram);
    }

    #[test]
    fn tlb_charged_on_new_pages() {
        let mut m = tiny();
        let c = m.access(0, 0x100_000, 8, AccessKind::Load);
        assert!(c.cycles >= LatencyModel::default().walk_cy);
        assert_eq!(m.counters().page_walks, 1);
    }

    #[test]
    fn counters_delta() {
        let mut m = tiny();
        m.access(0, 0, 8, AccessKind::Load);
        let snap = m.counters();
        m.access(0, 0x40, 8, AccessKind::Load);
        let d = m.counters().delta_since(&snap);
        assert_eq!(d.loads, 1);
    }

    #[test]
    fn skylake_constructor() {
        let m = MemoryHierarchy::skylake(1);
        assert_eq!(m.core_count(), 1);
    }

    #[test]
    fn attribution_tags_events_by_scope() {
        let mut m = tiny();
        m.enable_attribution();
        let el = m.register_scope("CheckIPHeader");
        m.access(0, 0x10_000, 8, AccessKind::Load); // scheduler (default)
        let prev = m.set_scope(el);
        m.access(0, 0x20_000, 8, AccessKind::Load);
        m.access(0, 0x20_000, 8, AccessKind::Load); // L1 hit, still a load
        m.set_scope(prev);
        let recs = m.profile_records();
        let sched = &recs[crate::SCOPE_SCHEDULER.0];
        assert_eq!(sched.0, "scheduler");
        assert_eq!(sched.1.counters.loads, 1);
        assert_eq!(sched.1.counters.llc_load_misses, 1);
        let elem = recs.iter().find(|(n, _)| n == "CheckIPHeader").unwrap();
        assert_eq!(elem.1.counters.loads, 2);
        assert_eq!(elem.1.counters.llc_load_misses, 1);
        // Scope totals equal the aggregate counters.
        let total: u64 = recs.iter().map(|(_, p)| p.counters.loads).sum();
        assert_eq!(total, m.counters().loads);
    }

    #[test]
    fn attribution_is_pure_bookkeeping() {
        // Identical access streams, with and without attribution, must
        // produce identical costs and aggregate counters.
        let run = |profile: bool| {
            let mut m = tiny();
            if profile {
                m.enable_attribution();
            }
            let mut cost = Cost::ZERO;
            for i in 0..64u64 {
                cost += m.access(0, i * 192, 8, AccessKind::Load);
                cost += m.access(0, 0x40_000 + i * 64, 16, AccessKind::Store);
                cost += m.prefetch(0, i * 4096, 64);
            }
            (cost, m.counters())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn attribution_charge_reset_and_idempotent_register() {
        let mut m = tiny();
        assert!(!m.attribution_enabled());
        // Disabled: everything is a no-op.
        m.profile_charge_at(crate::SCOPE_RX, Cost::compute(10));
        assert!(m.profile_records().is_empty());

        m.enable_attribution();
        let a = m.register_scope("Discard");
        let b = m.register_scope("Discard");
        assert_eq!(a, b, "re-registering a name must return the same scope");
        m.profile_charge_at(a, Cost::compute(8));
        m.profile_packets_at(a, 3);
        let recs = m.profile_records();
        let p = &recs.iter().find(|(n, _)| n == "Discard").unwrap().1;
        assert_eq!(p.cost.instructions, 8);
        assert_eq!(p.packets, 3);
        m.profile_reset();
        let recs = m.profile_records();
        let p = &recs.iter().find(|(n, _)| n == "Discard").unwrap().1;
        assert_eq!(p.cost, Cost::ZERO);
        assert_eq!(p.packets, 0);
    }

    /// Every `(kind, level)` entry of the stall table, and every
    /// translation outcome, carries the bits of the per-access formula it
    /// replaced — checked with a model whose products do not round nicely.
    #[test]
    fn cost_tables_are_bit_exact() {
        let lat = LatencyModel {
            l1_hit_cy: 4.3,
            l2_hit_cy: 11.7,
            llc_hit_ns: 8.9,
            dram_ns: 61.3,
            stlb_hit_cy: 7.1,
            walk_cy: 20.9,
            walk_ns: 12.7,
            store_stall_factor: 0.37,
            ..LatencyModel::default()
        };
        let bits = |c: Cost| (c.instructions, c.cycles.to_bits(), c.uncore_ns.to_bits());
        let load = [
            Cost::stall_cycles(lat.l1_hit_cy),
            Cost::stall_cycles(lat.l2_hit_cy),
            Cost::stall_ns(lat.llc_hit_ns),
            Cost::stall_ns(lat.dram_ns),
        ];
        let table = stall_table(&lat);
        for (level, raw) in load.into_iter().enumerate() {
            assert_eq!(bits(table[AccessKind::Load as usize][level]), bits(raw));
            // What `touch` computed per store.
            let f = lat.store_stall_factor;
            let store = Cost {
                instructions: raw.instructions,
                cycles: raw.cycles * f,
                uncore_ns: raw.uncore_ns * f,
            };
            assert_eq!(bits(table[AccessKind::Store as usize][level]), bits(store));
        }
        // The last-line filter's own spelling of an L1 store hit.
        assert_eq!(
            bits(table[AccessKind::Store as usize][Level::L1 as usize]),
            bits(Cost::stall_cycles(lat.l1_hit_cy * lat.store_stall_factor))
        );
        let tlb = tlb_cost_table(&lat);
        assert_eq!(bits(tlb[TlbOutcome::Dtlb as usize]), bits(Cost::ZERO));
        assert_eq!(
            bits(tlb[TlbOutcome::Stlb as usize]),
            bits(Cost::stall_cycles(lat.stlb_hit_cy))
        );
        let walk = Cost {
            instructions: 0,
            cycles: lat.walk_cy,
            uncore_ns: lat.walk_ns,
        };
        assert_eq!(bits(tlb[TlbOutcome::Walk as usize]), bits(walk));

        // And through the front door: a cold store pays walk + DRAM × f,
        // its repeat the last-line L1 store hit.
        let mut m = MemoryHierarchy::new(&HierarchyParams {
            lat,
            ..tiny_params()
        });
        let cold = m.access(0, 0x10_000, 8, AccessKind::Store);
        assert_eq!(bits(cold), bits(walk + table[1][Level::Dram as usize]));
        let again = m.access(0, 0x10_008, 8, AccessKind::Store);
        assert_eq!(bits(again), bits(table[1][Level::L1 as usize]));
    }

    /// The counter snapshot is taken only when attribution is on: off, no
    /// record appears; on, the scope gets exactly the counter delta.
    #[test]
    fn range_attribution_is_lazy_and_exact() {
        let mut m = tiny();
        m.access_range(0, 0x10_000, 256, AccessKind::Load);
        m.access_line(0, 0x10_000, AccessKind::Store);
        m.prefetch(0, 0x30_000, 64);
        assert!(m.profile_records().is_empty());

        m.enable_attribution();
        let el = m.register_scope("Range");
        m.set_scope(el);
        let before = m.counters();
        m.access_range(0, 0x20_000, 300, AccessKind::Store);
        m.access_range(0, 0x10_000, 256, AccessKind::Load);
        let delta = m.counters().delta_since(&before);
        assert_eq!(delta.stores, 5);
        assert_eq!(delta.loads, 4);
        for (name, p) in m.profile_records() {
            let want = if name == "Range" {
                delta
            } else {
                MemCounters::default()
            };
            assert_eq!(p.counters, want, "scope {name}");
        }
    }

    #[test]
    #[should_panic(expected = "ddio_ways")]
    fn bad_ddio_ways() {
        let mut p = HierarchyParams::skylake(1);
        p.ddio_ways = 99;
        let _ = MemoryHierarchy::new(&p);
    }

    use crate::program::ProgramBuilder;

    /// Batch resolution over strided rows — sub-line WQE slots, a cold
    /// row in the middle, and line-crossing strides over a warmed
    /// region — accumulates the same bits in row order as per-row
    /// reference runs, with one attribution window for the batch.
    #[test]
    fn batch_resolution_matches_per_row_reference() {
        let mut m = tiny();
        let mut r = MemoryHierarchy::with_reference_walk(&tiny_params());
        for h in [&mut m, &mut r] {
            h.enable_attribution();
            h.warm(0, 0x50_000, 4 * 64);
        }
        let prog = ProgramBuilder::new().store(0, 0, 16).compute(7).build();
        let mut rows: Vec<[u64; 1]> = (0..8).map(|i| [0x50_000 + i * 16]).collect();
        rows.insert(2, [0x6E_000]);
        rows.extend((0..4).map(|i| [0x50_000 + i * 64]));
        let (mut cf, mut cr) = (Cost::ZERO, Cost::ZERO);
        m.run_program_batch(0, &prog, &rows, &mut cf);
        for row in &rows {
            r.run_program(0, &prog, row, &mut cr);
        }
        assert_eq!(cf, cr, "batch must accumulate the same bits in row order");
        assert_eq!(m.counters(), r.counters());
        assert_eq!(m.profile_records(), r.profile_records());
    }
}
