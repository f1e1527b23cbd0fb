//! The element abstraction and the charged execution context.
//!
//! Elements do **real work on real packet bytes** (parse headers, rewrite
//! addresses, look up routes) and, alongside, **charge** their memory
//! touches and compute to the simulation context [`Ctx`]. The charging
//! API is deliberately explicit — which lines an element touches is the
//! object of study in this reproduction.

use crate::config::{Args, ConfigError};
use crate::plan::ExecPlan;
use pm_dpdk::RxDesc;
use pm_mem::{AccessKind, AddressSpace, Cost, MemoryHierarchy, Region};
use std::collections::BTreeMap;

/// What kind of node an element is in the push graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// Produces packets (e.g. `FromDPDKDevice`); driven by the engine.
    Source,
    /// Transforms/filters packets.
    Processing,
    /// Consumes packets (e.g. `ToDPDKDevice`); marks the TX boundary.
    Sink,
}

/// The result of processing one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Emit on the given output port.
    Forward(u16),
    /// Drop the packet.
    Drop,
}

/// Functional annotation values (the data that, in Click, lives in the
/// `Packet` object's 48-byte annotation area).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Annos {
    /// Destination-IP annotation (set by routing, read by ARP logic).
    pub dst_ip: [u8; 4],
    /// Paint annotation (input-interface marking).
    pub paint: u8,
    /// VLAN TCI annotation.
    pub vlan_tci: u16,
    /// Ingress port annotation.
    pub port: u16,
}

/// A packet travelling through the graph: real bytes + descriptor +
/// annotation values.
#[derive(Debug)]
pub struct Pkt<'a> {
    /// The frame bytes (the buffer's data area; valid length is `len`).
    pub data: &'a mut [u8],
    /// Current frame length.
    pub len: usize,
    /// The driver descriptor this packet arrived with.
    pub desc: RxDesc,
    /// Address of the framework's `Packet` metadata object for this
    /// packet (model-dependent; set by the runtime).
    pub meta_addr: u64,
    /// Annotation values.
    pub annos: Annos,
}

impl Pkt<'_> {
    /// The valid frame bytes.
    pub fn frame(&self) -> &[u8] {
        &self.data[..self.len]
    }

    /// The valid frame bytes, mutably.
    pub fn frame_mut(&mut self) -> &mut [u8] {
        &mut self.data[..self.len]
    }
}

/// Per-field access counts collected when profiling is enabled (feeds
/// the struct-reordering pass).
pub type FieldProfile = BTreeMap<&'static str, u64>;

/// Occupancy and policy counters for one element-owned lookup table
/// (flow table, route trie, conntrack …), surfaced into the run
/// artifact by the engine for workload runs. Counters are host-side
/// bookkeeping only — reading them never charges the simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Element instance name (filled in by the graph runtime).
    pub name: String,
    /// Table family: `"cuckoo"`, `"trie"`, `"rules"`.
    pub kind: &'static str,
    /// Maximum entries the table can hold.
    pub capacity: u64,
    /// Entries currently stored.
    pub occupancy: u64,
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that hit a live entry.
    pub hits: u64,
    /// Entries ever inserted.
    pub insertions: u64,
    /// Entries removed by an idle-timeout policy.
    pub expiries: u64,
    /// Entries displaced out of a full table (capacity eviction).
    pub evictions: u64,
    /// Cuckoo displacement steps taken across all inserts.
    pub displacements: u64,
    /// Longest single displacement chain observed.
    pub max_chain: u64,
}

/// The charged execution context handed to every element.
pub struct Ctx<'a> {
    /// Executing core.
    pub core: usize,
    /// The memory hierarchy all charges go through.
    pub mem: &'a mut MemoryHierarchy,
    /// Cost accumulated so far in this batch.
    pub cost: Cost,
    /// The active execution plan.
    pub plan: &'a ExecPlan,
    /// The current element's state region (set by the runtime per hop).
    pub state: Region,
    /// Packet-metadata field profile, when profiling.
    pub profile: Option<FieldProfile>,
}

impl<'a> Ctx<'a> {
    /// Creates a context for one core.
    pub fn new(core: usize, mem: &'a mut MemoryHierarchy, plan: &'a ExecPlan) -> Self {
        Ctx {
            core,
            mem,
            cost: Cost::ZERO,
            plan,
            state: Region { base: 0, size: 1 },
            profile: None,
        }
    }

    /// Enables packet-metadata field profiling.
    pub fn with_profiling(mut self) -> Self {
        self.profile = Some(FieldProfile::new());
        self
    }

    /// Charges `instr` instructions of straight-line compute.
    #[inline]
    pub fn compute(&mut self, instr: u64) {
        self.cost += Cost::compute(instr);
    }

    /// Charges an arbitrary cost.
    #[inline]
    pub fn charge(&mut self, c: Cost) {
        self.cost += c;
    }

    /// Charges a load of `len` bytes at simulated address `addr`.
    #[inline]
    pub fn load(&mut self, addr: u64, len: u64) {
        self.cost += self.mem.access(self.core, addr, len, AccessKind::Load);
        self.cost += Cost::compute(1);
    }

    /// Charges a store of `len` bytes at simulated address `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, len: u64) {
        self.cost += self.mem.access(self.core, addr, len, AccessKind::Store);
        self.cost += Cost::compute(1);
    }

    /// Charges an access to the current element's own state.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the element's state region.
    pub fn touch_state(&mut self, off: u64, len: u64, kind: AccessKind) {
        assert!(
            off + len <= self.state.size,
            "state access out of bounds: {off}+{len} > {}",
            self.state.size
        );
        self.cost += self.mem.access(self.core, self.state.base + off, len, kind);
    }

    /// Charges a read of packet data bytes `off..off+len`.
    pub fn read_data(&mut self, pkt: &Pkt<'_>, off: u64, len: u64) {
        self.cost += self
            .mem
            .access(self.core, pkt.desc.data_addr + off, len, AccessKind::Load);
        self.cost += Cost::compute(len.div_ceil(8));
    }

    /// Charges a write of packet data bytes `off..off+len`.
    pub fn write_data(&mut self, pkt: &Pkt<'_>, off: u64, len: u64) {
        self.cost += self
            .mem
            .access(self.core, pkt.desc.data_addr + off, len, AccessKind::Store);
        self.cost += Cost::compute(len.div_ceil(8));
    }

    fn meta_field_addr(&mut self, pkt: &Pkt<'_>, field: &'static str) -> (u64, u64) {
        if let Some(p) = &mut self.profile {
            *p.entry(field).or_insert(0) += 1;
        }
        let f = self
            .plan
            .packet_layout
            .field(field)
            .unwrap_or_else(|| panic!("packet layout has no field {field}"));
        (pkt.meta_addr + u64::from(f.offset), u64::from(f.size))
    }

    /// Charges a read of a `Packet`-object metadata field.
    ///
    /// Under SROA (static graph + Copying) the object is register/stack
    /// promoted, so the access costs only the instruction.
    pub fn read_meta(&mut self, pkt: &Pkt<'_>, field: &'static str) {
        let (addr, size) = self.meta_field_addr(pkt, field);
        if self.plan.sroa_active() {
            self.cost += Cost::compute(1);
        } else {
            self.cost += self.mem.access(self.core, addr, size, AccessKind::Load);
            self.cost += Cost::compute(1);
        }
    }

    /// Charges a write of a `Packet`-object metadata field.
    pub fn write_meta(&mut self, pkt: &Pkt<'_>, field: &'static str) {
        let (addr, size) = self.meta_field_addr(pkt, field);
        if self.plan.sroa_active() {
            self.cost += Cost::compute(1);
        } else {
            self.cost += self.mem.access(self.core, addr, size, AccessKind::Store);
            self.cost += Cost::compute(1);
        }
    }

    /// Takes the accumulated cost, resetting it to zero.
    pub fn take_cost(&mut self) -> Cost {
        std::mem::replace(&mut self.cost, Cost::ZERO)
    }
}

/// A packet-processing element.
///
/// Implementations do real work on `pkt.data` and charge their memory
/// and compute through `ctx`.
pub trait Element {
    /// The element's Click class name (e.g. `"CheckIPHeader"`).
    fn class_name(&self) -> &'static str;

    /// Source / processing / sink role.
    fn kind(&self) -> ElementKind {
        ElementKind::Processing
    }

    /// Applies configuration arguments. Called once at graph build.
    fn configure(&mut self, args: &Args) -> Result<(), ConfigError> {
        let _ = args;
        Ok(())
    }

    /// Allocates any large state (tables, arrays) in the simulated
    /// address space. Called once after `configure`.
    fn setup(&mut self, space: &mut AddressSpace) {
        let _ = space;
    }

    /// Number of output ports.
    fn n_outputs(&self) -> u16 {
        1
    }

    /// Size in bytes of the element *object* (its scalar state — tables
    /// are allocated in `setup`). Determines arena/heap footprint.
    fn state_size(&self) -> u64 {
        64
    }

    /// Number of configuration-parameter words the per-packet path loads
    /// when constants are *not* embedded.
    fn param_loads(&self) -> u32 {
        1
    }

    /// Processes one packet.
    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt<'_>) -> Action;

    /// Occupancy/policy counters for the element's lookup table, if it
    /// owns one (the runtime fills in the instance name).
    fn table_stats(&self) -> Option<TableStats> {
        None
    }

    /// The simulated regions backing the element's tables (allocated in
    /// [`Self::setup`]); the engine remaps these onto hugepages when the
    /// experiment asks for hugepage-backed tables.
    fn table_regions(&self) -> Vec<Region> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecPlan;
    use pm_dpdk::MetadataModel;

    fn desc() -> RxDesc {
        RxDesc {
            buf_id: 0,
            len: 64,
            rss_hash: 0,
            arrival: pm_sim::SimTime::ZERO,
            gen: pm_sim::SimTime::ZERO,
            seq: 0,
            data_addr: 0x10_000,
            meta_addr: 0x20_000,
            xslot: None,
        }
    }

    #[test]
    fn ctx_charges_accumulate() {
        let mut mem = MemoryHierarchy::skylake(1);
        let plan = ExecPlan::vanilla(MetadataModel::Copying);
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        ctx.compute(40);
        ctx.load(0x1000, 8);
        ctx.store(0x2000, 8);
        let c = ctx.take_cost();
        assert!(c.instructions >= 42);
        assert!(c.uncore_ns > 0.0, "cold accesses hit DRAM");
        assert_eq!(ctx.cost, Cost::ZERO);
    }

    #[test]
    fn meta_access_charges_at_layout_offset() {
        let mut mem = MemoryHierarchy::skylake(1);
        let plan = ExecPlan::vanilla(MetadataModel::Copying);
        let mut d = desc();
        d.meta_addr = 0x40_000;
        let mut data = vec![0u8; 64];
        let pkt = Pkt {
            data: &mut data,
            len: 64,
            desc: d,
            meta_addr: 0x40_000,
            annos: Annos::default(),
        };
        let mut ctx = Ctx::new(0, &mut mem, &plan).with_profiling();
        ctx.read_meta(&pkt, "dst_ip_anno");
        ctx.write_meta(&pkt, "paint_anno");
        let prof = ctx.profile.take().unwrap();
        assert_eq!(prof.get("dst_ip_anno"), Some(&1));
        assert_eq!(prof.get("paint_anno"), Some(&1));
        assert!(ctx.cost.instructions >= 2);
    }

    #[test]
    fn sroa_meta_access_is_free_of_memory() {
        let mut mem = MemoryHierarchy::skylake(1);
        let mut plan = ExecPlan {
            static_graph: true,
            ..ExecPlan::vanilla(MetadataModel::Copying)
        };
        assert!(plan.sroa_active());
        let mut data = vec![0u8; 64];
        let pkt = Pkt {
            data: &mut data,
            len: 64,
            desc: desc(),
            meta_addr: 0x40_000,
            annos: Annos::default(),
        };
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        ctx.read_meta(&pkt, "dst_ip_anno");
        let c = ctx.take_cost();
        assert_eq!(c.uncore_ns, 0.0);
        assert_eq!(mem.counters().loads, 0, "SROA: no memory access at all");
        // Turning static graph off re-enables the memory charge.
        plan.static_graph = false;
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        let pkt2 = Pkt {
            data: &mut data,
            len: 64,
            desc: desc(),
            meta_addr: 0x40_000,
            annos: Annos::default(),
        };
        ctx.read_meta(&pkt2, "dst_ip_anno");
        assert_eq!(mem.counters().loads, 1);
    }

    #[test]
    #[should_panic(expected = "state access out of bounds")]
    fn state_bounds_checked() {
        let mut mem = MemoryHierarchy::skylake(1);
        let plan = ExecPlan::vanilla(MetadataModel::Copying);
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        ctx.state = Region {
            base: 0x1000,
            size: 64,
        };
        ctx.touch_state(60, 8, AccessKind::Load);
    }

    #[test]
    fn pkt_frame_views() {
        let mut data = vec![7u8; 128];
        let mut pkt = Pkt {
            data: &mut data,
            len: 60,
            desc: desc(),
            meta_addr: 0,
            annos: Annos::default(),
        };
        assert_eq!(pkt.frame().len(), 60);
        pkt.frame_mut()[0] = 1;
        assert_eq!(pkt.data[0], 1);
    }
}
