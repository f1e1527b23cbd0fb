//! The per-core graph executor.
//!
//! For every packet the runtime walks the push path from a source's
//! successor to a sink, invoking each element's real `process` code and
//! charging, per hop, exactly what the active [`ExecPlan`] implies:
//!
//! * **dispatch** — vtable load + indirect-call penalty (virtual), a
//!   direct call (devirtualized), or nothing (fully inlined);
//! * **graph walk** — a next-hop connection-descriptor load unless the
//!   graph is embedded statically;
//! * **parameters** — a load of the element's configuration words unless
//!   constants are embedded;
//! * **element state** — one touch of the element object (arena-packed
//!   under the static graph, heap-scattered otherwise);
//! * **`Packet` metadata** — per the metadata model: pool-alloc + copy
//!   (Copying), cast + annotation init (Overlaying), nothing (X-Change —
//!   the driver already wrote the fields), or register promotion (SROA
//!   under static graph + Copying).

use crate::element::{Action, Ctx, ElementKind, Pkt};
use crate::graph::{ElementInfo, Graph};
use crate::packet::{ClickPool, COPY_FIELDS};
use crate::plan::{DispatchMode, ExecPlan};
use pm_dpdk::{MetadataModel, RxDesc};
use pm_mem::{
    AccessKind, AccessProgram, AddressSpace, Cost, MemoryHierarchy, ProgramBuilder, Region,
    ScatterAlloc, ScopeId, SCOPE_METADATA,
};

/// Where a packet ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Reached a sink; transmit `len` bytes via the sink element.
    Tx {
        /// Index of the sink element reached.
        sink: usize,
        /// Frame length to transmit.
        len: usize,
    },
    /// Dropped at the given element.
    Dropped {
        /// Index of the dropping element.
        at: usize,
    },
}

/// Per-runtime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Packets that entered the graph.
    pub processed: u64,
    /// Packets dropped inside the graph.
    pub dropped: u64,
    /// Packets that reached a sink.
    pub to_tx: u64,
}

/// Maximum hops per packet (guards against accidental config cycles).
const MAX_HOPS: usize = 64;

/// Default Click packet-object pool size (objects).
const CLICK_POOL_OBJECTS: u32 = 131072;

/// An element's attribution-scope and span label: `Class(name)`, or the
/// raw `Class@N` form of an anonymous element.
fn scope_label(e: &ElementInfo) -> String {
    if e.name.contains('@') {
        e.name.clone()
    } else {
        format!("{}({})", e.class, e.name)
    }
}

/// The executable form of a graph under a specific plan.
pub struct GraphRuntime {
    /// The element graph (public so the engine can inspect sources).
    pub graph: Graph,
    plan: ExecPlan,
    state_regions: Vec<Region>,
    vtable_addrs: Vec<u64>,
    pool: ClickPool,
    stack_region: Region,
    stats: RuntimeStats,
    /// Per-element (packets seen, packets dropped here) — the Click
    /// read-handler equivalent.
    element_counts: Vec<(u64, u64)>,
    /// Attribution scopes per element, registered lazily on the first run
    /// against a hierarchy with profiling enabled.
    element_scopes: Option<Vec<ScopeId>>,
    /// Per-element dispatch access programs (vtable load, call penalty,
    /// bookkeeping, state touch — the whole `charge_hop` charge set as
    /// one program over bases `[vtable, state]`). Built lazily on first
    /// run because the charges bake in the hierarchy's latency model.
    hop_progs: Option<Vec<AccessProgram>>,
    /// The Copying-model conversion program (mbuf load + bookkeeping-line
    /// stores + conversion work) over bases `[mbuf, packet]`, built from
    /// the plan's packet layout — fixed for the runtime's life (the
    /// reordering pass runs on the IR, before any runtime exists).
    copy_prog: AccessProgram,
    /// Injected per-element slow-down windows
    /// `(from, until, factor_x1000)`, indexed by element. `None` (the
    /// default) keeps the hop loop untouched.
    slowdowns: Option<Vec<Vec<(pm_sim::SimTime, pm_sim::SimTime, u32)>>>,
    /// Per-packet hop log `(element idx, cost delta)` for the flight
    /// recorder's lifecycle trace. `None` (the default) keeps the hop
    /// loop untouched; recording never alters charges.
    span_log: Option<Vec<(usize, Cost)>>,
}

impl std::fmt::Debug for GraphRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphRuntime")
            .field("elements", &self.graph.len())
            .field("plan", &self.plan.label())
            .field("stats", &self.stats)
            .finish()
    }
}

impl GraphRuntime {
    /// Prepares a graph for execution under `plan`, placing element state
    /// per the plan (arena if static, scattered heap otherwise) and
    /// running every element's `setup`.
    pub fn new(mut graph: Graph, plan: ExecPlan, space: &mut AddressSpace) -> Self {
        let n_elements = graph.len();
        // Element object placement.
        let state_regions: Vec<Region> = if plan.static_graph {
            // Arena: elements contiguous in graph order, like statically
            // declared objects in .data.
            graph
                .elements
                .iter()
                .map(|e| space.alloc(e.element.state_size().max(64)))
                .collect()
        } else {
            // Heap-scattered, like one-by-one `new` at initialization.
            let heap = space.reserve_heap(64 * 1024 * 1024);
            let mut scatter = ScatterAlloc::new(heap, 0x5eed);
            graph
                .elements
                .iter()
                .map(|e| scatter.alloc(e.element.state_size().max(64)))
                .collect()
        };

        // One vtable address per element class (shared, like C++). Class
        // names are interned as indices into a scratch list borrowed from
        // the graph — no allocation outlives this constructor.
        let vtable_region = space.alloc(4096);
        let mut classes: Vec<&str> = Vec::new();
        let vtable_addrs = graph
            .elements
            .iter()
            .map(|e| {
                let idx = classes
                    .iter()
                    .position(|c| *c == e.class.as_str())
                    .unwrap_or_else(|| {
                        classes.push(e.class.as_str());
                        classes.len() - 1
                    });
                vtable_region.at((idx as u64) * 64)
            })
            .collect();
        drop(classes);

        // Large element state (tables, arrays).
        for e in &mut graph.elements {
            e.element.setup(space);
        }

        let pool = ClickPool::with_order(
            space,
            CLICK_POOL_OBJECTS,
            &plan.packet_layout,
            plan.lifo_packet_pool,
        );
        let stack_region = space.alloc(256);

        let element_counts = vec![(0, 0); n_elements];
        let copy_prog = Self::copy_program(&plan.packet_layout);
        GraphRuntime {
            graph,
            plan,
            state_regions,
            vtable_addrs,
            pool,
            stack_region,
            stats: RuntimeStats::default(),
            element_counts,
            element_scopes: None,
            hop_progs: None,
            copy_prog,
            slowdowns: None,
            span_log: None,
        }
    }

    /// Enables (or disables) per-packet hop-span recording. While on,
    /// each [`Self::run`] rebuilds the log of `(element, cost)` hops the
    /// packet traversed, drained by [`Self::take_spans`]. Recording reads
    /// costs the hop loop already computes — it charges nothing and
    /// performs no simulated accesses.
    pub fn set_span_recording(&mut self, on: bool) {
        self.span_log = on.then(Vec::new);
    }

    /// Drains the hop spans of the last [`Self::run`] into `out` as
    /// `(element label, cost delta)` in traversal order. Labels match the
    /// attribution scopes: `Class(name)`, or the raw `Class@N` form for
    /// anonymous elements. No-op while recording is off.
    pub fn take_spans(&mut self, out: &mut Vec<(String, Cost)>) {
        if let Some(log) = self.span_log.as_mut() {
            for &(idx, cost) in log.iter() {
                out.push((scope_label(&self.graph.elements[idx]), cost));
            }
            log.clear();
        }
    }

    /// Compiles `plan`'s per-element slow-down events against this
    /// graph: each element's windows are resolved once (matched by class
    /// or instance name), so the hop loop does only an indexed lookup.
    /// A plan with no matching slow-downs resets to the cost-free
    /// default.
    pub fn set_fault_slowdowns(&mut self, plan: &pm_sim::FaultPlan) {
        let per_element: Vec<_> = self
            .graph
            .elements
            .iter()
            .map(|e| plan.slowdown_windows(&e.class, &e.name))
            .collect();
        self.slowdowns = per_element
            .iter()
            .any(|w| !w.is_empty())
            .then_some(per_element);
    }

    /// The injected extra cost for element `idx` on a packet that
    /// arrived at `at`: the hop's charged work scaled by `factor − 1`.
    fn slowdown_extra(&self, idx: usize, at: pm_sim::SimTime, spent: Cost) -> Option<Cost> {
        let windows = &self.slowdowns.as_ref()?[idx];
        windows
            .iter()
            .find(|(from, until, factor)| *from <= at && at < *until && *factor > 1000)
            .map(|&(_, _, factor)| spent.scaled(f64::from(factor - 1000) / 1000.0))
    }

    /// The Copying-model conversion under `layout`: the mbuf load, one
    /// store per distinct line (ascending) holding a [`COPY_FIELDS`]
    /// field, and the conversion work.
    fn copy_program(layout: &crate::StructLayout) -> AccessProgram {
        let mut lines: Vec<u32> = COPY_FIELDS.iter().map(|f| layout.line_of(f)).collect();
        lines.sort_unstable();
        lines.dedup();
        let mut b = ProgramBuilder::new().load(0, 0, 32);
        for l in lines {
            b = b.store(1, l * 64, 64);
        }
        b.compute(95).build()
    }

    /// The active plan.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Counters.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Per-element `(name, packets, drops)` rows, in graph order — the
    /// Click read-handler equivalent (`element.count`).
    pub fn element_stats(&self) -> Vec<(String, u64, u64)> {
        self.graph
            .elements
            .iter()
            .zip(&self.element_counts)
            .map(|(e, &(seen, dropped))| (e.name.clone(), seen, dropped))
            .collect()
    }

    /// Table occupancy/policy counters for every table-owning element,
    /// in graph order, with instance names filled in.
    pub fn table_stats(&self) -> Vec<crate::element::TableStats> {
        self.graph
            .elements
            .iter()
            .filter_map(|e| {
                e.element.table_stats().map(|mut t| {
                    t.name = e.name.clone();
                    t
                })
            })
            .collect()
    }

    /// The simulated regions backing element tables (for hugepage
    /// remapping by the engine).
    pub fn table_regions(&self) -> Vec<pm_mem::Region> {
        self.graph
            .elements
            .iter()
            .flat_map(|e| e.element.table_regions())
            .collect()
    }

    /// Registers one attribution scope per element (idempotent; no-op
    /// until the hierarchy has profiling enabled), labelled by
    /// [`scope_label`].
    fn ensure_scopes(&mut self, mem: &mut MemoryHierarchy) {
        if !mem.attribution_enabled() || self.element_scopes.is_some() {
            return;
        }
        self.element_scopes = Some(
            self.graph
                .elements
                .iter()
                .map(|e| mem.register_scope(&scope_label(e)))
                .collect(),
        );
    }

    /// The attribution scope of element `idx`, or `None` while profiling
    /// is off. Used by the dataplane to tag its source-side entry work.
    pub fn element_scope(&mut self, mem: &mut MemoryHierarchy, idx: usize) -> Option<ScopeId> {
        self.ensure_scopes(mem);
        self.element_scopes.as_ref().map(|s| s[idx])
    }

    /// Attributes the cost accumulated since `before` (plus one packet)
    /// to `scope`.
    fn attribute_hop(ctx: &mut Ctx<'_>, scope: Option<ScopeId>, before: Cost) {
        if let Some(s) = scope {
            ctx.mem.profile_charge_at(s, ctx.cost - before);
            ctx.mem.profile_packets_at(s, 1);
        }
    }

    /// Performs the metadata-model work for a packet entering the
    /// framework and returns the address of its `Packet` object.
    pub fn begin_packet(&mut self, ctx: &mut Ctx<'_>, desc: &RxDesc) -> u64 {
        let before = ctx.cost;
        let prev = ctx.mem.set_scope(SCOPE_METADATA);
        let addr = self.begin_packet_inner(ctx, desc);
        ctx.mem.profile_charge_at(SCOPE_METADATA, ctx.cost - before);
        ctx.mem.profile_packets_at(SCOPE_METADATA, 1);
        ctx.mem.set_scope(prev);
        addr
    }

    fn begin_packet_inner(&mut self, ctx: &mut Ctx<'_>, desc: &RxDesc) -> u64 {
        match self.plan.metadata_model {
            MetadataModel::Copying => {
                if self.plan.sroa_active() {
                    // Scalar replacement: the conversion lives in
                    // registers / one hot stack line.
                    ctx.cost +=
                        ctx.mem
                            .access(ctx.core, self.stack_region.base, 16, AccessKind::Store);
                    // The conversion work (field moves, annotation init)
                    // still executes — in registers. Only the memory
                    // traffic and pool management disappear.
                    ctx.compute(118);
                    self.stack_region.base
                } else {
                    // Allocate a Packet object and copy the useful mbuf
                    // fields into it (two conversions total, §2.2).
                    let (addr, c) = self.pool.alloc(ctx.core, ctx.mem);
                    ctx.charge(c);
                    let addr = addr.unwrap_or(self.stack_region.base);
                    // Mbuf load + bookkeeping-line stores + conversion
                    // work, as one precompiled program (annotation lines
                    // are touched lazily by the elements that use them,
                    // which is why reordering them matters).
                    ctx.mem.run_program(
                        ctx.core,
                        &self.copy_prog,
                        &[desc.meta_addr, addr],
                        &mut ctx.cost,
                    );
                    addr
                }
            }
            MetadataModel::Overlaying => {
                // Cast the mbuf to a Packet and initialize annotations in
                // the area following the 128-B mbuf fields.
                let addr = desc.meta_addr + 128;
                ctx.cost += ctx.mem.access(ctx.core, addr, 16, AccessKind::Store);
                ctx.compute(30);
                addr
            }
            MetadataModel::XChange => {
                // The driver already wrote the needed fields in place.
                ctx.compute(6);
                desc.meta_addr
            }
        }
    }

    /// Releases the `Packet` object after the packet leaves the graph.
    pub fn end_packet(&mut self, ctx: &mut Ctx<'_>, meta_addr: u64) {
        if self.plan.metadata_model == MetadataModel::Copying
            && !self.plan.sroa_active()
            && meta_addr != self.stack_region.base
        {
            let before = ctx.cost;
            let prev = ctx.mem.set_scope(SCOPE_METADATA);
            let c = self.pool.free(ctx.core, ctx.mem, meta_addr);
            ctx.charge(c);
            ctx.mem.profile_charge_at(SCOPE_METADATA, ctx.cost - before);
            ctx.mem.set_scope(prev);
        }
    }

    /// Pushes one packet from `source` through the graph.
    ///
    /// # Panics
    ///
    /// Panics if the walk exceeds `MAX_HOPS` (64 — a configuration cycle).
    pub fn run(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt<'_>, source: usize) -> PacketFate {
        self.ensure_scopes(ctx.mem);
        self.stats.processed += 1;
        if let Some(log) = self.span_log.as_mut() {
            log.clear();
        }
        let (mut idx, _port) = self.graph.entry_of(source);
        for _ in 0..MAX_HOPS {
            // Everything charged during this hop — dispatch, state touch,
            // the element's own work, and next-hop resolution — is
            // attributed to the executing element.
            let hop_start = ctx.cost;
            let scope = self.element_scopes.as_ref().map(|s| s[idx]);
            if let Some(s) = scope {
                ctx.mem.set_scope(s);
            }
            self.charge_hop(ctx, idx);
            ctx.state = self.state_regions[idx];
            self.element_counts[idx].0 += 1;
            let el = &mut self.graph.elements[idx].element;
            let kind = el.kind();
            let action = el.process(ctx, pkt);
            if self.slowdowns.is_some() {
                // Injected slow-down: inflate this hop's charge before
                // attribution so the profile ledger still reconciles.
                if let Some(extra) =
                    self.slowdown_extra(idx, pkt.desc.arrival, ctx.cost - hop_start)
                {
                    ctx.charge(extra);
                }
            }
            match action {
                Action::Drop => {
                    self.stats.dropped += 1;
                    self.element_counts[idx].1 += 1;
                    if let Some(log) = self.span_log.as_mut() {
                        log.push((idx, ctx.cost - hop_start));
                    }
                    Self::attribute_hop(ctx, scope, hop_start);
                    return PacketFate::Dropped { at: idx };
                }
                Action::Forward(p) => {
                    if kind == ElementKind::Sink {
                        self.stats.to_tx += 1;
                        if let Some(log) = self.span_log.as_mut() {
                            log.push((idx, ctx.cost - hop_start));
                        }
                        Self::attribute_hop(ctx, scope, hop_start);
                        return PacketFate::Tx {
                            sink: idx,
                            len: pkt.len,
                        };
                    }
                    // Next-hop resolution: a connection-descriptor load on
                    // the dynamic graph; free when embedded statically.
                    if !self.plan.static_graph {
                        let conn = self.state_regions[idx];
                        ctx.cost += ctx.mem.access(
                            ctx.core,
                            conn.base + 16 + u64::from(p) * 8,
                            8,
                            AccessKind::Load,
                        );
                        ctx.compute(2);
                    }
                    if let Some(log) = self.span_log.as_mut() {
                        log.push((idx, ctx.cost - hop_start));
                    }
                    Self::attribute_hop(ctx, scope, hop_start);
                    match self.graph.adj[idx].get(p as usize).copied().flatten() {
                        Some((next, _in_port)) => idx = next,
                        None => {
                            // Validated graphs cannot reach this; treat a
                            // stray port as a drop rather than a crash.
                            self.stats.dropped += 1;
                            return PacketFate::Dropped { at: idx };
                        }
                    }
                }
            }
        }
        panic!("packet exceeded {MAX_HOPS} hops: configuration cycle?");
    }

    /// Resolves element `idx`'s dispatch charge set — vtable load, call
    /// penalty, per-hop bookkeeping, and state touch — as one access
    /// program over bases `[vtable, state]`.
    #[inline]
    fn charge_hop(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        if self.hop_progs.is_none() {
            self.hop_progs = Some(self.build_hop_progs(ctx.mem.latency_model()));
        }
        let prog = &self.hop_progs.as_ref().unwrap()[idx];
        let bases = [self.vtable_addrs[idx], self.state_regions[idx].base];
        ctx.mem.run_program(ctx.core, prog, &bases, &mut ctx.cost);
    }

    /// Compiles one dispatch program per element (pay at setup, not per
    /// packet). The step sequence is charge-for-charge the former inline
    /// `charge_hop` body; `lat` values are baked into the charge steps,
    /// which is why construction waits for the first run against a
    /// hierarchy.
    fn build_hop_progs(&self, lat: &pm_mem::LatencyModel) -> Vec<AccessProgram> {
        (0..self.graph.len())
            .map(|idx| {
                let mut b = ProgramBuilder::new();
                b = match self.plan.dispatch {
                    DispatchMode::Virtual => b.load(0, 0, 8).charge(lat.virtual_call()),
                    DispatchMode::Direct => b.charge(lat.direct_call()),
                    DispatchMode::Inlined => b,
                };
                // Per-hop bookkeeping (port push, batch/list management,
                // bounds checks); constant embedding folds branches away,
                // and the fully inlined static graph lets the compiler
                // melt most of it.
                let hop_instr = match (self.plan.dispatch, self.plan.constants_embedded) {
                    // Full inlining removes calls, not the per-hop work
                    // itself (the paper's static graph keeps ~the same
                    // instruction count; its gains are locality, Table 1).
                    (DispatchMode::Inlined, true) => 44,
                    (DispatchMode::Inlined, false) => 48,
                    (_, true) => 34,
                    (_, false) => 38,
                };
                b = b.compute(hop_instr);
                if !self.plan.constants_embedded {
                    // Parameter-dependent branches the compiler cannot
                    // fold, then the full parameter-word load.
                    b = b.charge(Cost::stall_cycles(1.2));
                    let words = self.graph.elements[idx].element.param_loads().max(1);
                    b.load(1, 0, words * 8).compute(words * 3)
                } else {
                    // The element object itself is still touched
                    // (counters etc.).
                    b.load(1, 8, 8)
                }
                .build()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigGraph;
    use crate::element::Annos;
    use crate::graph::ElementRegistry;
    use pm_mem::{Cost, MemoryHierarchy};

    const FWD: &str = "in :: FromDPDKDevice(0); out :: ToDPDKDevice(0); in -> Null -> out;";

    fn rt(plan: ExecPlan) -> (GraphRuntime, AddressSpace) {
        let cfg = ConfigGraph::parse(FWD).unwrap();
        let g = Graph::build(&cfg, &ElementRegistry::with_basics()).unwrap();
        let mut space = AddressSpace::new();
        (GraphRuntime::new(g, plan, &mut space), space)
    }

    fn desc() -> RxDesc {
        RxDesc {
            buf_id: 0,
            len: 64,
            rss_hash: 0,
            arrival: pm_sim::SimTime::ZERO,
            gen: pm_sim::SimTime::ZERO,
            seq: 0,
            data_addr: 0x8_0000,
            meta_addr: 0x9_0000,
            xslot: None,
        }
    }

    fn push_one(rtm: &mut GraphRuntime, mem: &mut MemoryHierarchy) -> (PacketFate, Cost) {
        let plan = rtm.plan().clone();
        let mut ctx = Ctx::new(0, mem, &plan);
        let d = desc();
        let meta = rtm.begin_packet(&mut ctx, &d);
        let mut data = vec![0u8; 64];
        let mut pkt = Pkt {
            data: &mut data,
            len: 64,
            desc: d,
            meta_addr: meta,
            annos: Annos::default(),
        };
        let fate = rtm.run(&mut ctx, &mut pkt, 0);
        rtm.end_packet(&mut ctx, meta);
        (fate, ctx.take_cost())
    }

    #[test]
    fn forwarder_reaches_sink() {
        let (mut rtm, _s) = rt(ExecPlan::vanilla(MetadataModel::Copying));
        let mut mem = MemoryHierarchy::skylake(1);
        let (fate, cost) = push_one(&mut rtm, &mut mem);
        assert!(matches!(fate, PacketFate::Tx { len: 64, .. }));
        assert!(cost.instructions > 0);
        assert_eq!(rtm.stats().to_tx, 1);
    }

    #[test]
    fn drop_config_drops() {
        let cfg = ConfigGraph::parse("in :: FromDPDKDevice(0); in -> Discard;").unwrap();
        let g = Graph::build(&cfg, &ElementRegistry::with_basics()).unwrap();
        let mut space = AddressSpace::new();
        let mut rtm = GraphRuntime::new(g, ExecPlan::vanilla(MetadataModel::Copying), &mut space);
        let mut mem = MemoryHierarchy::skylake(1);
        let (fate, _) = push_one(&mut rtm, &mut mem);
        assert!(matches!(fate, PacketFate::Dropped { .. }));
        assert_eq!(rtm.stats().dropped, 1);
    }

    #[test]
    fn optimized_plans_cost_less() {
        let mut mem = MemoryHierarchy::skylake(1);
        let mut measure = |plan: ExecPlan| {
            let (mut rtm, _s) = rt(plan);
            // Warm up, then measure steady state.
            let mut last = Cost::ZERO;
            for _ in 0..2048 {
                let (_, c) = push_one(&mut rtm, &mut mem);
                last = c;
            }
            last
        };
        let plan = |dispatch, constants_embedded, static_graph| ExecPlan {
            dispatch,
            constants_embedded,
            static_graph,
            ..ExecPlan::vanilla(MetadataModel::Copying)
        };
        let vanilla = measure(plan(DispatchMode::Virtual, false, false));
        let devirt = measure(plan(DispatchMode::Direct, false, false));
        let constants = measure(plan(DispatchMode::Virtual, true, false));
        let all = measure(plan(DispatchMode::Inlined, true, true));
        let f = pm_sim::Frequency::from_ghz(3.0);
        assert!(devirt.time(f) < vanilla.time(f), "devirt should win");
        assert!(constants.time(f) < vanilla.time(f), "constants should win");
        assert!(all.time(f) < devirt.time(f), "all should beat devirt");
        assert!(all.time(f) < constants.time(f), "all should beat constants");
    }

    #[test]
    fn static_graph_bypasses_packet_pool() {
        let mut mem = MemoryHierarchy::skylake(1);
        let (mut rtm, _s) = rt(ExecPlan {
            dispatch: DispatchMode::Inlined,
            static_graph: true,
            ..ExecPlan::vanilla(MetadataModel::Copying)
        });
        for _ in 0..100 {
            push_one(&mut rtm, &mut mem);
        }
        assert_eq!(
            rtm.pool.available(),
            rtm.pool.capacity() as usize,
            "SROA must never touch the pool"
        );
    }

    #[test]
    fn copying_cycles_packet_pool() {
        let mut mem = MemoryHierarchy::skylake(1);
        let (mut rtm, _s) = rt(ExecPlan::vanilla(MetadataModel::Copying));
        let before = rtm.pool.available();
        for _ in 0..100 {
            push_one(&mut rtm, &mut mem);
        }
        assert_eq!(rtm.pool.available(), before, "alloc/free balanced");
    }

    #[test]
    fn profiled_run_attributes_every_cost() {
        let mut mem = MemoryHierarchy::skylake(1);
        mem.enable_attribution();
        let (mut rtm, _s) = rt(ExecPlan::vanilla(MetadataModel::Copying));
        let mut total = Cost::ZERO;
        for _ in 0..64 {
            let (_, c) = push_one(&mut rtm, &mut mem);
            total += c;
        }
        let recs = mem.profile_records();
        // Per-element names exist and the per-hop packet counts match.
        let null = recs.iter().find(|(n, _)| n.starts_with("Null@")).unwrap();
        assert_eq!(null.1.packets, 64);
        let sink = recs.iter().find(|(n, _)| n == "ToDPDKDevice(out)").unwrap();
        assert_eq!(sink.1.packets, 64);
        let meta = recs.iter().find(|(n, _)| n == "metadata").unwrap();
        assert!(meta.1.cost.instructions > 0, "begin/end_packet attributed");
        // Attributed costs sum to exactly what the packets were charged.
        let sum = recs.iter().fold(Cost::ZERO, |acc, (_, p)| acc + p.cost);
        assert_eq!(sum.instructions, total.instructions);
        assert!((sum.cycles - total.cycles).abs() < 1e-6);
        assert!((sum.uncore_ns - total.uncore_ns).abs() < 1e-6);
    }

    #[test]
    fn attribution_does_not_change_charges() {
        let run = |profile: bool| {
            let mut mem = MemoryHierarchy::skylake(1);
            if profile {
                mem.enable_attribution();
            }
            let (mut rtm, _s) = rt(ExecPlan::vanilla(MetadataModel::Copying));
            let mut total = Cost::ZERO;
            for _ in 0..128 {
                let (_, c) = push_one(&mut rtm, &mut mem);
                total += c;
            }
            (total, mem.counters())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn injected_slowdown_inflates_cost_only_in_window() {
        use pm_sim::{fault::FaultKind, FaultPlan, SimTime};
        let mut mem = MemoryHierarchy::skylake(1);
        let (mut rtm, _s) = rt(ExecPlan::vanilla(MetadataModel::Copying));
        // Warm the caches so repeated pushes cost the same.
        for _ in 0..256 {
            push_one(&mut rtm, &mut mem);
        }
        let (_, baseline) = push_one(&mut rtm, &mut mem);

        let plan = FaultPlan::new(0).with(
            FaultKind::Slowdown {
                element: "Null".into(),
                factor_x1000: 3000,
            },
            SimTime::ZERO,
            SimTime::from_us(1.0),
        );
        rtm.set_fault_slowdowns(&plan);
        // desc() arrives at t=0, inside the window.
        let (_, slowed) = push_one(&mut rtm, &mut mem);
        assert!(
            slowed.cycles > baseline.cycles,
            "3x Null must cost more: {} vs {}",
            slowed.cycles,
            baseline.cycles
        );

        // An expired window costs nothing again.
        rtm.set_fault_slowdowns(&FaultPlan::new(0).with(
            FaultKind::Slowdown {
                element: "Null".into(),
                factor_x1000: 3000,
            },
            SimTime::from_us(5.0),
            SimTime::from_us(6.0),
        ));
        let (_, after) = push_one(&mut rtm, &mut mem);
        assert_eq!(after, baseline, "outside the window behaviour is identical");

        // A plan that names no element in this graph resets to default.
        rtm.set_fault_slowdowns(&FaultPlan::new(0));
        assert!(rtm.slowdowns.is_none());
    }

    #[test]
    fn slowdown_keeps_attribution_reconciled() {
        use pm_sim::{fault::FaultKind, FaultPlan, SimTime};
        let mut mem = MemoryHierarchy::skylake(1);
        mem.enable_attribution();
        let (mut rtm, _s) = rt(ExecPlan::vanilla(MetadataModel::Copying));
        rtm.set_fault_slowdowns(&FaultPlan::new(0).with(
            FaultKind::Slowdown {
                element: "Null".into(),
                factor_x1000: 2500,
            },
            SimTime::ZERO,
            SimTime::MAX,
        ));
        let mut total = Cost::ZERO;
        for _ in 0..64 {
            let (_, c) = push_one(&mut rtm, &mut mem);
            total += c;
        }
        let recs = mem.profile_records();
        let sum = recs.iter().fold(Cost::ZERO, |acc, (_, p)| acc + p.cost);
        assert_eq!(sum.instructions, total.instructions);
        assert!((sum.cycles - total.cycles).abs() < 1e-6);
    }

    #[test]
    fn span_recording_is_cost_neutral_and_labels_hops() {
        let run = |spans: bool| {
            let mut mem = MemoryHierarchy::skylake(1);
            let (mut rtm, _s) = rt(ExecPlan::vanilla(MetadataModel::Copying));
            rtm.set_span_recording(spans);
            let mut total = Cost::ZERO;
            let mut last_spans = Vec::new();
            for _ in 0..64 {
                let (_, c) = push_one(&mut rtm, &mut mem);
                total += c;
                last_spans.clear();
                rtm.take_spans(&mut last_spans);
            }
            (total, mem.counters(), last_spans)
        };
        let (off_cost, off_ctr, off_spans) = run(false);
        let (on_cost, on_ctr, on_spans) = run(true);
        assert_eq!(off_cost, on_cost, "recording must not change charges");
        assert_eq!(off_ctr, on_ctr);
        assert!(off_spans.is_empty(), "no spans while recording is off");
        // FWD walks Null then the sink; labels match attribution scopes.
        let labels: Vec<&str> = on_spans.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["Null@1", "ToDPDKDevice(out)"]);
        assert!(on_spans.iter().all(|(_, c)| c.instructions > 0));
    }

    #[test]
    fn xchange_begin_is_nearly_free() {
        let mut mem = MemoryHierarchy::skylake(1);
        let (mut rtm, _s) = rt(ExecPlan::vanilla(MetadataModel::XChange));
        let plan = rtm.plan().clone();
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        let d = desc();
        let meta = rtm.begin_packet(&mut ctx, &d);
        assert_eq!(meta, d.meta_addr, "X-Change uses the driver-written slot");
        let c = ctx.take_cost();
        assert_eq!(c.uncore_ns, 0.0);
        assert!(
            c.instructions <= 8,
            "cast-only entry, got {}",
            c.instructions
        );
    }
}
