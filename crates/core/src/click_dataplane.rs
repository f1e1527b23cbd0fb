//! The FastClick graph runtime as a [`Dataplane`].

use pm_click::{Annos, Ctx, ExecPlan, FieldProfile, GraphRuntime, PacketFate, Pkt};
use pm_dpdk::{MetadataModel, RxDesc};
use pm_frameworks::{Dataplane, ProcessResult};
use pm_mem::{Cost, MemoryHierarchy};

/// Wraps a [`GraphRuntime`] so the experiment engine can drive it.
pub struct ClickDataplane {
    rt: GraphRuntime,
    /// Copy of the runtime's plan handed to per-packet contexts (a
    /// context borrows it while the runtime is borrowed mutably).
    plan: ExecPlan,
    /// Source element index packets enter through.
    source: usize,
    profiling: bool,
    profile: FieldProfile,
    label: String,
}

impl std::fmt::Debug for ClickDataplane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClickDataplane")
            .field("label", &self.label)
            .field("source", &self.source)
            .finish()
    }
}

impl ClickDataplane {
    /// Wraps `rt`, entering packets at its `source_ordinal`-th source
    /// element (0 for single-NIC configurations).
    ///
    /// # Panics
    ///
    /// Panics if the runtime has no such source.
    pub fn new(rt: GraphRuntime, source_ordinal: usize, label: impl Into<String>) -> Self {
        let source = *rt
            .graph
            .sources
            .get(source_ordinal)
            .unwrap_or_else(|| panic!("graph has no source #{source_ordinal}"));
        let plan = rt.plan().clone();
        ClickDataplane {
            rt,
            plan,
            source,
            profiling: false,
            profile: FieldProfile::new(),
            label: label.into(),
        }
    }
}

impl Dataplane for ClickDataplane {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn metadata_model(&self) -> MetadataModel {
        self.plan.metadata_model
    }

    fn process(
        &mut self,
        core: usize,
        mem: &mut MemoryHierarchy,
        desc: &RxDesc,
        data: &mut [u8],
    ) -> ProcessResult {
        let src_scope = self.rt.element_scope(mem, self.source);
        let mut ctx = Ctx::new(core, mem, &self.plan);
        if self.profiling {
            ctx.profile = Some(std::mem::take(&mut self.profile));
        }
        // FromDPDKDevice's per-packet RX loop: batch assembly, packet
        // type + timestamp annotations (partially folded away when the
        // static graph inlines the whole path).
        let entry_start = ctx.cost;
        ctx.compute(if self.plan.static_graph { 24 } else { 40 });
        if let Some(s) = src_scope {
            ctx.mem.profile_charge_at(s, ctx.cost - entry_start);
        }
        let meta_addr = self.rt.begin_packet(&mut ctx, desc);
        let mut pkt = Pkt {
            data,
            len: desc.len as usize,
            desc: *desc,
            meta_addr,
            annos: Annos::default(),
        };
        let fate = self.rt.run(&mut ctx, &mut pkt, self.source);
        self.rt.end_packet(&mut ctx, meta_addr);
        if let Some(p) = ctx.profile.take() {
            self.profile = p;
        }
        let tx_len = match fate {
            PacketFate::Tx { len, .. } => Some(len as u32),
            PacketFate::Dropped { .. } => None,
        };
        ProcessResult {
            tx_len,
            cost: ctx.take_cost(),
        }
    }

    fn per_batch_cost(&self, _n: usize) -> Cost {
        // FastClick task-scheduler pass per input batch.
        Cost::compute(45)
    }

    fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    fn take_profile(&mut self) -> Option<FieldProfile> {
        if self.profile.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.profile))
        }
    }

    fn element_stats(&self) -> Vec<(String, u64, u64)> {
        self.rt.element_stats()
    }

    fn table_stats(&self) -> Vec<pm_click::TableStats> {
        self.rt.table_stats()
    }

    fn table_regions(&self) -> Vec<pm_mem::Region> {
        self.rt.table_regions()
    }

    fn set_span_recording(&mut self, on: bool) {
        self.rt.set_span_recording(on);
    }

    fn take_spans(&mut self, out: &mut Vec<(String, Cost)>) {
        self.rt.take_spans(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_click::{ConfigGraph, Graph};
    use pm_elements::standard_registry;
    use pm_mem::AddressSpace;
    use pm_packet::builder::PacketBuilder;

    fn dataplane(model: MetadataModel) -> ClickDataplane {
        let cfg = ConfigGraph::parse(&pm_elements::configs::router()).unwrap();
        let graph = Graph::build(&cfg, &standard_registry()).unwrap();
        let mut space = AddressSpace::new();
        let rt = GraphRuntime::new(graph, ExecPlan::vanilla(model), &mut space);
        ClickDataplane::new(rt, 0, "FastClick")
    }

    fn desc(len: u32) -> RxDesc {
        RxDesc {
            buf_id: 0,
            len,
            rss_hash: 0,
            arrival: pm_sim::SimTime::ZERO,
            gen: pm_sim::SimTime::ZERO,
            seq: 0,
            data_addr: 0x100_000,
            meta_addr: 0x200_000,
            xslot: None,
        }
    }

    #[test]
    fn router_forwards_ip_and_decrements_ttl() {
        let mut dp = dataplane(MetadataModel::Copying);
        let mut mem = MemoryHierarchy::skylake(1);
        let mut data = PacketBuilder::tcp()
            .dst_ip([192, 168, 7, 7])
            .ttl(64)
            .frame_len(128)
            .build();
        let r = dp.process(0, &mut mem, &desc(128), &mut data);
        assert_eq!(r.tx_len, Some(128));
        let ip = pm_packet::ipv4::Ipv4Header::parse(&data[14..]).unwrap();
        assert_eq!(ip.ttl, 63, "the real router really decremented TTL");
        assert!(ip.verify_checksum(&data[14..]));
        assert!(r.cost.instructions > 50, "router work was charged");
    }

    #[test]
    fn router_drops_corrupt_packets() {
        let mut dp = dataplane(MetadataModel::Copying);
        let mut mem = MemoryHierarchy::skylake(1);
        let mut data = PacketBuilder::tcp().frame_len(128).build();
        data[14 + 10] ^= 0xff; // break the IP checksum
        let r = dp.process(0, &mut mem, &desc(128), &mut data);
        assert_eq!(r.tx_len, None);
    }

    #[test]
    fn router_answers_arp() {
        let mut dp = dataplane(MetadataModel::Copying);
        let mut mem = MemoryHierarchy::skylake(1);
        let mut data = PacketBuilder::arp().dst_ip([10, 0, 0, 254]).build();
        let r = dp.process(0, &mut mem, &desc(60), &mut data);
        assert_eq!(r.tx_len, Some(60), "ARP reply goes back out");
        let arp = pm_packet::arp::ArpPacket::parse(&data[14..]).unwrap();
        assert_eq!(arp.op, pm_packet::arp::ArpOp::Reply);
    }

    #[test]
    fn profiling_collects_field_accesses() {
        let mut dp = dataplane(MetadataModel::Copying);
        dp.set_profiling(true);
        let mut mem = MemoryHierarchy::skylake(1);
        for _ in 0..16 {
            let mut data = PacketBuilder::tcp().frame_len(128).build();
            dp.process(0, &mut mem, &desc(128), &mut data);
        }
        let prof = dp.take_profile().expect("profile collected");
        assert!(prof.get("dst_ip_anno").copied().unwrap_or(0) >= 16);
        assert!(prof.get("net_hdr").copied().unwrap_or(0) >= 16);
    }
}
