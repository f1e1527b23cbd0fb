//! `IPRewriter`: a stateful NAPT on the cuckoo hash table.
//!
//! Outbound packets get their source address rewritten to the external
//! address and their source port to an allocated external port; the
//! mapping is stored in a cuckoo flow table (paper §A.3: "The NAT
//! configuration is stateful and it uses the DPDK Cuckoo hash table,
//! resulting in more lookups and higher memory usage"). Both the IPv4
//! header checksum and the TCP/UDP checksum are patched incrementally.

use crate::cuckoo::{array, CuckooHash, InsertOutcome, Packed};
use pm_click::{Action, Args, ConfigError, Ctx, Element, Pkt, TableStats};
use pm_mem::{AccessKind, AddressSpace, Region};
use pm_packet::checksum::{update16, update32};
use pm_packet::ether::ETHER_LEN;
use pm_packet::ipv4::{self, IpProto, Ipv4Header};
use pm_sim::SimTime;

/// A flow key: (src ip, dst ip, src port, dst port, proto).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// IP protocol.
    pub proto: u8,
}

impl Packed for FlowKey {
    type Bytes = [u8; 13];
    const SIZE: usize = 13;
    fn pack(&self) -> [u8; 13] {
        let mut b = [0; 13];
        b[..4].copy_from_slice(&self.src.to_le_bytes());
        b[4..8].copy_from_slice(&self.dst.to_le_bytes());
        b[8..10].copy_from_slice(&self.sport.to_le_bytes());
        b[10..12].copy_from_slice(&self.dport.to_le_bytes());
        b[12] = self.proto;
        b
    }
    fn unpack(b: &[u8]) -> Self {
        FlowKey {
            src: u32::from_le_bytes(array(b)),
            dst: u32::from_le_bytes(array(&b[4..])),
            sport: u16::from_le_bytes(array(&b[8..])),
            dport: u16::from_le_bytes(array(&b[10..])),
            proto: b[12],
        }
    }
}

/// One NAT binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// External source port assigned to the flow.
    pub ext_port: u16,
    /// Arrival time of the flow's most recent packet (only refreshed
    /// when an idle timeout is configured).
    pub last: SimTime,
}

impl Packed for Binding {
    type Bytes = [u8; 10];
    const SIZE: usize = 10;
    fn pack(&self) -> [u8; 10] {
        let mut b = [0; 10];
        b[..2].copy_from_slice(&self.ext_port.to_le_bytes());
        b[2..].copy_from_slice(&self.last.as_ps().to_le_bytes());
        b
    }
    fn unpack(b: &[u8]) -> Self {
        Binding {
            ext_port: u16::from_le_bytes(array(b)),
            last: SimTime::from_ps(u64::from_le_bytes(array(&b[2..]))),
        }
    }
}

/// Default flow-table bucket count (× 4 slots = capacity).
const DEFAULT_BUCKETS: usize = 16384;

/// `IPRewriter(EXTIP a.b.c.d, BUCKETS n, IDLE_US t, EVICT true)`:
/// source NAT with per-flow port allocation.
///
/// `IDLE_US` arms an idle timeout: a binding unused for longer than `t`
/// microseconds is expired on its next lookup and the flow gets a fresh
/// port. `EVICT true` keeps forwarding when the cuckoo displacement walk
/// gives up (the new key is placed, the final victim is dropped) instead
/// of dropping the packet. Both default off, preserving the original
/// drop-on-full, never-expire behaviour byte for byte.
#[derive(Debug)]
pub struct IpRewriter {
    ext_ip: [u8; 4],
    /// Flow-table bucket count (`BUCKETS`).
    buckets: usize,
    /// The flow table and its simulated region, built by `setup`.
    table: Option<(CuckooHash<FlowKey, Binding>, Region)>,
    next_port: u16,
    /// Idle timeout; `None` disables expiry entirely.
    idle: Option<SimTime>,
    /// Forward (and count an eviction) instead of dropping when the
    /// displacement walk fails.
    evict: bool,
    /// New flows admitted.
    pub flows: u64,
    /// Packets dropped (non-rewritable or table full).
    pub drops: u64,
    /// Flow-table lookups performed.
    pub lookups: u64,
    /// Lookups that found a live binding.
    pub hits: u64,
    /// Bindings expired by the idle timeout.
    pub expiries: u64,
}

impl Default for IpRewriter {
    fn default() -> Self {
        IpRewriter {
            ext_ip: [192, 0, 2, 1],
            buckets: DEFAULT_BUCKETS,
            table: None,
            next_port: 10_000,
            idle: None,
            evict: false,
            flows: 0,
            drops: 0,
            lookups: 0,
            hits: 0,
            expiries: 0,
        }
    }
}

impl IpRewriter {
    fn charge_probe(ctx: &mut Ctx<'_>, region: Region, bucket: usize) {
        ctx.cost += ctx.mem.access(
            ctx.core,
            region.base + (bucket as u64) * 64,
            64,
            AccessKind::Load,
        );
    }

    fn charge_store(ctx: &mut Ctx<'_>, region: Region, bucket: usize) {
        ctx.cost += ctx.mem.access(
            ctx.core,
            region.base + (bucket as u64) * 64,
            64,
            AccessKind::Store,
        );
    }
}

impl Element for IpRewriter {
    fn class_name(&self) -> &'static str {
        "IPRewriter"
    }

    fn configure(&mut self, args: &Args) -> Result<(), ConfigError> {
        if let Some(v) = args.get("EXTIP").or_else(|| args.positional(0)) {
            let ip = crate::trie::parse_ip(v).ok_or_else(|| ConfigError::Element {
                element: String::new(),
                message: format!("bad EXTIP {v:?}"),
            })?;
            self.ext_ip = ip.to_be_bytes();
        }
        if let Some(v) = args.get("BUCKETS") {
            self.buckets = v.parse().map_err(|_| ConfigError::Element {
                element: String::new(),
                message: format!("bad BUCKETS {v:?}"),
            })?;
        }
        if let Some(v) = args.get("IDLE_US") {
            let us: f64 = v.parse().map_err(|_| ConfigError::Element {
                element: String::new(),
                message: format!("bad IDLE_US {v:?}"),
            })?;
            self.idle = Some(SimTime::from_us(us));
        }
        if let Some(v) = args.get("EVICT") {
            self.evict = matches!(v, "true" | "TRUE" | "1");
        }
        Ok(())
    }

    fn setup(&mut self, space: &mut AddressSpace) {
        let table = CuckooHash::new(self.buckets);
        // One cache line per bucket, like rte_hash.
        let region = space.alloc_pages(table.bucket_count() as u64 * 64);
        self.table = Some((table, region));
    }

    fn param_loads(&self) -> u32 {
        2
    }

    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt<'_>) -> Action {
        let (table, region) = self.table.as_mut().expect("setup() ran before process()");
        let region = *region;
        if pkt.len < ETHER_LEN + 20 + 8 {
            self.drops += 1;
            return Action::Drop;
        }
        ctx.read_data(pkt, ETHER_LEN as u64, 24);
        let Ok(ip) = Ipv4Header::parse(&pkt.frame()[ETHER_LEN..]) else {
            self.drops += 1;
            return Action::Drop;
        };
        if ip.protocol != IpProto::TCP && ip.protocol != IpProto::UDP {
            // Pass non-port traffic (e.g. ICMP) through unmodified.
            ctx.compute(4);
            return Action::Forward(0);
        }
        let l4_off = ETHER_LEN + ip.header_len;
        // TCP rewrites patch the checksum at l4_off + 16; a frame cut
        // inside the TCP header (wire truncation) must drop, not panic.
        let need = match ip.protocol {
            IpProto::TCP => l4_off + 18,
            _ => l4_off + 8,
        };
        if pkt.len < need {
            self.drops += 1;
            return Action::Drop;
        }
        let f = pkt.frame();
        let key = FlowKey {
            src: ip.src_u32(),
            dst: ip.dst_u32(),
            sport: u16::from_be_bytes([f[l4_off], f[l4_off + 1]]),
            dport: u16::from_be_bytes([f[l4_off + 2], f[l4_off + 3]]),
            proto: ip.protocol.0,
        };

        // Flow-table lookup, charging every probed bucket line. The
        // slot where the key lands is kept so expiry/refresh stores hit
        // the same cache line.
        self.lookups += 1;
        let hit = table.find_visit(&key, |b| Self::charge_probe(ctx, region, b));
        ctx.compute(48); // key assembly + two hashes + compares

        let arrival = pkt.desc.arrival;
        let hit = match (hit, self.idle) {
            (Some((at, b)), Some(idle)) if arrival > b.last && arrival - b.last > idle => {
                // Idle flow: tear down the stale binding and fall
                // through to the new-flow path for a fresh port.
                table.remove_at(at);
                Self::charge_store(ctx, region, at.bucket);
                ctx.compute(30);
                self.expiries += 1;
                None
            }
            (h, _) => h,
        };

        let binding = match hit {
            Some((at, mut b)) => {
                self.hits += 1;
                if self.idle.is_some() {
                    b.last = arrival;
                    table.set(at, b);
                    Self::charge_store(ctx, region, at.bucket);
                }
                b
            }
            None => {
                // New flow: allocate a port and insert.
                let b = Binding {
                    ext_port: self.next_port,
                    last: arrival,
                };
                self.next_port = self.next_port.wrapping_add(1).max(10_000);
                let outcome = table.insert_visit(key, b, |bk| {
                    Self::charge_store(ctx, region, bk);
                });
                ctx.compute(85);
                if outcome == InsertOutcome::Full && !self.evict {
                    self.drops += 1;
                    return Action::Drop;
                }
                // On EVICT a Full insert still placed the new key (the
                // displacement walk drops its final victim), so the
                // flow is live and the packet keeps forwarding.
                self.flows += 1;
                b
            }
        };

        // Rewrite source address (patches the IP header checksum) …
        let old_src = u32::from_be_bytes(ip.src);
        ipv4::set_src_in_place(&mut pkt.frame_mut()[ETHER_LEN..], self.ext_ip);
        ctx.write_data(pkt, (ETHER_LEN + ipv4::SRC_OFFSET) as u64, 4);
        ctx.write_data(pkt, (ETHER_LEN + ipv4::CHECKSUM_OFFSET) as u64, 2);

        // … and the source port + transport checksum (pseudo-header uses
        // the source address, so patch both deltas incrementally).
        let csum_off = match ip.protocol {
            IpProto::TCP => Some(l4_off + 16),
            IpProto::UDP => Some(l4_off + 6),
            _ => None,
        };
        let old_port = key.sport;
        let fm = pkt.frame_mut();
        fm[l4_off..l4_off + 2].copy_from_slice(&binding.ext_port.to_be_bytes());
        if let Some(co) = csum_off {
            let old_sum = u16::from_be_bytes([fm[co], fm[co + 1]]);
            if !(ip.protocol == IpProto::UDP && old_sum == 0) {
                let s = update32(old_sum, old_src, u32::from_be_bytes(self.ext_ip));
                let s = update16(s, old_port, binding.ext_port);
                fm[co..co + 2].copy_from_slice(&s.to_be_bytes());
            }
        }
        ctx.write_data(pkt, l4_off as u64, 2);
        if let Some(co) = csum_off {
            ctx.write_data(pkt, co as u64, 2);
        }
        ctx.compute(42);
        Action::Forward(0)
    }

    fn table_stats(&self) -> Option<TableStats> {
        let (table, _) = self.table.as_ref()?;
        Some(TableStats {
            name: String::new(),
            kind: "cuckoo",
            capacity: table.capacity() as u64,
            occupancy: table.len() as u64,
            lookups: self.lookups,
            hits: self.hits,
            insertions: self.flows,
            expiries: self.expiries,
            evictions: table.evictions(),
            displacements: table.displacements(),
            max_chain: table.max_chain(),
        })
    }

    fn table_regions(&self) -> Vec<Region> {
        self.table.iter().map(|&(_, region)| region).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_click::{Annos, ExecPlan, MetadataModel};
    use pm_dpdk::RxDesc;
    use pm_mem::MemoryHierarchy;
    use pm_packet::builder::PacketBuilder;
    use pm_packet::checksum::{fold, pseudo_header_sum, sum_words};
    use pm_packet::tcp::TcpHeader;

    fn element() -> IpRewriter {
        let mut el = IpRewriter::default();
        el.configure(&Args::parse("EXTIP 198.51.100.9")).unwrap();
        el.setup(&mut AddressSpace::new());
        el
    }

    fn rewrite_at(el: &mut IpRewriter, frame: &mut Vec<u8>, arrival: SimTime) -> Action {
        let mut mem = MemoryHierarchy::skylake(1);
        let plan = ExecPlan::vanilla(MetadataModel::Copying);
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        ctx.state = pm_mem::Region {
            base: 0x900,
            size: 64,
        };
        let len = frame.len();
        let mut pkt = Pkt {
            data: frame,
            len,
            desc: RxDesc {
                buf_id: 0,
                len: len as u32,
                rss_hash: 0,
                arrival,
                gen: pm_sim::SimTime::ZERO,
                seq: 0,
                data_addr: 0x10_000,
                meta_addr: 0x20_000,
                xslot: None,
            },
            meta_addr: 0x20_000,
            annos: Annos::default(),
        };
        el.process(&mut ctx, &mut pkt)
    }

    fn rewrite(el: &mut IpRewriter, frame: &mut Vec<u8>) -> Action {
        rewrite_at(el, frame, pm_sim::SimTime::ZERO)
    }

    #[test]
    fn tcp_frame_truncated_inside_header_drops() {
        // Wire truncation can cut a TCP frame between the ports (which
        // the old l4+8 guard covered) and the checksum at l4+16; the
        // rewrite must drop it, not panic indexing the checksum.
        let mut el = element();
        let full = PacketBuilder::tcp()
            .src_ip([10, 0, 0, 5])
            .src_port(5555)
            .payload_len(16)
            .build();
        for cut in 42..52 {
            let mut f = full[..cut].to_vec();
            assert_eq!(rewrite(&mut el, &mut f), Action::Drop, "cut at {cut}");
        }
        // A frame that still covers the checksum field rewrites fine.
        let mut f = full[..52].to_vec();
        assert_eq!(rewrite(&mut el, &mut f), Action::Forward(0));
    }

    #[test]
    fn rewrites_source_and_keeps_checksums_valid() {
        let mut el = element();
        let mut f = PacketBuilder::tcp()
            .src_ip([10, 0, 0, 5])
            .src_port(5555)
            .payload_len(16)
            .build();
        assert_eq!(rewrite(&mut el, &mut f), Action::Forward(0));

        let ip = Ipv4Header::parse(&f[14..]).unwrap();
        assert_eq!(ip.src, [198, 51, 100, 9]);
        assert!(ip.verify_checksum(&f[14..]), "IP checksum patched");

        let tcp = TcpHeader::parse(&f[34..]).unwrap();
        assert_eq!(tcp.src_port, 10_000, "first allocated external port");

        // Verify the TCP checksum end to end over the pseudo-header.
        let seg_len = (ip.total_len as usize) - 20;
        let acc = pseudo_header_sum(ip.src, ip.dst, 6, seg_len as u16);
        assert_eq!(
            fold(sum_words(&f[34..34 + seg_len], acc)),
            0xffff,
            "TCP checksum patched incrementally"
        );
        assert_eq!(el.flows, 1);
    }

    #[test]
    fn same_flow_reuses_binding() {
        let mut el = element();
        let mk = || {
            PacketBuilder::tcp()
                .src_ip([10, 0, 0, 5])
                .src_port(7777)
                .build()
        };
        let mut f1 = mk();
        let mut f2 = mk();
        rewrite(&mut el, &mut f1);
        rewrite(&mut el, &mut f2);
        assert_eq!(el.flows, 1, "one binding for one flow");
        let p1 = TcpHeader::parse(&f1[34..]).unwrap().src_port;
        let p2 = TcpHeader::parse(&f2[34..]).unwrap().src_port;
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_flows_get_different_ports() {
        let mut el = element();
        let mut ports = std::collections::HashSet::new();
        for sp in 0..32u16 {
            let mut f = PacketBuilder::tcp().src_port(4000 + sp).build();
            rewrite(&mut el, &mut f);
            ports.insert(TcpHeader::parse(&f[34..]).unwrap().src_port);
        }
        assert_eq!(ports.len(), 32);
        assert_eq!(el.flows, 32);
    }

    #[test]
    fn udp_zero_checksum_left_alone() {
        let mut el = element();
        let mut f = PacketBuilder::udp().payload_len(4).build();
        // Force the "no checksum" marker.
        f[34 + 6] = 0;
        f[34 + 7] = 0;
        rewrite(&mut el, &mut f);
        assert_eq!(&f[34 + 6..34 + 8], &[0, 0], "zero UDP checksum preserved");
    }

    #[test]
    fn icmp_passes_through() {
        let mut el = element();
        let mut f = PacketBuilder::icmp().build();
        let before = f.clone();
        assert_eq!(rewrite(&mut el, &mut f), Action::Forward(0));
        assert_eq!(f, before, "non-TCP/UDP untouched");
        assert_eq!(el.flows, 0);
    }

    #[test]
    fn idle_timeout_expires_and_reallocates() {
        let mut el = IpRewriter::default();
        el.configure(&Args::parse("EXTIP 198.51.100.9, IDLE_US 10"))
            .unwrap();
        el.setup(&mut AddressSpace::new());
        let mk = || {
            PacketBuilder::tcp()
                .src_ip([10, 0, 0, 5])
                .src_port(7777)
                .build()
        };
        let mut f = mk();
        rewrite_at(&mut el, &mut f, SimTime::ZERO);
        let p0 = TcpHeader::parse(&f[34..]).unwrap().src_port;
        // Inside the timeout: binding reused, `last` refreshed.
        let mut f = mk();
        rewrite_at(&mut el, &mut f, SimTime::from_us(5.0));
        assert_eq!(TcpHeader::parse(&f[34..]).unwrap().src_port, p0);
        assert_eq!(el.expiries, 0);
        // The refresh restarted the clock: 5 + 9 < 5 + 10 keeps it.
        let mut f = mk();
        rewrite_at(&mut el, &mut f, SimTime::from_us(14.0));
        assert_eq!(el.expiries, 0, "refresh-on-hit restarted the idle clock");
        // Past the timeout: expired, a fresh port is allocated.
        let mut f = mk();
        rewrite_at(&mut el, &mut f, SimTime::from_us(100.0));
        let p1 = TcpHeader::parse(&f[34..]).unwrap().src_port;
        assert_ne!(p1, p0, "expired flow reallocates");
        assert_eq!(el.expiries, 1);
        assert_eq!(el.flows, 2);
        let stats = el.table_stats().unwrap();
        assert_eq!(stats.expiries, 1);
        assert_eq!(stats.occupancy, 1, "old binding removed");
    }

    #[test]
    fn evict_policy_forwards_when_table_is_full() {
        let mut el = IpRewriter::default();
        el.configure(&Args::parse("EXTIP 198.51.100.9, BUCKETS 2, EVICT true"))
            .unwrap();
        el.setup(&mut AddressSpace::new());
        for sp in 0..64u16 {
            let mut f = PacketBuilder::tcp().src_port(1000 + sp).build();
            assert_eq!(rewrite(&mut el, &mut f), Action::Forward(0), "sp={sp}");
        }
        assert_eq!(el.drops, 0, "EVICT never drops on full");
        assert_eq!(el.flows, 64);
        let stats = el.table_stats().unwrap();
        assert!(stats.evictions > 0, "the 8-entry table must have evicted");
        assert!(stats.occupancy <= stats.capacity);
    }

    #[test]
    fn default_policy_reports_table_stats() {
        let mut el = element();
        let mut f = PacketBuilder::tcp().src_port(4242).build();
        rewrite(&mut el, &mut f);
        let stats = el.table_stats().unwrap();
        assert_eq!(stats.kind, "cuckoo");
        assert_eq!(stats.capacity, (DEFAULT_BUCKETS * 4) as u64);
        assert_eq!(stats.occupancy, 1);
        assert_eq!(stats.lookups, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.insertions, 1);
        assert_eq!(el.table_regions().len(), 1);
    }

    #[test]
    fn runt_dropped() {
        let mut el = element();
        let mut f = vec![0u8; 30];
        assert_eq!(rewrite(&mut el, &mut f), Action::Drop);
        assert_eq!(el.drops, 1);
    }
}
