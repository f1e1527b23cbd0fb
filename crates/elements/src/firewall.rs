//! `IPFilter`: a rule-based stateless firewall.
//!
//! An extension NF beyond the paper's five (its related work repeatedly
//! pits packet frameworks against firewalls/ACLs): first-match
//! allow/deny rules over the IPv4 5-tuple, with CIDR prefixes and port
//! ranges, evaluated on real header bytes. Rules live in a simulated
//! region charged per rule scanned, so bigger rulesets genuinely cost
//! more — useful for rule-count sweeps.

use crate::cuckoo::{array, CuckooHash, Packed};
use crate::nat::FlowKey;
use crate::trie::parse_cidr;
use pm_click::{Action, Args, ConfigError, Ctx, Element, Pkt, TableStats};
use pm_mem::{AccessKind, AddressSpace, Region};
use pm_packet::ether::ETHER_LEN;
use pm_packet::ipv4::{IpProto, Ipv4Header};
use pm_sim::SimTime;

/// Rule verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the packet.
    Allow,
    /// Drop the packet.
    Deny,
}

/// One filter rule (all fields are conjunctive; `None` matches any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Verdict when the rule matches.
    pub verdict: Verdict,
    /// Source prefix `(addr, len)`.
    pub src: Option<(u32, u8)>,
    /// Destination prefix.
    pub dst: Option<(u32, u8)>,
    /// IP protocol.
    pub proto: Option<u8>,
    /// Destination-port range (inclusive).
    pub dport: Option<(u16, u16)>,
}

impl Rule {
    fn matches(&self, src: u32, dst: u32, proto: u8, dport: Option<u16>) -> bool {
        let prefix_match = |p: Option<(u32, u8)>, ip: u32| match p {
            None => true,
            Some((addr, len)) => {
                let mask = if len == 0 {
                    0
                } else {
                    u32::MAX << (32 - u32::from(len))
                };
                ip & mask == addr & mask
            }
        };
        prefix_match(self.src, src)
            && prefix_match(self.dst, dst)
            && self.proto.is_none_or(|p| p == proto)
            && match self.dport {
                None => true,
                Some((lo, hi)) => dport.is_some_and(|d| (lo..=hi).contains(&d)),
            }
    }
}

/// Parses one rule from text like
/// `allow src 10.0.0.0/8 dst 192.168.0.0/16 proto tcp dport 80-443`.
pub fn parse_rule(text: &str) -> Result<Rule, ConfigError> {
    let bad = |m: String| ConfigError::Element {
        element: String::new(),
        message: m,
    };
    let mut parts = text.split_whitespace();
    let verdict = match parts.next() {
        Some("allow") => Verdict::Allow,
        Some("deny") => Verdict::Deny,
        other => {
            return Err(bad(format!(
                "rule must start with allow/deny, got {other:?}"
            )))
        }
    };
    let mut rule = Rule {
        verdict,
        src: None,
        dst: None,
        proto: None,
        dport: None,
    };
    while let Some(key) = parts.next() {
        let val = parts
            .next()
            .ok_or_else(|| bad(format!("{key} needs a value")))?;
        match key {
            "src" => {
                rule.src = Some(parse_cidr(val).ok_or_else(|| bad(format!("bad CIDR {val:?}")))?)
            }
            "dst" => {
                rule.dst = Some(parse_cidr(val).ok_or_else(|| bad(format!("bad CIDR {val:?}")))?)
            }
            "proto" => {
                rule.proto = Some(match val {
                    "tcp" => 6,
                    "udp" => 17,
                    "icmp" => 1,
                    n => n.parse().map_err(|_| bad(format!("bad proto {val:?}")))?,
                })
            }
            "dport" => {
                rule.dport = Some(match val.split_once('-') {
                    Some((lo, hi)) => (
                        lo.parse().map_err(|_| bad(format!("bad port {lo:?}")))?,
                        hi.parse().map_err(|_| bad(format!("bad port {hi:?}")))?,
                    ),
                    None => {
                        let p: u16 = val.parse().map_err(|_| bad(format!("bad port {val:?}")))?;
                        (p, p)
                    }
                })
            }
            other => return Err(bad(format!("unknown rule keyword {other:?}"))),
        }
    }
    Ok(rule)
}

/// A cached allow-verdict conntrack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConnEntry {
    last: SimTime,
}

impl Packed for ConnEntry {
    type Bytes = [u8; 8];
    const SIZE: usize = 8;
    fn pack(&self) -> [u8; 8] {
        self.last.as_ps().to_le_bytes()
    }
    fn unpack(b: &[u8]) -> Self {
        ConnEntry {
            last: SimTime::from_ps(u64::from_le_bytes(array(b))),
        }
    }
}

/// The firewall element: first-match semantics, default deny.
///
/// `CONNTRACK n` (keyword arg, not a rule) arms an n-bucket cuckoo
/// fast path that caches **allow** verdicts per 5-tuple, skipping the
/// linear rule scan for established flows; `IDLE_US t` expires cached
/// entries idle longer than `t` microseconds. Both default off, keeping
/// the stateless scan byte-identical.
#[derive(Debug, Default)]
pub struct IpFilter {
    rules: Vec<Rule>,
    rules_region: Option<Region>,
    conntrack: Option<CuckooHash<FlowKey, ConnEntry>>,
    conntrack_region: Option<Region>,
    idle: Option<SimTime>,
    /// Packets denied (by rule or by default).
    pub denied: u64,
    /// Conntrack lookups performed.
    pub lookups: u64,
    /// Conntrack hits (rule scan skipped).
    pub hits: u64,
    /// Allow verdicts inserted into the conntrack cache.
    pub insertions: u64,
    /// Conntrack entries expired by the idle timeout.
    pub expiries: u64,
}

impl Element for IpFilter {
    fn class_name(&self) -> &'static str {
        "IPFilter"
    }

    fn configure(&mut self, args: &Args) -> Result<(), ConfigError> {
        let bad = |m: String| ConfigError::Element {
            element: String::new(),
            message: m,
        };
        for a in &args.items {
            // Policy keywords are element options, not rules.
            match a.key.as_deref() {
                Some("CONNTRACK") => {
                    let n: usize = a
                        .value
                        .parse()
                        .map_err(|_| bad(format!("bad CONNTRACK {:?}", a.value)))?;
                    self.conntrack = Some(CuckooHash::new(n));
                    continue;
                }
                Some("IDLE_US") => {
                    let us: f64 = a
                        .value
                        .parse()
                        .map_err(|_| bad(format!("bad IDLE_US {:?}", a.value)))?;
                    self.idle = Some(SimTime::from_us(us));
                    continue;
                }
                _ => {}
            }
            let text = match &a.key {
                Some(k) => format!("{k} {}", a.value),
                None => a.value.clone(),
            };
            // Click keyword parsing uppercases ALLOW/DENY; normalize.
            self.rules.push(parse_rule(&text.to_lowercase())?);
        }
        if self.rules.is_empty() {
            return Err(ConfigError::Element {
                element: String::new(),
                message: "IPFilter needs at least one rule".into(),
            });
        }
        Ok(())
    }

    fn setup(&mut self, space: &mut AddressSpace) {
        // One 32-B rule record each, two per line.
        self.rules_region = Some(space.alloc(self.rules.len() as u64 * 32));
        if let Some(ct) = &self.conntrack {
            // One cache line per bucket, like the NAT's flow table.
            self.conntrack_region = Some(space.alloc_pages(ct.bucket_count() as u64 * 64));
        }
    }

    fn param_loads(&self) -> u32 {
        1
    }

    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt<'_>) -> Action {
        if pkt.len < ETHER_LEN + 20 {
            self.denied += 1;
            return Action::Drop;
        }
        ctx.read_data(pkt, ETHER_LEN as u64, 24);
        let Ok(ip) = Ipv4Header::parse(&pkt.frame()[ETHER_LEN..]) else {
            self.denied += 1;
            return Action::Drop;
        };
        let l4 = ETHER_LEN + ip.header_len;
        let dport = match ip.protocol {
            IpProto::TCP | IpProto::UDP if pkt.len >= l4 + 4 && !ip.is_fragment() => {
                Some(u16::from_be_bytes([
                    pkt.frame()[l4 + 2],
                    pkt.frame()[l4 + 3],
                ]))
            }
            _ => None,
        };
        let region = self.rules_region.expect("setup() ran");

        // Established-flow fast path: probe the conntrack cache before
        // paying for the linear rule scan.
        let mut ct_key = None;
        if let Some(ct) = self.conntrack.as_mut() {
            if let Some(dp) = dport {
                let sport = u16::from_be_bytes([pkt.frame()[l4], pkt.frame()[l4 + 1]]);
                let key = FlowKey {
                    src: ip.src_u32(),
                    dst: ip.dst_u32(),
                    sport,
                    dport: dp,
                    proto: ip.protocol.0,
                };
                let ct_region = self.conntrack_region.expect("setup() ran");
                self.lookups += 1;
                let hit = ct.find_visit(&key, |b| {
                    ctx.cost += ctx.mem.access(
                        ctx.core,
                        ct_region.base + (b as u64) * 64,
                        64,
                        AccessKind::Load,
                    );
                });
                ctx.compute(48); // key assembly + two hashes + compares
                let arrival = pkt.desc.arrival;
                match (hit, self.idle) {
                    (Some((at, e)), Some(idle)) if arrival > e.last && arrival - e.last > idle => {
                        // Stale entry: expire it and fall through to
                        // the rule scan for a fresh verdict.
                        ct.remove_at(at);
                        ctx.cost += ctx.mem.access(
                            ctx.core,
                            ct_region.base + (at.bucket as u64) * 64,
                            64,
                            AccessKind::Store,
                        );
                        ctx.compute(30);
                        self.expiries += 1;
                    }
                    (Some((at, _)), _) => {
                        self.hits += 1;
                        if self.idle.is_some() {
                            ct.set(at, ConnEntry { last: arrival });
                            ctx.cost += ctx.mem.access(
                                ctx.core,
                                ct_region.base + (at.bucket as u64) * 64,
                                64,
                                AccessKind::Store,
                            );
                        }
                        ctx.compute(6);
                        return Action::Forward(0);
                    }
                    (None, _) => {}
                }
                ct_key = Some(key);
            }
        }

        for (i, rule) in self.rules.iter().enumerate() {
            // Charge the rule record scan.
            ctx.cost += ctx.mem.access(
                ctx.core,
                region.base + (i as u64) * 32,
                32,
                AccessKind::Load,
            );
            ctx.compute(7);
            if rule.matches(ip.src_u32(), ip.dst_u32(), ip.protocol.0, dport) {
                return match rule.verdict {
                    Verdict::Allow => {
                        // Cache the allow verdict for the flow's next
                        // packets (deny verdicts stay uncached: drops
                        // must keep re-consulting the ruleset).
                        if let (Some(ct), Some(key)) = (self.conntrack.as_mut(), ct_key) {
                            let ct_region = self.conntrack_region.expect("setup() ran");
                            ct.insert_visit(
                                key,
                                ConnEntry {
                                    last: pkt.desc.arrival,
                                },
                                |bk| {
                                    ctx.cost += ctx.mem.access(
                                        ctx.core,
                                        ct_region.base + (bk as u64) * 64,
                                        64,
                                        AccessKind::Store,
                                    );
                                },
                            );
                            ctx.compute(85);
                            self.insertions += 1;
                        }
                        Action::Forward(0)
                    }
                    Verdict::Deny => {
                        self.denied += 1;
                        Action::Drop
                    }
                };
            }
        }
        // Default deny.
        self.denied += 1;
        ctx.touch_state(0, 8, AccessKind::Store);
        Action::Drop
    }

    fn table_stats(&self) -> Option<TableStats> {
        let ct = self.conntrack.as_ref()?;
        Some(TableStats {
            name: String::new(),
            kind: "cuckoo",
            capacity: ct.capacity() as u64,
            occupancy: ct.len() as u64,
            lookups: self.lookups,
            hits: self.hits,
            insertions: self.insertions,
            expiries: self.expiries,
            evictions: ct.evictions(),
            displacements: ct.displacements(),
            max_chain: ct.max_chain(),
        })
    }

    fn table_regions(&self) -> Vec<Region> {
        self.conntrack_region.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_click::{Annos, ExecPlan, MetadataModel};
    use pm_dpdk::RxDesc;
    use pm_mem::MemoryHierarchy;
    use pm_packet::builder::PacketBuilder;

    fn filter(rules: &str) -> IpFilter {
        let mut el = IpFilter::default();
        el.configure(&Args::parse(rules)).unwrap();
        el.setup(&mut AddressSpace::new());
        el
    }

    fn run(el: &mut IpFilter, frame: &mut Vec<u8>) -> Action {
        let mut mem = MemoryHierarchy::skylake(1);
        let plan = ExecPlan::vanilla(MetadataModel::Copying);
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        ctx.state = pm_mem::Region {
            base: 0xc00,
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
                arrival: pm_sim::SimTime::ZERO,
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

    #[test]
    fn conn_entry_packs_round_trip() {
        for ps in [0, 1, 0x0123_4567_89ab_cdef, u64::MAX] {
            let e = ConnEntry {
                last: SimTime::from_ps(ps),
            };
            assert_eq!(e.pack().len(), ConnEntry::SIZE);
            assert_eq!(ConnEntry::unpack(&e.pack()), e);
        }
    }

    #[test]
    fn rule_parsing() {
        let r = parse_rule("allow src 10.0.0.0/8 proto tcp dport 80-443").unwrap();
        assert_eq!(r.verdict, Verdict::Allow);
        assert_eq!(r.src, Some((0x0a00_0000, 8)));
        assert_eq!(r.proto, Some(6));
        assert_eq!(r.dport, Some((80, 443)));
        assert!(parse_rule("frobnicate everything").is_err());
        assert!(parse_rule("allow src not.an.ip").is_err());
        assert!(parse_rule("allow dport 80-").is_err());
    }

    #[test]
    fn first_match_wins() {
        let mut el = filter("deny dst 192.168.0.0/16 proto tcp, allow proto tcp, deny proto udp");
        let mut blocked = PacketBuilder::tcp()
            .dst_ip([192, 168, 1, 1])
            .frame_len(128)
            .build();
        assert_eq!(run(&mut el, &mut blocked), Action::Drop);
        let mut ok = PacketBuilder::tcp()
            .dst_ip([8, 8, 8, 8])
            .frame_len(128)
            .build();
        assert_eq!(run(&mut el, &mut ok), Action::Forward(0));
        let mut udp = PacketBuilder::udp()
            .dst_ip([8, 8, 8, 8])
            .frame_len(128)
            .build();
        assert_eq!(run(&mut el, &mut udp), Action::Drop);
        assert_eq!(el.denied, 2);
    }

    #[test]
    fn port_ranges() {
        let mut el = filter("allow proto tcp dport 80-443");
        let mut http = PacketBuilder::tcp().dst_port(80).frame_len(128).build();
        assert_eq!(run(&mut el, &mut http), Action::Forward(0));
        let mut https = PacketBuilder::tcp().dst_port(443).frame_len(128).build();
        assert_eq!(run(&mut el, &mut https), Action::Forward(0));
        let mut ssh = PacketBuilder::tcp().dst_port(22).frame_len(128).build();
        assert_eq!(run(&mut el, &mut ssh), Action::Drop, "default deny");
    }

    #[test]
    fn icmp_matchable_without_ports() {
        let mut el = filter("allow proto icmp");
        let mut ping = PacketBuilder::icmp().frame_len(128).build();
        assert_eq!(run(&mut el, &mut ping), Action::Forward(0));
        let mut el2 = filter("allow proto icmp dport 80");
        let mut ping2 = PacketBuilder::icmp().frame_len(128).build();
        assert_eq!(
            run(&mut el2, &mut ping2),
            Action::Drop,
            "port rule can't match icmp"
        );
    }

    #[test]
    fn scanning_charges_per_rule() {
        let mut big = filter(
            "deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst 3.0.0.0/8, \
             deny dst 4.0.0.0/8, allow proto tcp",
        );
        let mut mem = MemoryHierarchy::skylake(1);
        let plan = ExecPlan::vanilla(MetadataModel::Copying);
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        ctx.state = pm_mem::Region {
            base: 0xc00,
            size: 64,
        };
        let mut f = PacketBuilder::tcp()
            .dst_ip([8, 8, 8, 8])
            .frame_len(128)
            .build();
        let len = f.len();
        let mut pkt = Pkt {
            data: &mut f,
            len,
            desc: RxDesc {
                buf_id: 0,
                len: len as u32,
                rss_hash: 0,
                arrival: pm_sim::SimTime::ZERO,
                gen: pm_sim::SimTime::ZERO,
                seq: 0,
                data_addr: 0x10_000,
                meta_addr: 0x20_000,
                xslot: None,
            },
            meta_addr: 0x20_000,
            annos: Annos::default(),
        };
        let a = big.process(&mut ctx, &mut pkt);
        assert_eq!(a, Action::Forward(0));
        // Five rules scanned: ≥ 5 charged loads + per-rule compute.
        assert!(ctx.cost.instructions >= 5 * 7);
    }

    #[test]
    fn empty_ruleset_rejected() {
        let mut el = IpFilter::default();
        assert!(el.configure(&Args::parse("")).is_err());
        // Policy keywords alone don't make a ruleset either.
        let mut el = IpFilter::default();
        assert!(el.configure(&Args::parse("CONNTRACK 64")).is_err());
    }

    fn run_at(el: &mut IpFilter, frame: &mut Vec<u8>, arrival: SimTime) -> Action {
        let mut mem = MemoryHierarchy::skylake(1);
        let plan = ExecPlan::vanilla(MetadataModel::Copying);
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        ctx.state = pm_mem::Region {
            base: 0xc00,
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

    #[test]
    fn conntrack_caches_allow_but_not_deny() {
        let mut el = filter("CONNTRACK 256, allow proto tcp dport 80, deny proto tcp");
        let mut http = PacketBuilder::tcp().dst_port(80).frame_len(128).build();
        assert_eq!(run(&mut el, &mut http), Action::Forward(0));
        assert_eq!(el.insertions, 1, "allow verdict cached");
        assert_eq!(el.hits, 0);
        let mut http2 = PacketBuilder::tcp().dst_port(80).frame_len(128).build();
        assert_eq!(run(&mut el, &mut http2), Action::Forward(0));
        assert_eq!(el.hits, 1, "second packet hits the cache");
        let mut ssh = PacketBuilder::tcp().dst_port(22).frame_len(128).build();
        assert_eq!(run(&mut el, &mut ssh), Action::Drop);
        assert_eq!(run(&mut el, &mut ssh.clone()), Action::Drop);
        assert_eq!(el.insertions, 1, "deny verdicts stay uncached");
        let stats = el.table_stats().unwrap();
        assert_eq!(stats.kind, "cuckoo");
        assert_eq!(stats.occupancy, 1);
        assert_eq!(el.table_regions().len(), 1);
    }

    #[test]
    fn conntrack_idle_timeout_rescans() {
        let mut el = filter("CONNTRACK 256, IDLE_US 10, allow proto tcp dport 80");
        let mk = || PacketBuilder::tcp().dst_port(80).frame_len(128).build();
        assert_eq!(
            run_at(&mut el, &mut mk(), SimTime::ZERO),
            Action::Forward(0)
        );
        assert_eq!(
            run_at(&mut el, &mut mk(), SimTime::from_us(5.0)),
            Action::Forward(0)
        );
        assert_eq!(el.hits, 1);
        assert_eq!(el.expiries, 0);
        assert_eq!(
            run_at(&mut el, &mut mk(), SimTime::from_us(100.0)),
            Action::Forward(0)
        );
        assert_eq!(el.expiries, 1, "stale entry expired");
        assert_eq!(el.insertions, 2, "re-scanned and re-cached");
    }

    #[test]
    fn stateless_filter_reports_no_table() {
        let mut el = filter("allow proto tcp");
        let mut f = PacketBuilder::tcp().frame_len(128).build();
        run(&mut el, &mut f);
        assert!(el.table_stats().is_none());
        assert!(el.table_regions().is_empty());
    }
}
