//! Property-based tests (proptest) over the core data structures and
//! invariants: LPM trie vs brute force, cuckoo map vs `HashMap`,
//! incremental vs full checksums, config-parser round-trips, cache
//! simulator invariants, layout reordering, and histogram percentiles.

use proptest::prelude::*;

mod lpm {
    use super::*;
    use pm_elements::trie::{RadixTrie, Route};

    fn brute_force(prefixes: &[(u32, u8, u16)], ip: u32) -> Option<u16> {
        prefixes
            .iter()
            .filter(|&&(p, l, _)| {
                let mask = if l == 0 {
                    0
                } else {
                    u32::MAX << (32 - u32::from(l))
                };
                ip & mask == p & mask
            })
            .max_by_key(|&&(_, l, _)| l)
            .map(|&(_, _, port)| port)
    }

    proptest! {
        /// The radix trie agrees with a brute-force longest-prefix scan
        /// for arbitrary route tables and lookups.
        #[test]
        fn trie_matches_brute_force(
            routes in proptest::collection::vec((any::<u32>(), 0u8..=32, any::<u16>()), 1..40),
            ips in proptest::collection::vec(any::<u32>(), 1..60),
        ) {
            // Deduplicate (prefix, len) pairs keeping the LAST (insert
            // replaces) — align the model accordingly.
            let mut t = RadixTrie::new();
            let mut canonical: Vec<(u32, u8, u16)> = Vec::new();
            for &(p, l, port) in &routes {
                let mask = if l == 0 { 0 } else { u32::MAX << (32 - u32::from(l)) };
                let key = (p & mask, l);
                canonical.retain(|&(cp, cl, _)| (cp, cl) != key);
                canonical.push((p & mask, l, port));
                t.insert(p, l, Route { port, gateway: 0 });
            }
            for ip in ips {
                prop_assert_eq!(
                    t.lookup(ip).map(|r| r.port),
                    brute_force(&canonical, ip),
                    "ip {:#x}", ip
                );
            }
        }
    }
}

mod cuckoo {
    use super::*;
    use pm_elements::cuckoo::{CuckooHash, InsertOutcome};
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        Lookup(u16),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 512, v)),
            any::<u16>().prop_map(|k| Op::Remove(k % 512)),
            any::<u16>().prop_map(|k| Op::Lookup(k % 512)),
        ]
    }

    proptest! {
        /// The cuckoo table behaves like `HashMap` for arbitrary
        /// operation sequences (sized so it never fills).
        #[test]
        fn cuckoo_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut c: CuckooHash<u16, u32> = CuckooHash::new(512); // 2048 slots
            let mut m: HashMap<u16, u32> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_ne!(c.insert(k, v), InsertOutcome::Full);
                        m.insert(k, v);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(c.remove(&k), m.remove(&k));
                    }
                    Op::Lookup(k) => {
                        prop_assert_eq!(c.lookup(&k), m.get(&k).copied());
                    }
                }
                prop_assert_eq!(c.len(), m.len());
            }
        }
    }
}

mod checksum {
    use super::*;
    use pm_packet::checksum::{checksum, update16, update32};

    proptest! {
        /// RFC 1624 incremental updates agree with full recomputation for
        /// arbitrary buffers and 16-bit field rewrites.
        #[test]
        fn incremental16_equals_recompute(
            mut data in proptest::collection::vec(any::<u8>(), 2..256),
            off in any::<proptest::sample::Index>(),
            new in any::<u16>(),
        ) {
            let off = (off.index(data.len() - 1)) & !1; // word-aligned
            let before = checksum(&data);
            let old = u16::from_be_bytes([data[off], data[off + 1]]);
            data[off..off + 2].copy_from_slice(&new.to_be_bytes());
            prop_assert_eq!(update16(before, old, new), checksum(&data));
        }

        /// Same for 32-bit rewrites (NAT address rewriting).
        #[test]
        fn incremental32_equals_recompute(
            mut data in proptest::collection::vec(any::<u8>(), 4..256),
            off in any::<proptest::sample::Index>(),
            new in any::<u32>(),
        ) {
            let off = (off.index(data.len() - 3)) & !1;
            let before = checksum(&data);
            let old = u32::from_be_bytes([data[off], data[off+1], data[off+2], data[off+3]]);
            data[off..off + 4].copy_from_slice(&new.to_be_bytes());
            prop_assert_eq!(update32(before, old, new), checksum(&data));
        }
    }
}

mod parser {
    use super::*;
    use packetmill::ConfigGraph;

    fn ident() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
    }

    proptest! {
        /// parse(pretty(parse(text))) is a fixpoint: re-parsing the
        /// pretty-printed configuration reproduces the same structure.
        #[test]
        fn pretty_print_round_trip(
            names in proptest::collection::hash_set(ident(), 2..8),
            bursts in proptest::collection::vec(1u32..256, 2..8),
        ) {
            let names: Vec<String> = names.into_iter().collect();
            let mut text = String::new();
            for (i, n) in names.iter().enumerate() {
                let burst = bursts[i % bursts.len()];
                text.push_str(&format!("{n} :: Null(BURST {burst});\n"));
            }
            // Chain them all.
            text.push_str(&names.join(" -> "));
            text.push(';');

            let g1 = ConfigGraph::parse(&text).unwrap();
            let g2 = ConfigGraph::parse(&g1.to_click()).unwrap();
            prop_assert_eq!(g1.declarations.len(), g2.declarations.len());
            prop_assert_eq!(g1.connections.len(), g2.connections.len());
            for (a, b) in g1.declarations.iter().zip(&g2.declarations) {
                prop_assert_eq!(&a.name, &b.name);
                prop_assert_eq!(&a.class, &b.class);
                prop_assert_eq!(&a.args, &b.args);
            }
        }
    }
}

mod cache {
    use super::*;
    use pm_mem::{AccessKind, MemoryHierarchy};

    proptest! {
        /// Temporal locality invariant: any address accessed twice in
        /// immediate succession hits L1 the second time (zero uncore
        /// stall), regardless of history. Lines come from the first
        /// 256 MiB: `access` takes addresses an `AddressSpace` can mint
        /// (below `ADDR_LIMIT`), and the resident filter's bitmap grows
        /// to the highest line it has seen.
        #[test]
        fn repeat_access_hits(
            history in proptest::collection::vec(0u32..1 << 22, 0..200),
            addr in 0u32..1 << 22,
        ) {
            let mut m = MemoryHierarchy::skylake(1);
            for h in history {
                m.access(0, u64::from(h) * 64, 8, AccessKind::Load);
            }
            m.access(0, u64::from(addr) * 64, 8, AccessKind::Load);
            let c = m.access(0, u64::from(addr) * 64, 8, AccessKind::Load);
            prop_assert_eq!(c.uncore_ns, 0.0);
            prop_assert!(c.cycles <= 1.0, "L1 hit expected, stall {}", c.cycles);
        }

        /// Counter monotonicity and consistency: misses never exceed
        /// loads at any level.
        #[test]
        fn counters_consistent(ops in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..300)) {
            let mut m = MemoryHierarchy::skylake(1);
            for (a, is_load) in ops {
                let kind = if is_load { AccessKind::Load } else { AccessKind::Store };
                m.access(0, u64::from(a), 8, kind);
            }
            let c = m.counters();
            prop_assert!(c.l1d_load_misses <= c.loads);
            prop_assert!(c.llc_loads <= c.l1d_load_misses);
            prop_assert!(c.llc_load_misses <= c.llc_loads);
            prop_assert!(c.llc_store_misses <= c.llc_stores);
            prop_assert!(c.llc_stores <= c.stores);
        }
    }
}

mod layout {
    use super::*;
    use packetmill::ExecPlan;
    use pm_dpdk::MetadataModel;

    proptest! {
        /// Reordering the Packet layout by any field subset preserves the
        /// field set, keeps offsets non-overlapping, and respects natural
        /// alignment.
        #[test]
        fn reorder_preserves_validity(pick in proptest::collection::vec(any::<proptest::sample::Index>(), 0..8)) {
            let base = ExecPlan::vanilla(MetadataModel::Copying).packet_layout;
            let names: Vec<&'static str> = base.fields().iter().map(|f| f.name).collect();
            let mut order: Vec<&'static str> = Vec::new();
            for idx in pick {
                let n = names[idx.index(names.len())];
                if !order.contains(&n) {
                    order.push(n);
                }
            }
            let r = base.reordered(&order);

            // Same field set.
            let mut a: Vec<&str> = base.fields().iter().map(|f| f.name).collect();
            let mut b: Vec<&str> = r.fields().iter().map(|f| f.name).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);

            // Alignment + non-overlap.
            let mut spans: Vec<(u32, u32)> = r
                .fields()
                .iter()
                .map(|f| (f.offset, f.offset + f.size))
                .collect();
            for f in r.fields() {
                prop_assert_eq!(f.offset % f.size, 0, "field {} misaligned", f.name);
            }
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
            }

            // Requested fields lead the layout in order.
            for (i, n) in order.iter().enumerate() {
                prop_assert_eq!(r.fields()[i].name, *n);
            }
        }
    }
}

mod histogram {
    use super::*;
    use pm_telemetry::LatencyHistogram;

    proptest! {
        /// Percentiles are monotone in p and bounded by min/max, for any
        /// recorded sample set.
        #[test]
        fn percentiles_monotone_and_bounded(values in proptest::collection::vec(1u64..1_000_000_000, 1..400)) {
            let mut h = LatencyHistogram::new();
            let max = *values.iter().max().unwrap();
            for &v in &values {
                h.record(v);
            }
            let mut last = 0;
            for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let q = h.percentile(p);
                prop_assert!(q >= last, "p{p} decreased");
                prop_assert!(q <= max, "p{p} exceeds max");
                last = q;
            }
            prop_assert_eq!(h.count(), values.len() as u64);
        }
    }
}

mod packets {
    use super::*;
    use pm_packet::builder::PacketBuilder;
    use pm_packet::ipv4::Ipv4Header;

    proptest! {
        /// Every frame the builder produces parses back with a valid IP
        /// checksum, the requested addressing, and the exact length.
        #[test]
        fn built_frames_are_valid(
            src in any::<[u8; 4]>(),
            dst in any::<[u8; 4]>(),
            sport in any::<u16>(),
            dport in any::<u16>(),
            size in 64usize..=1500,
            tcp in any::<bool>(),
        ) {
            let b = if tcp { PacketBuilder::tcp() } else { PacketBuilder::udp() };
            let f = b.src_ip(src).dst_ip(dst).src_port(sport).dst_port(dport)
                .frame_len(size).build();
            prop_assert_eq!(f.len(), size);
            let ip = Ipv4Header::parse(&f[14..]).unwrap();
            prop_assert!(ip.verify_checksum(&f[14..]));
            prop_assert_eq!(ip.src, src);
            prop_assert_eq!(ip.dst, dst);
        }

        /// TTL decrement chains keep the checksum valid down to zero.
        #[test]
        fn ttl_chain_checksum_valid(ttl in 1u8..=64, dst in any::<[u8; 4]>()) {
            let mut f = PacketBuilder::udp().dst_ip(dst).ttl(ttl).frame_len(128).build();
            for expect in (0..ttl).rev() {
                let got = pm_packet::ipv4::dec_ttl_in_place(&mut f[14..]);
                prop_assert_eq!(got, Some(expect));
                let ip = Ipv4Header::parse(&f[14..]).unwrap();
                prop_assert!(ip.verify_checksum(&f[14..]));
            }
        }
    }
}

mod rings {
    use super::*;
    use pm_mem::AddressSpace;
    use pm_nic::{Completion, PostedBuffer, RxRing};
    use pm_sim::SimTime;

    proptest! {
        /// The RX ring preserves FIFO order and never exceeds its
        /// capacity for arbitrary interleavings of post / take+complete /
        /// reap operations.
        #[test]
        fn rx_ring_fifo_and_bounded(ops in proptest::collection::vec(0u8..3, 1..300)) {
            let mut space = AddressSpace::new();
            let mut ring = RxRing::new(&mut space, 16);
            let mut next_buf = 0u32;
            let mut next_seq = 0u64;
            let mut expected_reap = std::collections::VecDeque::new();
            for op in ops {
                match op {
                    0 => {
                        if ring.post(PostedBuffer { buf_id: next_buf, data_addr: 0 }) {
                            next_buf += 1;
                        }
                    }
                    1 => {
                        if let Some(b) = ring.take_posted() {
                            ring.push_completion(Completion {
                                buf_id: b.buf_id,
                                data_addr: b.data_addr,
                                len: 64,
                                rss_hash: 0,
                                arrival: SimTime::from_ns(next_seq as f64),
                                gen: SimTime::from_ns(next_seq as f64),
                                seq: next_seq,
                                desc_addr: 0,
                            });
                            expected_reap.push_back(next_seq);
                            next_seq += 1;
                        }
                    }
                    _ => {
                        for c in ring.reap(4) {
                            let want = expected_reap.pop_front();
                            prop_assert_eq!(Some(c.seq), want, "FIFO violated");
                        }
                    }
                }
                prop_assert!(
                    ring.posted_count() + ring.pending_completions() <= 16,
                    "capacity exceeded"
                );
            }
        }
    }
}

mod replay {
    use super::*;
    use packetmill::{Trace, TraceConfig, TrafficProfile};
    use pm_sim::SimTime;
    use pm_traffic::wire_gap;

    proptest! {
        /// Arrivals spaced by `wire_gap` are strictly ordered and track
        /// the offered rate within rounding, for any rate and packet
        /// count, over a trace replayed cyclically.
        #[test]
        fn replay_paces_correctly(
            gbps in 1.0f64..400.0,
            n in 2usize..200,
            size in 64usize..1500,
        ) {
            let t = Trace::synthesize(&TraceConfig {
                packets: 32,
                profile: TrafficProfile::FixedSize(size),
                ..TraceConfig::default()
            });
            let times: Vec<SimTime> = (0..n)
                .scan(SimTime::ZERO, |at, i| {
                    let now = *at;
                    *at += wire_gap(t.frame_len(i), gbps);
                    Some(now)
                })
                .collect();
            prop_assert!(times.windows(2).all(|w| w[0] < w[1]));
            let expect_ns = ((size + 20) * 8) as f64 / gbps;
            let gap = (times[n - 1] - times[0]).as_ns() / (n - 1) as f64;
            prop_assert!(
                (gap - expect_ns).abs() < 1.0,
                "gap {gap:.2} vs expected {expect_ns:.2}"
            );
        }
    }
}

mod lossless {
    use super::*;
    use packetmill::{Trace, TraceConfig, TrafficProfile, Workload, WorkloadSpec};
    use pm_packet::builder::PacketBuilder;
    use pm_packet::checksum::{fold, pseudo_header_sum, sum_fill, sum_words};
    use pm_packet::ether::{EtherHeader, EtherType, ETHER_LEN};
    use pm_packet::icmp::IcmpHeader;
    use pm_packet::ipv4::{IpProto, Ipv4Header};

    /// Frame `i` of `t` through [`Trace::copy_frame`].
    fn copied(t: &Trace, i: usize) -> Vec<u8> {
        let mut f = vec![0; t.frame_len(i)];
        assert_eq!(t.copy_frame(i, &mut f), f.len());
        f
    }

    /// Checks an IPv4 frame's IPv4 and L4 checksums and returns the
    /// range of its L4 payload.
    fn verify_ip_frame(f: &[u8]) -> std::ops::Range<usize> {
        let ip = Ipv4Header::parse(&f[ETHER_LEN..]).expect("IPv4 parses");
        assert!(ip.verify_checksum(&f[ETHER_LEN..]), "IPv4 checksum");
        let t = ETHER_LEN + ip.header_len;
        let end = ETHER_LEN + ip.total_len as usize;
        let seg = &f[t..end];
        let (hdr, proto) = match ip.protocol {
            IpProto::TCP => (20, 6),
            IpProto::UDP => (8, 17),
            IpProto::ICMP => {
                let icmp = IcmpHeader::parse(seg).expect("ICMP parses");
                assert!(icmp.verify_checksum(seg, seg.len()), "ICMP checksum");
                return t + 8..end;
            }
            p => panic!("unexpected protocol {p:?}"),
        };
        let acc = pseudo_header_sum(ip.src, ip.dst, proto, seg.len() as u16);
        assert_eq!(fold(sum_words(seg, acc)), 0xffff, "L4 checksum");
        t + hdr..end
    }

    proptest! {
        /// The closed-form fill sum is the byte-by-byte sum.
        #[test]
        fn sum_fill_is_sum_words(b in any::<u8>(), n in 0usize..2000, acc in 0u32..(1 << 24)) {
            prop_assert_eq!(sum_fill(b, n, acc), sum_words(&vec![b; n], acc));
        }

        /// Every builder setting yields a frame that parses, verifies its
        /// checksums and carries the payload byte in every payload byte
        /// (zeros for ARP, whose padding-to-length is zero).
        #[test]
        fn built_frames_verify(
            kind in 0u8..4,
            payload_len in 0usize..1500,
            payload_byte in any::<u8>(),
            padding in any::<bool>(),
        ) {
            let b = match kind {
                0 => PacketBuilder::tcp(),
                1 => PacketBuilder::udp(),
                2 => PacketBuilder::icmp(),
                _ => PacketBuilder::arp(),
            };
            let b = b.payload_len(payload_len).payload_byte(payload_byte);
            let b = if padding { b } else { b.no_padding() };
            let f = b.build();
            prop_assert!(!padding || f.len() >= 60, "padded to the minimum frame");
            let eth = EtherHeader::parse(&f).expect("Ethernet parses");
            let payload = if eth.ethertype == EtherType::ARP {
                prop_assert_eq!(kind, 3);
                42..42 + payload_len
            } else {
                verify_ip_frame(&f)
            };
            let expect = if kind == 3 { 0 } else { payload_byte };
            prop_assert_eq!(payload.len(), payload_len);
            prop_assert!(f[payload.clone()].iter().all(|&x| x == expect), "payload bytes");
            prop_assert!(f[payload.end..].iter().all(|&x| x == 0), "zero padding");
            // The head plus its fill run is the same frame.
            let mut head = Vec::new();
            let (fill, len) = b.build_head(&mut head);
            head.resize(len, fill);
            prop_assert_eq!(head, f);
        }
    }

    /// Each frame of a synthesized trace, read back through
    /// `copy_frame`, is what `PacketBuilder::build` makes from the
    /// settings its headers show (the synthesizer numbers frames by
    /// index): campus mixes with ARP frames padded to 60 B, and every
    /// fixed size.
    #[test]
    fn synthesized_traces_copy_out_as_built() {
        let profiles = [
            TrafficProfile::CampusMix,
            TrafficProfile::FixedSize(64),
            TrafficProfile::FixedSize(576),
            TrafficProfile::FixedSize(1500),
        ];
        let mut arp = 0;
        for profile in profiles {
            let t = Trace::synthesize(&TraceConfig {
                packets: 3_000,
                profile,
                ..TraceConfig::default()
            });
            for i in 0..t.len() {
                let f = copied(&t, i);
                if EtherHeader::parse(&f).unwrap().ethertype == EtherType::ARP {
                    let sender = [f[28], f[29], f[30], f[31]];
                    let want = PacketBuilder::arp().src_ip(sender).dst_ip([10, 0, 0, 254]);
                    assert_eq!(f, want.build(), "ARP frame {i}");
                    assert_eq!(f.len(), 60);
                    arp += 1;
                    continue;
                }
                let ip = Ipv4Header::parse(&f[ETHER_LEN..]).unwrap();
                let l4 = &f[ETHER_LEN + 20..];
                let b = match ip.protocol {
                    IpProto::TCP => PacketBuilder::tcp(),
                    IpProto::UDP => PacketBuilder::udp(),
                    _ => PacketBuilder::icmp(),
                };
                let want = b
                    .src_ip(ip.src)
                    .dst_ip(ip.dst)
                    .src_port(u16::from_be_bytes([l4[0], l4[1]]))
                    .dst_port(u16::from_be_bytes([l4[2], l4[3]]))
                    .ttl(64)
                    .seq(i as u32)
                    .frame_len(f.len());
                assert_eq!(f, want.build(), "{profile:?} frame {i}");
            }
        }
        assert!(arp > 0, "the campus trace holds ARP frames");
    }

    /// Each frame of a workload trace, read back through `copy_frame`,
    /// is `Workload::build_frame`'s, for campus and fixed sizes with
    /// SYN-flood and port-scan frames mixed in.
    #[test]
    fn workload_traces_copy_out_as_built() {
        for size in ["campus", "64", "576", "1500"] {
            let spec = format!(
                "seed=0x10551E55;flows=3000;zipf=1.1;life=700;frames=2500;size={size};\
                 syn@300..900:rate=0.3;scan@..:rate=0.05"
            );
            let w = Workload::new(WorkloadSpec::parse(&spec).unwrap());
            let t = Trace::from_workload(&w);
            let stats = t.workload_stats().unwrap();
            assert!(stats.syn_frames > 0 && stats.scan_frames > 0, "{spec}");
            for i in 0..t.len() {
                assert_eq!(copied(&t, i), w.build_frame(i as u64), "{spec}: frame {i}");
            }
        }
    }
}

mod mtf_cache {
    use super::*;
    use pm_integration_tests::ClassicSetAssocCache;
    use pm_mem::{CacheParams, SetAssocCache};

    /// One scripted operation against both cache models.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `access_way_range(addr, lo, hi)` — covers `access` (full
        /// range) and `access_ways` (prefix range) as special cases.
        Access {
            addr: u64,
            lo: usize,
            hi: usize,
        },
        Invalidate(u64),
        Probe(u64),
        Flush,
    }

    /// Decodes a raw tuple into an op over a deliberately tiny address
    /// space (64 lines onto 16 sets × 4 ways) so every set sees hits,
    /// empty fills, victim evictions, and way-range interplay.
    fn decode(sel: u8, addr: u16, lohi: u8, assoc: usize) -> Op {
        let addr = u64::from(addr % 64) * 64;
        let lo = usize::from(lohi) % assoc;
        let hi = lo + 1 + usize::from(lohi / 16) % (assoc - lo);
        match sel % 8 {
            0 => Op::Invalidate(addr),
            1 => Op::Probe(addr),
            2 => Op::Flush,
            _ => Op::Access { addr, lo, hi },
        }
    }

    proptest! {
        /// Lock-step equivalence: the packed move-to-front cache and the
        /// classic per-way-metadata reference agree on every hit/miss,
        /// every evicted line, every probe, and the resident count, over
        /// arbitrary interleavings of ranged accesses, invalidates, and
        /// flushes.
        #[test]
        fn mtf_matches_classic(
            ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..400),
        ) {
            let p = CacheParams::new(4096, 4, 64); // 16 sets × 4 ways
            let mut fast = SetAssocCache::new(p);
            let mut slow = ClassicSetAssocCache::new(p);
            for (i, &(sel, addr, lohi)) in ops.iter().enumerate() {
                match decode(sel, addr, lohi, fast.assoc()) {
                    Op::Access { addr, lo, hi } => {
                        let a = fast.access_way_range(addr, lo, hi);
                        let b = slow.access_way_range(addr, lo, hi);
                        prop_assert_eq!(a, b, "op {}: access {:#x} ways {}..{}", i, addr, lo, hi);
                    }
                    Op::Invalidate(addr) => {
                        prop_assert_eq!(
                            fast.invalidate(addr),
                            slow.invalidate(addr),
                            "op {}: invalidate {:#x}", i, addr
                        );
                    }
                    Op::Probe(addr) => {
                        prop_assert_eq!(fast.probe(addr), slow.probe(addr), "op {}: probe {:#x}", i, addr);
                    }
                    Op::Flush => {
                        fast.flush();
                        slow.flush();
                    }
                }
                prop_assert_eq!(fast.resident_lines(), slow.resident_lines(), "op {}", i);
            }
        }
    }
}

mod access_programs {
    use super::*;
    use pm_mem::{
        AccessKind, AccessProgram, CacheParams, Cost, HierarchyParams, LatencyModel,
        MemoryHierarchy, ProgramBuilder, Region, SCOPE_RX,
    };

    /// Tiny two-core geometry (L1 512 B/2w, L2 2 KiB/2w, LLC 8 KiB/4w,
    /// DDIO 2 ways) so a few hundred random operations exercise every
    /// eviction and back-invalidation path.
    fn params() -> HierarchyParams {
        HierarchyParams {
            cores: 2,
            l1: CacheParams::new(512, 2, 64),
            l2: CacheParams::new(2048, 2, 64),
            llc: CacheParams::new(8192, 4, 64),
            ddio_ways: 2,
            lat: LatencyModel::default(),
        }
    }

    /// Base-address pool chosen so random scripts produce repeats
    /// (last-line / last-page memo hits), same-L1-set conflicts (stride
    /// 256), same-LLC-set conflicts (stride 2048), page crossings,
    /// touches inside the hugepage-backed region marked at setup
    /// (0x40_000..), and one unaligned base (0x30_010) that changes how
    /// a span straddles lines.
    const BASES: [u64; 10] = [
        0x0, 0x100, 0x800, 0x1000, 0x10_000, 0x10_800, 0x40_000, 0x41_000, 0x30_000, 0x30_010,
    ];

    const N_PROGS: usize = 5;

    /// A fixed program zoo covering the shapes the data plane compiles:
    /// dispatch and metadata programs, a wide payload span, a WQE-shaped
    /// sub-line store, and an offset-sensitive load whose line count
    /// flips between 1 and 2 on the unaligned base.
    fn programs() -> Vec<AccessProgram> {
        vec![
            ProgramBuilder::new()
                .prefetch(0, 0, 64)
                .load(0, 0, 32)
                .compute(18)
                .load(1, 0, 8)
                .build(),
            ProgramBuilder::new()
                .load(0, 0, 8)
                .store(0, 64, 8)
                .compute(4)
                .build(),
            ProgramBuilder::new()
                .load(0, 0, 1024)
                .compute(2)
                .store(1, 0, 64)
                .build(),
            ProgramBuilder::new().store(0, 0, 16).compute(7).build(),
            ProgramBuilder::new()
                .load(0, 0, 56)
                .compute(3)
                .load(1, 8, 112)
                .build(),
        ]
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Run {
            prog: usize,
            core: usize,
            b0: u64,
            b1: u64,
        },
        /// A burst resolved through `run_program_batch`: `n` rows whose
        /// bases stride from `(b0, b1)` — 16 B packs WQE-shaped rows
        /// four to a line, 64 B walks lines, 256 B aliases L1 sets (so a
        /// row can evict a predecessor's lines).
        RunBatch {
            prog: usize,
            core: usize,
            b0: u64,
            b1: u64,
            n: usize,
            stride: u64,
        },
        Access {
            core: usize,
            addr: u64,
            kind: AccessKind,
        },
        Prefetch {
            core: usize,
            addr: u64,
        },
        DmaWrite {
            addr: u64,
            len: u64,
        },
        Flush {
            core: usize,
        },
    }

    fn decode(sel: u8, a: u8, b: u8) -> Op {
        let core = usize::from(b & 1);
        let b0 = BASES[usize::from(a) % BASES.len()];
        let b1 = BASES[usize::from(b >> 1) % BASES.len()];
        match sel % 16 {
            0..=6 => Op::Run {
                prog: usize::from(sel >> 4) % N_PROGS,
                core,
                b0,
                b1,
            },
            7..=9 => Op::RunBatch {
                prog: usize::from(sel >> 4) % N_PROGS,
                core,
                b0,
                b1,
                n: usize::from(a % 7) + 2,
                stride: [16u64, 64, 256][usize::from(b >> 5) % 3],
            },
            10..=11 => Op::Access {
                core,
                addr: b0 + u64::from((b >> 1) & 3) * 64,
                kind: if b & 8 != 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
            },
            12 => Op::Prefetch { core, addr: b0 },
            13..=14 => Op::DmaWrite {
                addr: b0,
                len: 64 + u64::from(b & 3) * 64,
            },
            _ => Op::Flush { core },
        }
    }

    proptest! {
        /// Lock-step equivalence of the default resolver (tight walk,
        /// resident filter, batched attribution) against the reference
        /// per-call walk: over arbitrary interleavings of program runs,
        /// strided burst resolutions (`run_program_batch`), single
        /// accesses, prefetches, DMA invalidations, and private-cache
        /// flushes (which leave false positives in the resident filter)
        /// on two cores, every operation must return the bit-identical
        /// cost, the aggregate counters must match after every
        /// operation, and the final residency grid and per-scope
        /// attribution must be equal. This is the contract that makes
        /// invalidation-scan elision safe to ship under the
        /// byte-identical golden gate.
        #[test]
        fn batched_resolver_matches_reference_walk(
            script in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..250),
        ) {
            let progs = programs();
            prop_assert_eq!(progs.len(), N_PROGS);
            let mut fast = MemoryHierarchy::new(&params());
            let mut slow = MemoryHierarchy::with_reference_walk(&params());
            let mut scopes = Vec::new();
            for m in [&mut fast, &mut slow] {
                m.enable_attribution();
                m.mark_hugepages(Region { base: 0x40_000, size: 0x40_000 });
                scopes.push(m.register_scope("element"));
            }
            let (el_fast, el_slow) = (scopes[0], scopes[1]);
            for (i, &(sel, a, b)) in script.iter().enumerate() {
                // Flip the attribution scope periodically so per-scope
                // counter deltas are split at arbitrary points.
                if i % 16 == 8 {
                    fast.set_scope(el_fast);
                    slow.set_scope(el_slow);
                } else if i % 16 == 0 {
                    fast.set_scope(SCOPE_RX);
                    slow.set_scope(SCOPE_RX);
                }
                match decode(sel, a, b) {
                    Op::Run { prog, core, b0, b1 } => {
                        let p = &progs[prog];
                        let bases = [b0, b1];
                        let mut ca = Cost::ZERO;
                        let mut cb = Cost::ZERO;
                        fast.run_program(core, p, &bases, &mut ca);
                        slow.run_program(core, p, &bases, &mut cb);
                        prop_assert_eq!(
                            ca, cb,
                            "op {}: program {} core {} bases {:#x},{:#x}", i, prog, core, b0, b1
                        );
                    }
                    Op::RunBatch { prog, core, b0, b1, n, stride } => {
                        let p = &progs[prog];
                        let rows: Vec<[u64; 2]> = (0..n as u64)
                            .map(|k| [b0 + k * stride, b1 + k * stride])
                            .collect();
                        let mut ca = Cost::ZERO;
                        let mut cb = Cost::ZERO;
                        fast.run_program_batch(core, p, &rows, &mut ca);
                        slow.run_program_batch(core, p, &rows, &mut cb);
                        prop_assert_eq!(
                            ca, cb,
                            "op {}: batch prog {} core {} b0 {:#x} n {} stride {}",
                            i, prog, core, b0, n, stride
                        );
                    }
                    Op::Access { core, addr, kind } => {
                        let ca = fast.access(core, addr, 8, kind);
                        let cb = slow.access(core, addr, 8, kind);
                        prop_assert_eq!(ca, cb, "op {}: access {:#x} core {}", i, addr, core);
                    }
                    Op::Prefetch { core, addr } => {
                        let ca = fast.prefetch(core, addr, 64);
                        let cb = slow.prefetch(core, addr, 64);
                        prop_assert_eq!(ca, cb, "op {}: prefetch {:#x} core {}", i, addr, core);
                    }
                    Op::DmaWrite { addr, len } => {
                        fast.dma_write(addr, len);
                        slow.dma_write(addr, len);
                    }
                    Op::Flush { core } => {
                        fast.flush_private(core);
                        slow.flush_private(core);
                    }
                }
                prop_assert_eq!(fast.counters(), slow.counters(), "op {}", i);
            }
            // Final state: the residency grid over every base's first
            // lines and the per-scope attribution must agree exactly.
            for core in 0..2 {
                for &base in &BASES {
                    for line in 0..4u64 {
                        let addr = base + line * 64;
                        prop_assert_eq!(
                            fast.probe_level(core, addr),
                            slow.probe_level(core, addr),
                            "probe {:#x} core {}", addr, core
                        );
                    }
                }
            }
            prop_assert_eq!(fast.profile_records(), slow.profile_records());
        }
    }
}
