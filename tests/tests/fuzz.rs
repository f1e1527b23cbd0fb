//! Fuzz-style property tests: arbitrary truncated, bit-flipped, and
//! random bytes through every `pm-packet` parser and through complete NF
//! pipelines. The property under test is always the same — **malformed
//! input must never panic** — plus parse→build round-trips on valid
//! frames. `PROPTEST_CASES` bounds the per-property case count.

use pm_packet::builder::PacketBuilder;
use proptest::prelude::*;

/// One fuzzed frame: a well-formed builder frame deformed by wire-style
/// damage (truncation anywhere, bit flips anywhere), or raw noise.
#[derive(Debug, Clone)]
struct Fuzzed {
    bytes: Vec<u8>,
}

fn base_frame() -> impl Strategy<Value = Vec<u8>> {
    (0u8..4, 64usize..=1500, any::<[u8; 4]>(), any::<u16>()).prop_map(|(kind, size, ip, port)| {
        let b = match kind {
            0 => PacketBuilder::tcp(),
            1 => PacketBuilder::udp(),
            2 => PacketBuilder::icmp(),
            // ARP has no frame_len knob below 42 bytes; build as-is.
            _ => return PacketBuilder::arp().src_ip(ip).build(),
        };
        b.src_ip(ip).src_port(port).frame_len(size).build()
    })
}

fn fuzzed() -> impl Strategy<Value = Fuzzed> {
    let truncated = (base_frame(), any::<u16>()).prop_map(|(mut f, cut)| {
        f.truncate(usize::from(cut) % (f.len() + 1));
        Fuzzed { bytes: f }
    });
    let flipped = (
        base_frame(),
        proptest::collection::vec((any::<u16>(), 0u8..8), 1..16),
    )
        .prop_map(|(mut f, flips)| {
            for (pos, bit) in flips {
                let i = usize::from(pos) % f.len();
                f[i] ^= 1 << bit;
            }
            Fuzzed { bytes: f }
        });
    let noise = proptest::collection::vec(any::<u8>(), 0..128).prop_map(|bytes| Fuzzed { bytes });
    prop_oneof![truncated, flipped, noise]
}

mod parsers {
    use super::*;
    use pm_packet::arp::ArpPacket;
    use pm_packet::ether::EtherHeader;
    use pm_packet::icmp::IcmpHeader;
    use pm_packet::ipv4::Ipv4Header;
    use pm_packet::tcp::TcpHeader;
    use pm_packet::udp::UdpHeader;
    use pm_packet::vlan::{self, VlanTag};

    proptest! {
        /// Every parser tolerates arbitrary bytes at arbitrary offsets:
        /// it returns `Ok`/`Err`, never panics, and whatever it accepts
        /// supports its follow-up operations (checksum verification,
        /// L4 re-parsing at the declared header length).
        #[test]
        fn no_parser_panics_on_arbitrary_bytes(f in fuzzed()) {
            let b = &f.bytes[..];
            let _ = EtherHeader::parse(b);
            let _ = VlanTag::parse_frame(b);
            let l3 = b.get(14..).unwrap_or(&[]);
            let _ = ArpPacket::parse(l3);
            if let Ok(ip) = Ipv4Header::parse(l3) {
                // Parse promised the slice covers the declared header.
                let _ = ip.verify_checksum(l3);
                let l4 = &l3[ip.header_len..];
                let _ = TcpHeader::parse(l4);
                let _ = UdpHeader::parse(l4);
                let _ = IcmpHeader::parse(l4);
            }
            // Parsers must also cope with any starting offset, not just
            // the canonical header boundaries.
            for off in 0..b.len().min(4) {
                let s = &b[off..];
                let _ = TcpHeader::parse(s);
                let _ = UdpHeader::parse(s);
                let _ = IcmpHeader::parse(s);
            }
        }

        /// VLAN encap/decap accept arbitrary bytes and report malformed
        /// input as typed errors; a successful encap is decap-invertible.
        #[test]
        fn vlan_in_place_ops_never_panic(f in fuzzed()) {
            let len = f.bytes.len();
            let mut buf = f.bytes.clone();
            buf.resize(len + vlan::VLAN_TAG_LEN, 0);
            let tag = VlanTag::from_tci(0x6123, pm_packet::ether::EtherType::IPV4);
            if let Ok(tagged) = vlan::encap_in_place(&mut buf, len, tag) {
                prop_assert_eq!(tagged, len + vlan::VLAN_TAG_LEN);
                let parsed = VlanTag::parse_frame(&buf[..tagged]).unwrap();
                // The tag's PCP/DEI/VID go on the wire; the inner type is
                // whatever EtherType the frame already carried.
                prop_assert_eq!(parsed.tci(), tag.tci());
                let orig_type = u16::from_be_bytes([f.bytes[12], f.bytes[13]]);
                prop_assert_eq!(parsed.inner_type.0, orig_type);
                let restored = vlan::decap_in_place(&mut buf, tagged);
                prop_assert_eq!(restored, Ok(len));
                prop_assert_eq!(&buf[..len], &f.bytes[..]);
            }
            // Decap on the raw (possibly untagged, possibly tiny) bytes.
            let mut raw = f.bytes.clone();
            let _ = vlan::decap_in_place(&mut raw, len);
        }
    }
}

mod round_trip {
    use super::*;
    use pm_packet::arp::ArpPacket;
    use pm_packet::ether::EtherHeader;
    use pm_packet::icmp::IcmpHeader;
    use pm_packet::ipv4::Ipv4Header;
    use pm_packet::tcp::TcpHeader;
    use pm_packet::udp::UdpHeader;

    proptest! {
        /// parse→write→parse is the identity on every header the builder
        /// can produce, across the whole configuration space.
        #[test]
        fn headers_round_trip(
            kind in 0u8..4,
            size in 64usize..=1500,
            src in any::<[u8; 4]>(),
            dst in any::<[u8; 4]>(),
            sport in any::<u16>(),
            dport in any::<u16>(),
            ttl in 1u8..=255,
        ) {
            let frame = match kind {
                0 => PacketBuilder::tcp(),
                1 => PacketBuilder::udp(),
                2 => PacketBuilder::icmp(),
                _ => return Ok(()), // ARP is covered by arp_round_trips
            };
            let frame = frame
            .src_ip(src).dst_ip(dst).src_port(sport).dst_port(dport)
            .ttl(ttl).frame_len(size).build();

            let eth = EtherHeader::parse(&frame).unwrap();
            let mut eb = [0u8; 14];
            eth.write(&mut eb);
            prop_assert_eq!(EtherHeader::parse(&eb), Ok(eth));
            prop_assert_eq!(&eb[..], &frame[..14]);

            let ip = Ipv4Header::parse(&frame[14..]).unwrap();
            prop_assert!(ip.verify_checksum(&frame[14..]));
            let mut ib = vec![0u8; ip.header_len];
            ip.write(&mut ib);
            let rep = Ipv4Header::parse(&ib).unwrap();
            // `write` recomputes the checksum; everything else is equal.
            prop_assert_eq!(Ipv4Header { checksum: ip.checksum, ..rep }, ip);
            prop_assert!(rep.verify_checksum(&ib));

            let l4 = &frame[14 + ip.header_len..];
            match kind {
                0 => {
                    let t = TcpHeader::parse(l4).unwrap();
                    prop_assert_eq!((t.src_port, t.dst_port), (sport, dport));
                    let mut tb = vec![0u8; t.header_len];
                    t.write(&mut tb);
                    prop_assert_eq!(TcpHeader::parse(&tb), Ok(t));
                }
                1 => {
                    let u = UdpHeader::parse(l4).unwrap();
                    prop_assert_eq!((u.src_port, u.dst_port), (sport, dport));
                    let mut ub = vec![0u8; 8];
                    u.write(&mut ub);
                    prop_assert_eq!(UdpHeader::parse(&ub), Ok(u));
                }
                _ => {
                    let i = IcmpHeader::parse(l4).unwrap();
                    let mut ib = vec![0u8; l4.len()];
                    ib[8..].copy_from_slice(&l4[8..]);
                    i.write(&mut ib, 0, 0);
                    prop_assert_eq!(IcmpHeader::parse(&ib), Ok(i));
                }
            }
        }

        /// ARP request/reply structures survive write→parse unchanged.
        #[test]
        fn arp_round_trips(src in any::<[u8; 4]>(), dst in any::<[u8; 4]>()) {
            let frame = PacketBuilder::arp().src_ip(src).dst_ip(dst).build();
            let a = ArpPacket::parse(&frame[14..]).unwrap();
            prop_assert_eq!(a.sender_ip, src);
            prop_assert_eq!(a.target_ip, dst);
            let mut b = vec![0u8; 28];
            a.write(&mut b);
            prop_assert_eq!(ArpPacket::parse(&b), Ok(a));
        }
    }
}

/// A canonical spec string, then wire-style damage: truncation, splicing
/// in arbitrary bytes, or one byte changed.
fn damaged(canonical: impl Strategy<Value = String>) -> impl Strategy<Value = String> {
    (canonical, any::<u16>(), any::<u8>(), "[ -~]{0,8}").prop_map(|(mut s, pos, op, splice)| {
        let i = usize::from(pos) % s.len().max(1);
        match op % 3 {
            0 => s.truncate(i),
            1 => s.insert_str(i.min(s.len()), &splice),
            _ => {
                let mut b = s.into_bytes();
                if !b.is_empty() {
                    // Stay ASCII so byte indexing stays char-aligned.
                    let j = i % b.len();
                    b[j] = 32 + (b[j] ^ op) % 95;
                }
                s = String::from_utf8(b).expect("ascii");
            }
        }
        s
    })
}

mod workload_grammar {
    use super::*;
    use pm_traffic::{Workload, WorkloadSpec};

    /// Clause soup: mostly-plausible key/value fragments, attack
    /// windows, and raw noise, joined with the grammar's separators.
    /// (Bare string literals are the shim's literal-pattern strategy:
    /// each generates exactly itself.)
    fn spec_soup() -> impl Strategy<Value = String> {
        let key = prop_oneof![
            "seed", "flows", "zipf", "life", "frames", "size", "syn", "scan", "bogus", "",
        ];
        let val = prop_oneof![
            "0",
            "1k",
            "10M",
            "0x",
            "0xZZ",
            "99999999999999999999",
            "-3",
            "1.",
            "..",
            "campus",
            "@..:rate=",
            "[a-z0-9.@:=]{0,12}",
        ];
        let clause = prop_oneof![
            (key, val).prop_map(|(k, v)| format!("{k}={v}")),
            (
                prop_oneof!["syn", "scan", "x"],
                "[0-9]{0,6}",
                "[0-9]{0,6}",
                "[0-9.]{0,5}"
            )
                .prop_map(|(k, a, b, r)| format!("{k}@{a}..{b}:rate={r}")),
            "[ -~]{0,16}",
        ];
        proptest::collection::vec(clause, 0..8).prop_map(|cs| cs.join(";"))
    }

    /// A canonical valid spec, damaged.
    fn damaged_spec() -> impl Strategy<Value = String> {
        damaged(
            (any::<u64>(), 1u64..100_000, 0u32..3_000, 0u64..10_000).prop_map(
                |(seed, flows, zipf_x1000, life)| {
                    WorkloadSpec {
                        seed,
                        flows,
                        zipf_x1000,
                        life,
                        ..WorkloadSpec::default()
                    }
                    .to_spec()
                },
            ),
        )
    }

    proptest! {
        /// The `--workload` grammar never panics: any input yields
        /// either a parsed spec or a typed error, accepted specs honor
        /// the parse caps, and acceptance is stable through the
        /// canonical form.
        #[test]
        fn parse_never_panics_on_clause_soup(s in spec_soup()) {
            if let Ok(spec) = WorkloadSpec::parse(&s) {
                prop_assert!(spec.flows <= 50_000_000, "flows cap: {}", spec.flows);
                prop_assert!(spec.frames <= 4_000_000, "frames cap: {}", spec.frames);
                let canon = spec.to_spec();
                prop_assert_eq!(WorkloadSpec::parse(&canon), Ok(spec));
            } else {
                // Typed error with a message; the Display impl is what
                // `--workload` prints, so it must render too.
                let msg = WorkloadSpec::parse(&s).unwrap_err().to_string();
                prop_assert!(!msg.is_empty());
            }
        }

        /// Same property under damaged previously-valid specs, which
        /// keep the parser in the interesting near-miss region.
        #[test]
        fn parse_never_panics_on_damaged_specs(s in damaged_spec()) {
            if let Ok(spec) = WorkloadSpec::parse(&s) {
                let canon = spec.to_spec();
                prop_assert_eq!(WorkloadSpec::parse(&canon), Ok(spec));
            }
        }

        /// Whatever the parser accepts, the churn model must run: plans
        /// and stats never panic, and the conservation identity holds.
        #[test]
        fn accepted_specs_drive_the_churn_model(s in spec_soup(), n in 1u64..512) {
            if let Ok(spec) = WorkloadSpec::parse(&s) {
                let w = Workload::new(spec);
                for seq in 0..64 {
                    let _ = w.plan(seq);
                }
                let stats = w.stats(n);
                prop_assert!(stats.conserves(), "n={n}: {stats:?}");
            }
        }
    }
}

mod fault_grammar {
    use super::*;
    use pm_sim::fault::FaultKind;
    use pm_sim::{FaultPlan, SimTime};

    /// A window endpoint: open, whole and fractional times in every
    /// unit (integers past `f64`'s exact range too), or noise.
    fn time() -> impl Strategy<Value = String> {
        prop_oneof![
            "",
            "",
            "[0-9]{1,22}[pnum]s",
            "[0-9]{1,3}.[0-9]{1,4}[num]s",
            "[0-9]{1,3}s",
            "[ -~]{0,4}",
        ]
    }

    /// An event clause: each kind mostly with its own parameters, over
    /// those endpoints, or a made-up kind with noise.
    fn event() -> impl Strategy<Value = String> {
        let kind_params = prop_oneof![
            ("bitflip", "rate=[0-9]{1,7}ppm"),
            ("trunc", "rate=0.[0-9]{1,4}"),
            ("drop", "rate=[0-9.]{1,5}"),
            ("flap", ""),
            ("pool", ""),
            ("slow", "element=[A-Za-z@0-9]{1,6},factor=[1-9].[0-9]{0,3}"),
            ("bitflip", "[ -~]{0,8}"),
            ("[a-z]{0,6}", "[ -~]{0,8}"),
        ];
        (kind_params, time(), time()).prop_map(|((k, p), a, b)| format!("{k}@{a}..{b}:{p}"))
    }

    /// Clause soup: mostly events, plus `seed=` and other scalars and
    /// raw noise.
    fn spec_soup() -> impl Strategy<Value = String> {
        let clause = prop_oneof![
            event(),
            event(),
            event(),
            event(),
            "seed=[0-9]{1,20}",
            "seed=0x[0-9A-Fa-z]{0,16}",
            "[a-z]{0,5}=[0-9]{0,3}",
            "[ -~]{0,16}"
        ];
        proptest::collection::vec(clause, 0..4).prop_map(|cs| cs.join(";"))
    }

    /// Any valid plan: every kind, endpoints of every magnitude up to
    /// `u64::MAX - 1` picoseconds (whole nanoseconds half the time),
    /// open and closed ends.
    fn plan() -> impl Strategy<Value = FaultPlan> {
        let event = (0u8..6, any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(k, a, b, x)| {
            let mut from = (a >> (x % 64)).min(u64::MAX - 1);
            if x & 64 != 0 {
                from -= from % 1000;
            }
            let until = if x & 128 != 0 {
                u64::MAX
            } else {
                from.saturating_add(1 + (b >> (b % 64)))
            };
            let rate_ppm = x % 1_000_001;
            let kind = match k {
                0 => FaultKind::BitFlip { rate_ppm },
                1 => FaultKind::Truncate { rate_ppm },
                2 => FaultKind::DescDrop { rate_ppm },
                3 => FaultKind::LinkFlap,
                4 => FaultKind::PoolExhaust,
                _ => FaultKind::Slowdown {
                    element: ["Null", "Null@3", "rt", "IPFilter"][x as usize % 4].to_string(),
                    factor_x1000: 1_000 + x % 100_000,
                },
            };
            (kind, SimTime::from_ps(from), SimTime::from_ps(until))
        });
        (any::<u64>(), proptest::collection::vec(event, 0..5)).prop_map(|(seed, events)| {
            events
                .into_iter()
                .fold(FaultPlan::new(seed), |p, (kind, from, until)| {
                    p.with(kind, from, until)
                })
        })
    }

    /// The fuzz property: a spec parses or renders a typed error, and an
    /// accepted plan reparses from its canonical form.
    fn check(s: &str) -> Result<(), proptest::TestCaseError> {
        match FaultPlan::parse(s) {
            Ok(plan) => prop_assert_eq!(FaultPlan::parse(&plan.to_spec()), Ok(plan)),
            // `--faults` prints the Display form.
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        Ok(())
    }

    proptest! {
        /// Every plan's canonical spec (what a run report records) parses
        /// back to the same plan — long windows included.
        #[test]
        fn canonical_spec_round_trips(p in plan()) {
            prop_assert_eq!(FaultPlan::parse(&p.to_spec()), Ok(p));
        }

        /// The `--faults` grammar never panics on clause soup.
        #[test]
        fn parse_never_panics_on_clause_soup(s in spec_soup()) {
            check(&s)?;
        }

        /// Nor on damaged canonical specs, the near-miss region.
        #[test]
        fn parse_never_panics_on_damaged_specs(s in damaged(plan().prop_map(|p| p.to_spec()))) {
            check(&s)?;
        }
    }
}

mod pipelines {
    use super::*;
    use packetmill::{
        standard_registry, ClickDataplane, ConfigGraph, Dataplane, ExecPlan, Graph, MetadataModel,
        Nf,
    };
    use pm_click::GraphRuntime;
    use pm_dpdk::RxDesc;
    use pm_mem::{AddressSpace, MemoryHierarchy};

    /// Room for a full-size frame plus VLAN-tag growth (the mbuf size
    /// the simulated mempool uses).
    const BUF: usize = 2176;

    fn dataplane(nf: &Nf) -> ClickDataplane {
        let cfg = ConfigGraph::parse(&nf.config_text()).expect("parse");
        let graph = Graph::build(&cfg, &standard_registry()).expect("build");
        let mut space = AddressSpace::new();
        ClickDataplane::new(
            GraphRuntime::new(graph, ExecPlan::vanilla(MetadataModel::Copying), &mut space),
            0,
            "fuzz",
        )
    }

    fn desc(seq: u64, len: usize) -> RxDesc {
        RxDesc {
            buf_id: (seq % 1024) as u32,
            len: len as u32,
            rss_hash: 0,
            arrival: pm_sim::SimTime::ZERO,
            gen: pm_sim::SimTime::ZERO,
            seq,
            data_addr: 0x1_000_000 + (seq % 1024) * BUF as u64,
            meta_addr: 0x8_000_000 + (seq % 1024) * 256,
            xslot: None,
        }
    }

    proptest! {
        /// Every NF preset consumes arbitrary malformed frames without
        /// panicking: each packet is either forwarded (with a sane
        /// length) or dropped.
        #[test]
        fn nf_pipelines_never_panic(
            frames in proptest::collection::vec(fuzzed(), 1..24),
        ) {
            for nf in [Nf::Forwarder, Nf::Router, Nf::IdsRouter, Nf::Nat, Nf::Firewall] {
                let mut dp = dataplane(&nf);
                let mut mem = MemoryHierarchy::skylake(1);
                for (seq, f) in frames.iter().enumerate() {
                    let len = f.bytes.len().min(BUF - 4);
                    let mut buf = f.bytes[..len].to_vec();
                    buf.resize(BUF, 0);
                    let r = dp.process(0, &mut mem, &desc(seq as u64, len), &mut buf);
                    if let Some(out) = r.tx_len {
                        prop_assert!(out as usize <= BUF, "{nf:?} emitted {out} > buffer");
                    }
                }
            }
        }
    }
}
