//! Traffic synthesis and replay for PacketMill-rs.
//!
//! The paper evaluates with (i) a 28-minute campus trace (mean packet
//! size 981 B, replayed at line rate) that GDPR keeps private — even the
//! authors' artifact substitutes synthetic traffic — and (ii) fixed-size
//! synthetic traces. This crate synthesizes both:
//!
//! * [`TrafficProfile::CampusMix`] — a flow-structured mixture calibrated
//!   to the trace's two published properties: **mean frame size ≈ 981 B**
//!   (bimodal small-ACK / MTU-data mixture) and **flow diversity**
//!   (Zipf-popular TCP/UDP/ICMP/ARP flows over routable prefixes), which
//!   is what the router's LPM, the NAT's flow table, and RSS care about.
//! * [`TrafficProfile::FixedSize`] — fixed-size frames for the packet-size
//!   sweeps (Figs. 6 and 11).
//!
//! [`Trace::replay`] paces arrivals at an offered load, modelling the
//! generator server of the paper's testbed. [`pcap`] loads standard
//! `.pcap` captures for replaying *your own* traces through the
//! simulated testbed, and saves synthesized ones for wireshark/tcpdump.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pcap;
pub mod synth;
pub mod workload;
pub mod zipf;

pub use pcap::{read_pcap, write_pcap, PcapError};
pub use synth::{cache_counts, CacheCounts, Trace, TraceConfig, TrafficProfile};
pub use workload::{
    AttackEvent, AttackKind, FramePlan, SizeModel, Workload, WorkloadSpec, WorkloadSpecError,
    WorkloadStats,
};
pub use zipf::Zipf;
