//! A simulated 100-Gbps NIC for PacketMill-rs, modeled on the paper's
//! Mellanox ConnectX-5.
//!
//! The model covers exactly the NIC behaviours the evaluation depends on:
//!
//! * **Link serialization** ([`link::LinkModel`]) — 6.72 ns per 64-B frame
//!   at 100 Gbps including preamble + IFG; this sets the arrival pacing
//!   and the TX drain rate.
//! * **PCIe** ([`pcie::PcieModel`]) — effective x16 Gen3 bandwidth with
//!   per-packet TLP/descriptor overhead; this produces the paper's
//!   packets-per-second decline beyond ~800-B packets (Fig. 6).
//! * **DMA + DDIO** — packet data and completion descriptors are written
//!   through [`pm_mem::MemoryHierarchy::dma_write`], so received data is
//!   LLC-warm (or not, if DDIO ways thrash) when the core reads it.
//! * **RSS** ([`rss::Toeplitz`]) — the real Toeplitz hash over the IPv4
//!   5-tuple, used to spread flows over queues for the multicore NAT
//!   experiment (Fig. 10).
//! * **Descriptor rings** ([`ring::RxRing`], [`ring::TxRing`]) — the PMD
//!   posts receive buffers and reaps completions exactly as a real poll
//!   mode driver does; ring exhaustion is the NIC drop point, which is
//!   what bends the latency/throughput curve of Fig. 1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod dma;
pub mod link;
pub mod pcie;
pub mod ring;
pub mod rss;

pub use device::{Nic, NicConfig, NicStats, QueueStats};
pub use dma::DmaMemory;
pub use link::LinkModel;
pub use pcie::PcieModel;
pub use ring::{Completion, PostedBuffer, RxRing, TxRequest, TxRing};
pub use rss::{IndirectionTable, Toeplitz};

/// Reads a big-endian u16 at `off` (header-field peeking for RSS).
#[inline]
pub(crate) fn ring_be16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}
