//! A DPDK-like userspace driver layer for PacketMill-rs: mempools, the
//! two-cache-line `rte_mbuf` descriptor, a burst poll-mode driver — and
//! the paper's contribution, the **X-Change** metadata-management API.
//!
//! # The three metadata models (paper §2.2 / §3.1)
//!
//! * [`MetadataModel::Copying`] — the PMD writes the full `rte_mbuf`
//!   field set, then the framework copies/converts the useful fields into
//!   its own `Packet` object (FastClick's default). Two conversions per
//!   packet, two pools cycling.
//! * [`MetadataModel::Overlaying`] — the framework's descriptor *is* the
//!   `rte_mbuf` plus annotations appended after it (BESS/VPP style). One
//!   conversion, but the full generic field set is still carried and the
//!   big pool still cycles.
//! * [`MetadataModel::XChange`] — the application hands its own metadata
//!   buffers to the driver; per-field conversion functions write **only
//!   the fields the NF needs**, directly in the application's layout, and
//!   RX/TX *exchange* buffers so the live metadata set stays bounded
//!   (≈ burst size) and cache-resident, and pool alloc/free is skipped.
//!
//! The functional halves are real (packet bytes, lengths, RSS hashes flow
//! through), and every descriptor/pool/metadata touch is charged to the
//! simulated cache hierarchy at the addresses a real DPDK process would
//! touch — which is precisely where the three models differ.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod layout;
pub mod mbuf;
pub mod mempool;
pub mod pmd;
pub mod xchg;

pub use layout::{FieldDef, StructLayout};
pub use mbuf::RTE_MBUF_SIZE;
pub use mempool::{Mempool, MempoolMode, MempoolStats};
pub use pmd::{Pmd, PmdConfig, PmdStats, RxDesc, TxSend};
pub use xchg::{MetaField, MetadataModel, MetadataSpec, XchgRing};
