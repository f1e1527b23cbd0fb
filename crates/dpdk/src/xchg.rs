//! The X-Change metadata-management API (paper §3.1).
//!
//! X-Change replaces the PMD's direct `rte_mbuf` field assignments with
//! per-field **conversion functions** the application may re-implement,
//! and lets the application hand its **own** metadata buffers to the
//! driver, exchanging used buffers for fresh ones on both the RX and TX
//! paths. The three effects the paper claims fall out of this module plus
//! the PMD:
//!
//! 1. tailored metadata — the PMD writes only the fields in the NF's
//!    [`MetadataSpec`], in the application's own layout;
//! 2. bounded, cache-resident metadata — the [`XchgRing`] holds only
//!    ≈ burst-size buffers that are reused immediately;
//! 3. no pool alloc/free — RX replenishment swaps buffers returned by TX
//!    completion instead of going through the mempool ring.
//!
//! The conversion-function shape mirrors the paper's Listing 1/2:
//!
//! ```
//! use pm_dpdk::{MetaField, StructLayout};
//!
//! /// The application's descriptor: two fields instead of a 128-B mbuf
//! /// (this is the paper's `l2fwd-xchg` specialization).
//! let app_layout = StructLayout::packed("L2FwdDesc", &[
//!     ("buf_addr", 8),
//!     ("pkt_len", 4),
//! ]);
//! // The driver asks "where does this application want VLAN TCI?" —
//! // an NF that never reads it simply doesn't have the field, and the
//! // conversion function becomes a no-op (no store, no cache line).
//! assert!(app_layout.field(MetaField::VlanTci.name()).is_none());
//! assert_eq!(app_layout.size(), 12);
//! ```

use crate::layout::StructLayout;
use pm_mem::{AddressSpace, Region};
use std::collections::VecDeque;

/// The metadata fields a driver can deliver (the `xchg_set_*` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaField {
    /// Buffer virtual address.
    BufAddr,
    /// Offset of packet data within the buffer.
    DataOff,
    /// Total packet length.
    PktLen,
    /// Data length in this segment.
    DataLen,
    /// Receiving port.
    Port,
    /// RSS hash.
    RssHash,
    /// VLAN TCI (if offloaded).
    VlanTci,
    /// Offload flags.
    OlFlags,
    /// Parsed packet type.
    PacketType,
    /// Hardware timestamp.
    Timestamp,
}

impl MetaField {
    /// All fields a default (mbuf-compatible) driver writes per packet.
    pub const RX_FULL: [MetaField; 10] = [
        MetaField::BufAddr,
        MetaField::DataOff,
        MetaField::PktLen,
        MetaField::DataLen,
        MetaField::Port,
        MetaField::RssHash,
        MetaField::VlanTci,
        MetaField::OlFlags,
        MetaField::PacketType,
        MetaField::Timestamp,
    ];

    /// The field's name in a [`StructLayout`].
    pub fn name(self) -> &'static str {
        match self {
            MetaField::BufAddr => "buf_addr",
            MetaField::DataOff => "data_off",
            MetaField::PktLen => "pkt_len",
            MetaField::DataLen => "data_len",
            MetaField::Port => "port",
            MetaField::RssHash => "rss_hash",
            MetaField::VlanTci => "vlan_tci",
            MetaField::OlFlags => "ol_flags",
            MetaField::PacketType => "packet_type",
            MetaField::Timestamp => "timestamp",
        }
    }

    /// The field's size in bytes.
    pub fn size(self) -> u32 {
        match self {
            MetaField::BufAddr | MetaField::OlFlags | MetaField::Timestamp => 8,
            MetaField::RssHash | MetaField::PacketType | MetaField::PktLen => 4,
            MetaField::DataOff | MetaField::DataLen | MetaField::Port | MetaField::VlanTci => 2,
        }
    }
}

/// Which metadata a given NF actually needs from the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataSpec {
    fields: Vec<MetaField>,
}

impl MetadataSpec {
    /// Everything an `rte_mbuf` would carry (the backward-compatible
    /// default implementation of the conversion functions).
    pub fn full() -> Self {
        MetadataSpec {
            fields: MetaField::RX_FULL.to_vec(),
        }
    }

    /// The minimal forwarding spec: buffer address + length (the paper's
    /// `l2fwd-xchg`: "the metadata is reduced to two simple fields").
    pub fn minimal() -> Self {
        MetadataSpec {
            fields: vec![MetaField::BufAddr, MetaField::PktLen],
        }
    }

    /// A router/NAT-style spec: address, lengths, port, RSS hash.
    pub fn routing() -> Self {
        MetadataSpec {
            fields: vec![
                MetaField::BufAddr,
                MetaField::PktLen,
                MetaField::DataLen,
                MetaField::Port,
                MetaField::RssHash,
            ],
        }
    }

    /// A custom spec.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty or has duplicates.
    pub fn custom(fields: Vec<MetaField>) -> Self {
        assert!(!fields.is_empty(), "spec cannot be empty");
        for (i, f) in fields.iter().enumerate() {
            assert!(!fields[..i].contains(f), "duplicate field {f:?}");
        }
        MetadataSpec { fields }
    }

    /// The fields, in driver write order.
    pub fn fields(&self) -> &[MetaField] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the spec is empty (never constructible via public API).
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Builds the application-side descriptor layout this spec implies
    /// (fields in spec order, naturally aligned).
    pub fn to_layout(&self, name: &'static str) -> StructLayout {
        let spec: Vec<(&'static str, u32)> =
            self.fields.iter().map(|f| (f.name(), f.size())).collect();
        StructLayout::packed(name, &spec)
    }
}

/// Which metadata-management model the driver + framework pair uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetadataModel {
    /// PMD fills `rte_mbuf`; framework copies useful fields into its own
    /// `Packet` object (FastClick default).
    Copying,
    /// Framework descriptor overlays the `rte_mbuf` (BESS style);
    /// annotations appended after the mbuf fields.
    Overlaying,
    /// PacketMill's X-Change: driver writes the application's descriptor
    /// directly, buffers are exchanged, pools bypassed.
    XChange,
}

impl std::fmt::Display for MetadataModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MetadataModel::Copying => "copying",
            MetadataModel::Overlaying => "overlaying",
            MetadataModel::XChange => "x-change",
        };
        f.write_str(s)
    }
}

/// The application's exchanged metadata-buffer ring.
///
/// A small, fixed set of application descriptors cycles between the
/// application and the driver; slot addresses are reused immediately, so
/// the whole ring stays in the L1/L2 working set.
#[derive(Debug)]
pub struct XchgRing {
    layout: StructLayout,
    region: Region,
    stride: u64,
    free: VecDeque<u32>,
    /// `is_free[slot]`: the slot is in `free`, not out with the
    /// application. The O(1) double-return check.
    is_free: Vec<bool>,
    n: u32,
}

impl XchgRing {
    /// Creates a ring of `n` application descriptors laid out per
    /// `layout`, line-aligned, in `space`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(space: &mut AddressSpace, n: u32, layout: StructLayout) -> Self {
        assert!(n > 0, "empty xchg ring");
        let stride = u64::from(layout.size_lines().max(64));
        XchgRing {
            region: space.alloc(stride * u64::from(n)),
            layout,
            stride,
            free: (0..n).collect(),
            is_free: vec![true; n as usize],
            n,
        }
    }

    /// Ring size.
    pub fn capacity(&self) -> u32 {
        self.n
    }

    /// Free descriptors available for the driver.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Driver side: takes a free descriptor slot.
    pub fn take(&mut self) -> Option<u32> {
        let slot = self.free.pop_front()?;
        self.is_free[slot as usize] = false;
        Some(slot)
    }

    /// Application side: returns a slot after the packet is fully
    /// processed (TX completion reaped).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or already returned.
    pub fn give_back(&mut self, slot: u32) {
        assert!(slot < self.n, "slot out of range");
        assert!(
            !std::mem::replace(&mut self.is_free[slot as usize], true),
            "double give_back of slot {slot}"
        );
        self.free.push_back(slot);
    }

    /// Base address of descriptor `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_addr(&self, slot: u32) -> u64 {
        assert!(slot < self.n, "slot out of range");
        self.region.base + u64::from(slot) * self.stride
    }

    /// Address of `field` within descriptor `slot`, or `None` if the
    /// application's layout does not include the field (the conversion
    /// function is a no-op — nothing is written, nothing is charged).
    pub fn field_addr(&self, slot: u32, field: MetaField) -> Option<(u64, u32)> {
        self.layout
            .field(field.name())
            .map(|f| (self.slot_addr(slot) + u64::from(f.offset), f.size))
    }

    /// Total ring footprint in bytes (should be tiny — that's the point).
    pub fn footprint_bytes(&self) -> u64 {
        self.region.size
    }

    /// The descriptor region.
    pub fn region(&self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_is_two_fields() {
        let s = MetadataSpec::minimal();
        assert_eq!(s.len(), 2);
        let l = s.to_layout("MinDesc");
        assert_eq!(l.size(), 12); // 8 + 4
        assert_eq!(l.size_lines(), 64);
    }

    #[test]
    fn full_spec_matches_mbuf_fields() {
        let s = MetadataSpec::full();
        assert_eq!(s.len(), 10);
        let mbuf = crate::mbuf::rte_mbuf_layout();
        for f in s.fields() {
            assert!(mbuf.field(f.name()).is_some(), "{f:?} missing from mbuf");
        }
    }

    #[test]
    fn ring_cycles_slots() {
        let mut space = AddressSpace::new();
        let mut r = XchgRing::new(&mut space, 4, MetadataSpec::minimal().to_layout("D"));
        let a = r.take().unwrap();
        let b = r.take().unwrap();
        assert_ne!(a, b);
        r.give_back(a);
        assert_eq!(r.available(), 3);
        // Slots have distinct line-aligned addresses.
        assert_eq!(r.slot_addr(1) - r.slot_addr(0), 64);
    }

    #[test]
    fn ring_footprint_tiny() {
        let mut space = AddressSpace::new();
        let r = XchgRing::new(&mut space, 32, MetadataSpec::routing().to_layout("D"));
        assert!(r.footprint_bytes() <= 32 * 64, "one line per descriptor");
    }

    #[test]
    fn absent_field_is_noop() {
        let mut space = AddressSpace::new();
        let r = XchgRing::new(&mut space, 2, MetadataSpec::minimal().to_layout("D"));
        assert!(r.field_addr(0, MetaField::VlanTci).is_none());
        let (addr, size) = r.field_addr(0, MetaField::BufAddr).unwrap();
        assert_eq!(addr, r.slot_addr(0));
        assert_eq!(size, 8);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut space = AddressSpace::new();
        let mut r = XchgRing::new(&mut space, 1, MetadataSpec::minimal().to_layout("D"));
        assert!(r.take().is_some());
        assert!(r.take().is_none());
    }

    #[test]
    #[should_panic(expected = "double give_back")]
    fn double_give_back_caught() {
        let mut space = AddressSpace::new();
        let mut r = XchgRing::new(&mut space, 2, MetadataSpec::minimal().to_layout("D"));
        let slot = r.take().unwrap();
        r.give_back(slot);
        r.give_back(slot);
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn out_of_range_give_back_caught() {
        let mut space = AddressSpace::new();
        let mut r = XchgRing::new(&mut space, 2, MetadataSpec::minimal().to_layout("D"));
        r.give_back(2);
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_spec_rejected() {
        let _ = MetadataSpec::custom(vec![MetaField::Port, MetaField::Port]);
    }
}
